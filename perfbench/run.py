"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_campaign --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``
with nothing wrapped; their times are scaled to a reference host speed
by calibration rounds taken between the timed operations (see
``common.HostSpeed``), because the shared hosts this runs on swing in
speed by more than the bounds.  ``--trace 1`` instead makes a traced run that wraps
each layer's public entry points and prints the per-layer metrics (layers
a workload does not use read 0); the spans go to
``.bench_build/trace/<workload>.json``.  The last line of standard output
is the JSON result; a digest of the workload's outputs is printed before
it, so two commits (or a traced and an untraced run) can be checked for
identical behaviour.  Progress and the per-layer table go to standard
error.

The program is run from ``src/`` of the same checkout; without it the
benchmark exits with status 2 and prints no result.  Compiled solver
kernels are cached under ``.bench_build/cache``.

Seeds: 1 is the default, 2 is held out for checking claims.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("paper_campaign", "large_grid_stream", "serve_poisson")
DEFAULT_SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed window (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    # the program, and any server process it starts, run from src/ and
    # keep compiled kernels inside the checkout
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    sys.path.insert(0, str(SRC))

    workload = importlib.import_module(args.workload)
    outcome = workload.run(args.seed, seconds, bool(args.trace),
                           BUILD / "trace" / f"{args.workload}.json")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    if not args.trace:
        missing = sorted(set(units) - set(outcome.metrics))
        if missing:
            raise SystemExit(f"workload did not measure {missing}")
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)),
                      "unit": unit} for name, unit in units.items()}
    for note in outcome.notes:
        print(note, file=sys.stderr)
    print(f"digest {args.workload} seed {args.seed}: {outcome.digest}")
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
