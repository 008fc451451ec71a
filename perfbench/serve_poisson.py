"""``serve_poisson``: open-loop traffic against ``repro serve``.

The server is ``python -m repro serve --platform grid5000-grid`` in its
own process (deterministic virtual time).  One TCP connection sends
seeded submits of small layered and irregular DAGs, alternating ``hcpa``
and ``rats-timecost``, with Poisson virtual arrival gaps wide enough that
the jobs in flight level off.  A ``stats`` read follows every second
submit.  Requests are sent on a fixed wall-clock schedule whatever the
replies do (open loop), at 24 requests/s, about a fifth of the server's
capacity: closer to saturation, the host's swings in speed turn into
queueing and the latencies stop repeating.  Each latency is measured
from the request's due send time and scaled to the reference host speed
by calibration rounds the client takes, pinned to the server's
processor, whenever the server has replied to everything.

A pass starts a fresh server (the set-up: start, connect and submit
every scenario of the pool once, so each graph and allocation is built
before the window), runs the window, drains (all completion records
stream back) and shuts the server down.  An untraced run makes three
passes with the same requests, each a third of the timed window long; a
request's latency is its lowest over the passes.  The server runs in
virtual time, so every pass does the same work for a request, and the
lowest time is the one least disturbed by the host: by a stall, or by
time the hypervisor takes the processor away, which the calibration
rounds cannot see.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
from common import (SETUP_ROUNDS, SETUPS, Checks, HostSpeed, Outcome, digest,
                    median, percentile)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PLATFORM = "grid5000-grid"
ALGORITHMS = ("hcpa", "rats-timecost")
# (family, n_tasks, width, density, regularity, jump)
SHAPES = (("layered", 10, 0.5, 0.2, 0.8, 1), ("layered", 12, 0.8, 0.8, 0.2, 1),
          ("layered", 15, 0.2, 0.2, 0.8, 1), ("layered", 20, 0.5, 0.8, 0.8, 1),
          ("irregular", 10, 0.8, 0.2, 0.2, 2),
          ("irregular", 12, 0.5, 0.8, 0.8, 1),
          ("irregular", 15, 0.5, 0.2, 0.8, 4),
          ("irregular", 20, 0.2, 0.8, 0.2, 2))
SAMPLES = 3               # random instances of each shape in the pool
SUBMIT_RATE = 16.0        # submits per wall second; requests are 1.5x this
MEAN_VGAP_S = 40.0        # mean virtual seconds between arrivals
REPLY_TIMEOUT_S = 60.0
IDLE_ROUND_NS = 4_000_000  # the calibration rounds' slot before a send


def make_requests(seed: int, seconds: float):
    """The warm-up submits (one per pool scenario) and the window's
    requests; virtual arrival times run on across both.

    Every seed sends the same mix, so seeds do not move the figures: the
    window cycles through the pool, each cycle in a seeded order, and the
    virtual gaps are one fixed set of exponential quantiles (mean
    :data:`MEAN_VGAP_S`) in a seeded order.
    """
    rng = random.Random(seed)
    pool = [{"family": f, "n_tasks": n, "width": w, "density": d,
             "regularity": r, "jump": j, "sample": sample}
            for f, n, w, d, r, j in SHAPES for sample in range(SAMPLES)]
    n_window = max(2, round(SUBMIT_RATE * seconds))
    scenarios = []
    while len(scenarios) < n_window:
        scenarios += rng.sample(pool, len(pool))
    n_gaps = len(pool) + n_window
    gaps = [-MEAN_VGAP_S * math.log1p(-(k + 0.5) / n_gaps)
            for k in range(n_gaps)]
    rng.shuffle(gaps)
    arrivals = itertools.accumulate(gaps)

    def submit(job_id: str, workload: dict, algorithm: str) -> dict:
        return {"op": "submit", "job_id": job_id, "workload": workload,
                "algorithm": algorithm, "t": next(arrivals)}

    warm = [submit(f"warm{i}", w, ALGORITHMS[i % 2])
            for i, w in enumerate(pool)]
    window = []
    for i in range(n_window):
        window.append(submit(f"job{i:05d}", scenarios[i], ALGORITHMS[i % 2]))
        if i % 2:
            window.append({"op": "stats"})
    return warm, window


class Session:
    """One server process and one client connection to it."""

    def __init__(self, cmd: list[str]) -> None:
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     text=True)
        self.sock = None
        self.sent = 0
        self.replies: list[tuple[int, dict]] = []
        self.records: list[dict] = []
        self.eof = False
        self.cond = threading.Condition()
        try:
            line = self.proc.stdout.readline()
            m = re.search(r"listening on (\S+):(\d+)", line)
            if m is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.sock = socket.create_connection((m[1], int(m[2])))
        except BaseException:
            self.close()
            raise
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.sock.makefile("rb"):
            t = time.perf_counter_ns()
            msg = json.loads(line)
            if msg.get("type") == "record":
                self.records.append(msg["record"])
                continue
            with self.cond:
                self.replies.append((t, msg))
                self.cond.notify_all()
        with self.cond:
            self.eof = True
            self.cond.notify_all()

    def send(self, payload: dict) -> None:
        self.sock.sendall(json.dumps(payload).encode() + b"\n")
        self.sent += 1

    def wait(self, timeout: float = REPLY_TIMEOUT_S) -> None:
        """Block until every request sent so far has its reply."""
        with self.cond:
            if not self.cond.wait_for(
                    lambda: len(self.replies) >= self.sent or self.eof,
                    timeout):
                raise TimeoutError(f"{self.sent - len(self.replies)} "
                                   "replies still missing")
        if len(self.replies) < self.sent:
            raise ConnectionError("server closed the connection")

    def idle(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for every reply; True if they
        all came."""
        with self.cond:
            return self.cond.wait_for(
                lambda: len(self.replies) >= self.sent or self.eof, timeout)

    def call(self, payload: dict) -> dict:
        self.send(payload)
        self.wait()
        return self.replies[-1][1]

    def cpu_s(self) -> float:
        """CPU seconds the server process has used."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status)[1]) / 1024.0

    def close(self) -> None:
        """Shut the server down and wait for it; kill it if it hangs."""
        try:
            if self.sock is not None and not self.eof:
                self.call({"op": "shutdown"})
        except OSError:
            pass
        finally:
            if self.sock is not None:
                self.sock.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self.sock is not None:
            self.reader.join(timeout=10)


def start(cmd: list[str], warm: list[dict], checks: Checks) -> Session:
    session = Session(cmd)
    try:
        for payload in warm:
            reply = session.call(payload)
            checks.check(reply.get("type") == "ack" and reply["admitted"],
                         f"warm-up submit: {reply}")
    except BaseException:
        session.close()
        raise
    return session


def open_loop(session: Session, requests: list[dict],
              speed: HostSpeed) -> dict:
    """Send ``requests`` on the fixed schedule; wait for every reply.

    As soon as the server has replied to everything sent, and if the
    next send is not close, the client takes a calibration round on the
    processor the server has just worked on, so each latency can be
    scaled by the host's speed around it.
    """
    interval_ns = 1e9 / (1.5 * SUBMIT_RATE)
    first = session.sent
    speed.tick()
    t0 = time.perf_counter_ns() + 20_000_000
    due, lag, backlog, marks = [], [], [], []
    for i, payload in enumerate(requests):
        d = t0 + round(i * interval_ns)
        slack_s = (d - IDLE_ROUND_NS - time.perf_counter_ns()) * 1e-9
        if slack_s > 0 and session.idle(slack_s):
            speed.tick()
        wait_s = (d - time.perf_counter_ns()) * 1e-9
        if wait_s > 0:
            time.sleep(wait_s)
        lag.append(time.perf_counter_ns() - d)
        marks.append(speed.mark())
        session.send(payload)
        due.append(d)
        backlog.append(session.sent - len(session.replies))
    session.wait()
    speed.tick()
    replies = session.replies[first:first + len(requests)]
    latency = [t - d for (t, _), d in zip(replies, due)]
    return {"due": due, "lag": lag, "backlog": backlog, "replies": replies,
            "latency": latency,
            "scaled_ms": [speed.scale(x * 1e-9, m) * 1e3
                          for x, m in zip(latency, marks)]}


def finish(session: Session, n_submits: int, checks: Checks):
    """Drain, check every job's record, and return the digest rows."""
    reply = session.call({"op": "drain"})
    checks.check(reply.get("type") == "drained", f"drain: {reply}")
    records = sorted(session.records, key=lambda r: r["job_id"])
    checks.check(len(records) == n_submits,
                 f"{len(records)} records for {n_submits} submits")
    rows = []
    for r in records:
        jct = (r["completion"] - r["arrival"]
               if r["completion"] is not None else math.nan)
        checks.check(r["admitted"] and math.isfinite(jct) and jct > 0,
                     f"{r['job_id']}: jct {jct}")
        rows.append((r["job_id"], r["scenario"], r["algorithm"],
                     r["arrival"], r["start"], r["completion"],
                     r["est_makespan"]))
    return rows


def one_pass(cmd, warm, window, checks: Checks, calibrate: bool):
    """Start a server (the set-up), run the window on it, drain and shut
    down.  Returns the window's figures, times at the reference host
    speed if ``calibrate``."""
    speed = HostSpeed(calibrate)
    speed.tick(SETUP_ROUNDS)
    t0 = time.perf_counter()
    session = start(cmd, warm, checks)
    setup_s = time.perf_counter() - t0
    speed.tick(SETUP_ROUNDS)
    setup_s = speed.scale(setup_s)
    try:
        cpu0 = session.cpu_s()
        res = open_loop(session, window, speed)
        res["cpu_raw_s"] = session.cpu_s() - cpu0
        res["cpu_s"] = speed.scale(res["cpu_raw_s"])
        res["peak_rss_mb"] = session.peak_rss_mb()
        n_submits = len(warm) + sum(p["op"] == "submit" for p in window)
        res["rows"] = finish(session, n_submits, checks)
    finally:
        session.close()
    res["setup_s"] = setup_s
    res["rounds"] = speed.rounds
    kinds = [p["op"] for p in window]
    for (_, reply), kind in zip(res["replies"], kinds):
        want = "ack" if kind == "submit" else "stats"
        checks.check(reply.get("type") == want
                     and reply.get("admitted", True),
                     f"{kind}: {reply}")
    quarter = max(1, len(window) // 4)
    growing = median(res["backlog"][-quarter:]) > \
        median(res["backlog"][:quarter]) + 2
    checks.check(not growing, "backlog grew across the window: latencies "
                              "are not valid")
    return res


def server_cmd() -> list[str]:
    return [sys.executable, "-m", "repro", "serve", "--platform", PLATFORM]


def run(seed: int, seconds: float, traced: bool, trace_out) -> Outcome:
    checks = Checks()
    warm, window = make_requests(seed, seconds / SETUPS)
    kinds = [p["op"] for p in window]
    if not traced:
        # the client's calibration rounds must see the server's processor
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        passes = [one_pass(server_cmd(), warm, window, checks, True)
                  for _ in range(SETUPS)]
        for other in passes[1:]:
            checks.check(other["rows"] == passes[0]["rows"],
                         "passes disagree: outputs are not deterministic")
        checks.attempted += len(window) * len(passes)
        ms = [min(times) for times in zip(*(res["scaled_ms"]
                                            for res in passes))]
        submit_ms = [x for x, k in zip(ms, kinds) if k == "submit"]
        metrics = {"setup_s": median(res["setup_s"] for res in passes),
                   "ops_per_s": len(window) * len(passes)
                   / sum(res["cpu_s"] for res in passes),
                   "op_p50_ms": percentile(submit_ms, 50),
                   "op_p90_ms": percentile(submit_ms, 90),
                   "peak_rss_mb": median(res["peak_rss_mb"]
                                         for res in passes)}
        notes = [f"pass {k}: host round {median(res['rounds']) * 1e6:.0f} "
                 f"us, server {res['cpu_raw_s']:.2f} CPU-s raw, "
                 f"{res['cpu_s']:.2f} scaled"
                 for k, res in enumerate(passes)]
        return Outcome(metrics, checks.attempted, checks.failed,
                       digest(passes[0]["rows"]), checks.notes + notes)

    plain = one_pass(server_cmd(), warm, window, checks, False)
    traced_cmd = [sys.executable, str(HERE / "serve_launcher.py"),
                  str(trace_out), *server_cmd()[3:]]
    res = one_pass(traced_cmd, warm, window, checks, False)
    checks.check(res["rows"] == plain["rows"],
                 "traced and untraced outputs differ")
    checks.attempted += 2 * len(window)
    summary, metrics = server_layers(json.loads(Path(trace_out).read_text()),
                                     len(warm), res)
    stats_ms = [x * 1e-6 for x, k in zip(plain["latency"], kinds)
                if k == "stats"]
    metrics.update({
        "trace.overhead_frac": res["cpu_s"] / plain["cpu_s"] - 1.0,
        "service.errors": sum(r.get("type") == "error"
                              for _, r in res["replies"]),
        "service.stats_p50_ms": percentile(stats_ms, 50),
        "service.stats_p95_ms": percentile(stats_ms, 95),
        "loadgen.lag_p95_ms": percentile(plain["lag"], 95) * 1e-6,
        "loadgen.backlog_max": max(plain["backlog"]),
    })
    notes = checks.notes + tracing.report(summary,
                                          ("mapping", "redistribution"))
    return Outcome(metrics, checks.attempted, checks.failed,
                   digest(res["rows"]), notes)


def server_layers(dump: dict, first: int, res: dict):
    """Per-layer figures of the window from the traced server's spans.

    The window's requests are ``first`` onwards in the connection's order.
    A request waits from its due time to the start of its server span, is
    handled inside the online simulator calls under that span, and the
    rest of its latency is service overhead (decode, dispatch, encode and
    the socket).
    """
    tracer = tracing.Tracer()
    tracer.spans = spans = dump["spans"]
    requests = [i for i, s in enumerate(spans) if s[0] == "service.request"]
    last = first + len(res["due"]) - 1
    in_window = requests[first:last + 1]
    root = len(spans)
    spans.append(["trace.root", spans[in_window[0]][1],
                  spans[in_window[-1]][2], -1, 0.0])
    for i in in_window:
        spans[i][3] = root
    summary = tracer.summarize(root)
    handle_ns = dict.fromkeys(in_window, 0)
    for name, start_ns, end_ns, parent, _ in spans:
        if parent in handle_ns and name.startswith("online."):
            handle_ns[parent] += end_ns - start_ns
    wait = [spans[i][1] - d for i, d in zip(in_window, res["due"])]
    overhead = [lat - w - handle_ns[i] for i, lat, w in
                zip(in_window, res["latency"], wait)]
    before, after = dump["marks"][first - 1], dump["marks"][last]
    delta = dict(zip(("online.sched_s", "online.sim_s", "live.events",
                      "live.event_s", "network.solves", "network.solve_rows"),
                     (b - a for a, b in zip(before, after))))
    metrics = tracing.layer_metrics(summary, delta)
    metrics.update({
        "service.requests": len(in_window),
        "service.handle_s": sum(handle_ns.values()) * 1e-9,
        "service.wait_p95_ms": percentile(wait, 95) * 1e-6,
        "service.overhead_p50_ms": percentile(overhead, 50) * 1e-6,
    })
    return summary, metrics
