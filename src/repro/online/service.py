"""``repro serve``: a stdlib-only asyncio front-end for the online engine.

The service accepts newline-delimited JSON over a local TCP socket, runs
each submission through the :class:`~repro.online.engine.OnlineSimulator`
(admission → residual schedule → live injection) and *streams* each job's
final :class:`~repro.online.metrics.JobRecord` back to the connection
that submitted it as soon as the simulated job completes.

Wire protocol (one JSON object per line, both directions)
---------------------------------------------------------
Requests carry an ``op``:

``{"op": "submit", "workload": {...}, "algorithm": "hcpa", "t": 1.5}``
    Submit one job.  ``workload`` is a ``repro run``-style dict
    (``family`` + shape fields); ``algorithm`` any
    :func:`~repro.experiments.experiment.as_algorithm_spec` name;
    ``job_id`` and ``sample`` are optional.  ``t`` is the virtual arrival
    time — in the default virtual-time mode it defaults to the current
    virtual now (wall mode derives it from the wall clock instead; see
    below).  Reply: ``{"type": "ack", "job_id": ..., "admitted": ...}``.
``{"op": "advance", "t": 30.0}``
    Run the simulation to virtual time ``t``; completed jobs stream out.
    Reply: ``{"type": "advanced", "now": ...}``.
``{"op": "drain"}``
    Run every admitted job to completion.  Reply after the records:
    ``{"type": "drained", "metrics": {...}}``.
``{"op": "stats"}``
    Reply: ``{"type": "stats", "now": ..., "in_flight": ...,
    "metrics": {...}}``.
``{"op": "shutdown"}``
    Reply ``{"type": "bye"}`` and stop the server (used by CI for a
    clean teardown).

Completion records arrive interleaved, each as
``{"type": "record", "record": {...}}`` on the submitting connection;
errors as ``{"type": "error", "error": "..."}`` — among them a
non-finite ``t`` and a ``job_id`` already in use.

Time
----
Virtual mode (default) is **deterministic**: the clock only moves when a
submission, ``advance`` or ``drain`` moves it, so a scripted session —
like the CI smoke job — produces identical records on every run.  Wall
mode (``wall=True``) stamps arrivals with real elapsed seconds times
``time_scale`` for interactive use.

Scheduling and simulation run inline on the event loop: requests
serialise, which is exactly the determinism the service wants — this is a
simulation front-end, not a throughput server.

:func:`submit_jobs` is the synchronous client helper the tests and the CI
smoke job drive the server with.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import socket
import time
from typing import Iterable, Sequence

from repro.online.engine import OnlineSimulator
from repro.online.metrics import JobRecord
from repro.online.stream import (
    JobArrival,
    _scenario_from_workload,
    _spec_from_algorithm,
)

__all__ = ["OnlineService", "serve", "submit_jobs"]


class OnlineService:
    """Protocol handler binding one :class:`OnlineSimulator` to a socket."""

    def __init__(self, sim: OnlineSimulator, *, wall: bool = False,
                 time_scale: float = 1.0) -> None:
        self.sim = sim
        self.wall = wall
        self.time_scale = float(time_scale)
        self._t0: float | None = None
        self._n_submitted = 0
        self._writers: dict[str, asyncio.StreamWriter] = {}
        self._dispatched: set[str] = set()
        self.shutdown = asyncio.Event()

    # ------------------------------------------------------------------ #
    def _wall_now(self) -> float:
        if self._t0 is None:
            self._t0 = time.monotonic()
        return (time.monotonic() - self._t0) * self.time_scale

    def _arrival_time(self, payload: dict) -> float:
        if self.wall:
            t = self._wall_now()
        else:
            t = float(payload.get("t", self.sim.engine.now))
            if not math.isfinite(t):
                raise ValueError(f"arrival time must be finite, got {t}")
        # the engine cannot rewind; a late-stamped virtual arrival joins now
        return max(t, self.sim.engine.now)

    async def _dispatch_records(self) -> None:
        """Stream newly-finalised records to their submitting connections."""
        for record in self.sim.records():
            if record.job_id in self._dispatched:
                continue
            self._dispatched.add(record.job_id)
            writer = self._writers.pop(record.job_id, None)
            if writer is None or writer.is_closing():
                continue
            await _send(writer, {"type": "record",
                                 "record": dataclasses.asdict(record)})

    # ------------------------------------------------------------------ #
    def _handle_submit(self, payload: dict,
                       writer: asyncio.StreamWriter) -> dict:
        workload = payload.get("workload")
        if workload is None:
            raise ValueError("submit needs a 'workload' dict")
        scenario = _scenario_from_workload(
            workload, sample=int(payload.get("sample", 0)))
        spec = _spec_from_algorithm(payload.get("algorithm", "hcpa"))
        arrival = self._arrival_time(payload)
        job_id = str(payload.get("job_id", f"srv-{self._n_submitted:05d}"))
        self._n_submitted += 1
        job = JobArrival(job_id=job_id, arrival_time=arrival,
                         scenario=scenario, spec=spec)
        admitted = self.sim.submit(job)
        # only a submission the simulator accepted owns its job id: a
        # rejected duplicate must not redirect the first submitter's record
        self._writers[job_id] = writer
        return {"type": "ack", "job_id": job_id, "admitted": admitted,
                "t": arrival}

    def _handle_op(self, payload: dict,
                   writer: asyncio.StreamWriter) -> dict:
        op = payload.get("op")
        if op == "submit":
            return self._handle_submit(payload, writer)
        if op == "advance":
            self.sim.advance_until(float(payload["t"]))
            return {"type": "advanced", "now": self.sim.engine.now}
        if op == "drain":
            self.sim.drain()
            return {"type": "drained",
                    "metrics": self.sim.result().metrics.as_dict()}
        if op == "stats":
            return {"type": "stats", "now": self.sim.engine.now,
                    "in_flight": len(self.sim.residual_state().in_flight),
                    "metrics": self.sim.result().metrics.as_dict()}
        if op == "shutdown":
            return {"type": "bye"}
        raise ValueError(f"unknown op {op!r}")

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while not self.shutdown.is_set():
                line = await reader.readline()
                if not line:
                    break
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("request must be a JSON object")
                    reply = self._handle_op(payload, writer)
                except Exception as exc:  # protocol error -> error reply
                    await _send(writer, {"type": "error", "error": str(exc)})
                    continue
                # drain/advance may have completed jobs submitted by this
                # or other connections: stream their records first, so a
                # client that drains sees all records before "drained"
                await self._dispatch_records()
                await _send(writer, reply)
                if reply["type"] == "bye":
                    self.shutdown.set()
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


async def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def serve(sim: OnlineSimulator, *, host: str = "127.0.0.1",
                port: int = 0, wall: bool = False, time_scale: float = 1.0,
                ready=None) -> None:
    """Run the service until a client sends ``shutdown``.

    ``port=0`` binds an ephemeral port; ``ready`` (if given) is called
    with the bound ``(host, port)`` once the socket is listening — the
    hook tests and the CLI use to announce the address.
    """
    service = OnlineService(sim, wall=wall, time_scale=time_scale)
    server = await asyncio.start_server(service.handle, host, port)
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    async with server:
        await service.shutdown.wait()


# --------------------------------------------------------------------- #
# synchronous client helper (tests, CI smoke job, scripting)
# --------------------------------------------------------------------- #
def submit_jobs(host: str, port: int, jobs: Iterable[dict], *,
                drain: bool = True, shutdown: bool = False,
                timeout: float = 60.0, connect_retries: int = 40,
                retry_delay: float = 0.25,
                ) -> tuple[list[dict], list[JobRecord], dict | None]:
    """Submit ``jobs`` (submit-payload dicts) to a running service.

    Connects with retries (the server may still be starting), submits
    every job, optionally drains and shuts the server down, and returns
    ``(acks, records, metrics)`` — ``metrics`` is the drain reply's
    roll-up, or ``None`` when ``drain=False``.
    """
    sock = _connect(host, port, connect_retries, retry_delay)
    acks: list[dict] = []
    records: list[JobRecord] = []
    metrics: dict | None = None
    try:
        sock.settimeout(timeout)
        rfile = sock.makefile("r", encoding="utf-8")

        def send(payload: dict) -> None:
            sock.sendall(json.dumps(payload).encode() + b"\n")

        def recv_until(final_types: Sequence[str]) -> dict:
            """Read replies, collecting streamed records on the way."""
            while True:
                line = rfile.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                reply = json.loads(line)
                if reply.get("type") == "record":
                    records.append(JobRecord(**reply["record"]))
                    continue
                if reply.get("type") == "error":
                    raise RuntimeError(f"server error: {reply['error']}")
                if reply.get("type") in final_types:
                    return reply
                raise RuntimeError(f"unexpected reply {reply!r}")

        for payload in jobs:
            send({"op": "submit", **payload})
            acks.append(recv_until(("ack",)))
        if drain:
            send({"op": "drain"})
            metrics = recv_until(("drained",))["metrics"]
        if shutdown:
            send({"op": "shutdown"})
            recv_until(("bye",))
    finally:
        sock.close()
    return acks, records, metrics


def _connect(host: str, port: int, retries: int,
             delay: float) -> socket.socket:
    last: Exception | None = None
    for _ in range(max(1, retries)):
        try:
            return socket.create_connection((host, port), timeout=delay * 4)
        except OSError as exc:
            last = exc
            time.sleep(delay)
    raise ConnectionError(
        f"cannot reach repro serve at {host}:{port}: {last}")
