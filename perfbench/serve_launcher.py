"""Run the unmodified ``repro serve`` entry point with layer spans on.

Usage::

    python3 perfbench/serve_launcher.py SPANS_OUT serve --platform NAME

Used only by traced runs of ``serve_poisson``.  It installs the layer
wrappers of :mod:`tracing`, adds one ``service.request`` span per request
(from the moment the server has read the request line to the moment it
writes the reply; completion records streamed in between belong to the
request) and, after each request, a snapshot of the online simulator's
own counters.  When the server shuts down, the spans and snapshots are
written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracing

_RECORD_LINE = b'{"type": "record"'


def _mark(sim) -> list[float]:
    engine = sim.engine
    return [sim.sched_s, sim.sim_s, engine.events, engine.event_s,
            engine.solves_component, engine.solve_rows]


class _Reader:
    def __init__(self, reader, tracer, open_request) -> None:
        self._reader = reader
        self._tracer = tracer
        self._open = open_request

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        if line:
            self._open.append(self._tracer.open("service.request"))
        return line


class _Writer:
    def __init__(self, writer, tracer, open_request, on_reply) -> None:
        self._writer = writer
        self._tracer = tracer
        self._open = open_request
        self._on_reply = on_reply

    def write(self, data: bytes) -> None:
        self._writer.write(data)
        if self._open and not data.startswith(_RECORD_LINE):
            self._tracer.close(self._open.pop())
            self._on_reply()

    def __getattr__(self, name):
        return getattr(self._writer, name)


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    from repro.__main__ import main as repro_main
    from repro.online.service import OnlineService

    tracer = tracing.Tracer()
    marks: list[list[float]] = []
    plain_handle = OnlineService.handle

    async def handle(self, reader, writer):
        open_request: list[int] = []
        return await plain_handle(
            self, _Reader(reader, tracer, open_request),
            _Writer(writer, tracer, open_request,
                    lambda: marks.append(_mark(self.sim))))

    installed = tracing.install(tracer)
    installed.set(OnlineService, "handle", handle)
    try:
        return repro_main(argv[1:])
    finally:
        installed.remove()
        tracer.dump(out, marks=marks)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
