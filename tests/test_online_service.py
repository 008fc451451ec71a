"""The asyncio service front-end and its synchronous client helper."""

import asyncio
import json
import queue
import socket
import threading

import pytest

from repro.online.engine import OnlineSimulator
from repro.online.service import OnlineService, serve, submit_jobs
from repro.platforms.grid5000 import GRILLON

STRASSEN = {"family": "strassen"}


class _Server:
    """A serve() instance on a daemon thread with its own event loop."""

    def __init__(self, sim: OnlineSimulator, **kw) -> None:
        addr: "queue.Queue[tuple]" = queue.Queue()
        self.thread = threading.Thread(
            target=lambda: asyncio.run(
                serve(sim, port=0, ready=addr.put, **kw)),
            daemon=True)
        self.thread.start()
        self.host, self.port = addr.get(timeout=30)

    def join(self, timeout: float = 30.0) -> bool:
        self.thread.join(timeout)
        return not self.thread.is_alive()


def _raw_session(host, port, payloads):
    """Send JSON lines (``bytes`` payloads go out verbatim); return one
    parsed reply line per payload."""
    replies = []
    with socket.create_connection((host, port), timeout=30) as sock:
        rfile = sock.makefile("r", encoding="utf-8")
        for payload in payloads:
            line = (payload if isinstance(payload, bytes)
                    else json.dumps(payload).encode())
            sock.sendall(line + b"\n")
            replies.append(json.loads(rfile.readline()))
    return replies


class TestServeRoundTrip:
    def test_submit_drain_shutdown(self):
        server = _Server(OnlineSimulator(GRILLON))
        jobs = [{"workload": STRASSEN, "t": 5.0 * i} for i in range(3)]
        acks, records, metrics = submit_jobs(server.host, server.port,
                                             jobs, drain=True,
                                             shutdown=True)
        assert [a["type"] for a in acks] == ["ack"] * 3
        assert all(a["admitted"] for a in acks)
        assert sorted(r.job_id for r in records) \
            == [a["job_id"] for a in acks]
        assert all(r.finished for r in records)
        assert metrics["n_finished"] == 3
        assert server.join(), "server did not stop after shutdown"

    def test_virtual_time_sessions_are_deterministic(self):
        def run_session():
            server = _Server(OnlineSimulator(GRILLON))
            _, records, _ = submit_jobs(
                server.host, server.port,
                [{"workload": STRASSEN, "t": 2.0 * i, "job_id": f"j{i}"}
                 for i in range(3)],
                drain=True, shutdown=True)
            assert server.join()
            return records

        assert run_session() == run_session()   # exact float equality

    def test_rejected_submission_acks_false(self):
        server = _Server(OnlineSimulator(GRILLON,
                                         admission="queue-cap:1"))
        acks, records, metrics = submit_jobs(
            server.host, server.port,
            [{"workload": STRASSEN, "t": 0.0} for _ in range(2)],
            drain=True, shutdown=True)
        assert [a["admitted"] for a in acks] == [True, False]
        # the rejected job's record is final (streamed at drain time too)
        assert metrics["n_rejected"] == 1
        assert server.join()


class TestProtocol:
    def test_stats_advance_and_errors(self):
        server = _Server(OnlineSimulator(GRILLON))
        replies = _raw_session(server.host, server.port, [
            {"op": "stats"},
            {"op": "submit", "workload": STRASSEN, "t": 0.0},
            {"op": "advance", "t": 1e-6},
            {"op": "nonsense"},
            {"op": "submit"},                      # missing workload
            "not an object",
            b'{"op": "advance", "t": 1e999}',      # overflows to inf
            b'{"op": "submit", "workload": {"family": "strassen"}, '
            b'"t": NaN}',
        ])
        assert replies[0]["type"] == "stats"
        assert replies[0]["in_flight"] == 0
        assert replies[1]["type"] == "ack"
        assert replies[2] == {"type": "advanced", "now": 1e-6}
        assert replies[3]["type"] == "error"
        assert "unknown op" in replies[3]["error"]
        assert replies[4]["type"] == "error"
        assert "workload" in replies[4]["error"]
        assert replies[5]["type"] == "error"
        # non-finite times are refused instead of wedging the event loop
        assert replies[6]["type"] == "error"
        assert "non-finite" in replies[6]["error"]
        assert replies[7]["type"] == "error"
        assert "finite" in replies[7]["error"]
        # a protocol error never kills the session: drain still works
        acks, records, metrics = submit_jobs(
            server.host, server.port, [], drain=True, shutdown=True)
        assert metrics["n_finished"] == 1
        assert server.join()

    def test_drain_streams_records_before_final_reply(self):
        server = _Server(OnlineSimulator(GRILLON))
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            rfile = sock.makefile("r", encoding="utf-8")
            sock.sendall(json.dumps(
                {"op": "submit", "workload": STRASSEN, "t": 0.0}
            ).encode() + b"\n")
            assert json.loads(rfile.readline())["type"] == "ack"
            sock.sendall(b'{"op": "drain"}\n')
            first = json.loads(rfile.readline())
            second = json.loads(rfile.readline())
            assert first["type"] == "record"       # record precedes...
            assert first["record"]["completion"] > 0
            assert second["type"] == "drained"     # ...the terminal reply
            sock.sendall(b'{"op": "shutdown"}\n')
            assert json.loads(rfile.readline())["type"] == "bye"
        assert server.join()

    def test_duplicate_job_id_keeps_first_submitters_record(self):
        server = _Server(OnlineSimulator(GRILLON))
        job = {"op": "submit", "workload": STRASSEN, "t": 0.0, "job_id": "x"}
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            rfile = sock.makefile("r", encoding="utf-8")
            sock.sendall(json.dumps(job).encode() + b"\n")
            assert json.loads(rfile.readline())["type"] == "ack"
            # a second connection re-sends the same id and is refused
            [dup] = _raw_session(server.host, server.port, [job])
            assert dup["type"] == "error" and "duplicate" in dup["error"]
            sock.sendall(b'{"op": "drain"}\n')
            first = json.loads(rfile.readline())
            assert first["type"] == "record"
            assert first["record"]["job_id"] == "x"
            assert json.loads(rfile.readline())["type"] == "drained"
            sock.sendall(b'{"op": "shutdown"}\n')
            assert json.loads(rfile.readline())["type"] == "bye"
        assert server.join()


class TestSubmitOps:
    def test_failed_submit_can_be_retried_under_its_id(self):
        """A submit that errors leaves no job behind: the retry is the
        only job the drained metrics count."""
        service = OnlineService(OnlineSimulator(GRILLON))
        with pytest.raises(ValueError, match="power of two"):
            service._handle_op({"op": "submit", "job_id": "x",
                                "workload": {"family": "fft", "k": 3}},
                               None)
        ack = service._handle_op({"op": "submit", "job_id": "x", "t": 5,
                                  "workload": STRASSEN}, None)
        assert ack["type"] == "ack" and ack["admitted"]
        drained = service._handle_op({"op": "drain"}, None)
        assert drained["metrics"]["n_jobs"] == 1
        assert drained["metrics"]["n_finished"] == 1


class TestClientHelper:
    def test_connect_retry_gives_clean_error(self):
        with pytest.raises(ConnectionError, match="cannot reach"):
            submit_jobs("127.0.0.1", 1, [], connect_retries=2,
                        retry_delay=0.01)
