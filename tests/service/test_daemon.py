"""Daemon round trips: dispatch, the TCP front end, client and CLI."""

import json
import threading
import time

import pytest

from repro.service.cli import main as cli_main
from repro.service.client import ServiceClient
from repro.service.daemon import (
    ServiceDaemon, ServiceServer, _RequestHandler, request, serve,
)
from repro.service.engine import ServiceConfig

SQL = (
    "SELECT S.id, T.id FROM S, T [windowsize=2 sampleinterval=100] "
    "WHERE S.id < 10 AND T.id > 30 AND S.adc0 < 500 AND T.adc0 < 500 "
    "AND S.u = T.u"
)


class TestDispatch:
    def test_errors_are_reported_not_fatal(self):
        daemon = ServiceDaemon(ServiceConfig(num_nodes=40))
        bad = daemon.handle({"op": "frobnicate"})
        assert bad["ok"] is False
        assert "frobnicate" in bad["error"]
        bad = daemon.handle({"op": "cancel", "query_id": 5})
        assert bad["ok"] is False
        good = daemon.handle({"op": "ping"})
        assert good == {"ok": True, "op": "pong", "cycle": 0}

    def test_submit_step_stats_via_dispatch(self):
        daemon = ServiceDaemon(ServiceConfig(num_nodes=40))
        admitted = daemon.handle({"op": "submit", "sql": SQL})
        assert admitted["ok"] is True
        stepped = daemon.handle({"op": "step", "cycles": 3})
        assert stepped == {"ok": True, "cycle": 3}
        stats = daemon.handle({"op": "stats"})
        assert stats["ok"] is True
        assert stats["total_traffic"] > 0


@pytest.fixture()
def live_server():
    daemon = ServiceDaemon(ServiceConfig(num_nodes=40))
    server = ServiceServer(("127.0.0.1", 0), daemon)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        daemon.stop()
        thread.join(timeout=5.0)


class TestTCPFrontEnd:
    def test_full_session_over_sockets(self, live_server):
        host, port = live_server
        client = ServiceClient(host, port)
        assert client.ping()["op"] == "pong"
        admitted = client.submit(sql=SQL)
        query_id = admitted["query_id"]
        client.step(4)
        status = client.status()
        assert status["cycle"] == 4
        assert status["active_queries"] == 1
        facts = client.query_status(query_id)
        assert facts["active"] is True
        client.event({"type": "fail", "node": 17})
        client.step(1)
        stats = client.stats()
        assert stats["events_applied"] == 1
        cancelled = client.cancel(query_id)
        assert cancelled["query_id"] == query_id
        with pytest.raises(RuntimeError):
            client.cancel(query_id)  # already detached

    def test_raw_request_helper(self, live_server):
        host, port = live_server
        response = request(host, port, {"op": "ping"})
        assert response["ok"] is True

    def test_cli_round_trip(self, live_server, capsys):
        host, port = live_server
        endpoint = ["--host", host, "--port", str(port)]
        assert cli_main(["ping", *endpoint]) == 0
        capsys.readouterr()  # drain the ping output
        assert cli_main(["submit", *endpoint, "--sql", SQL]) == 0
        submitted = json.loads(capsys.readouterr().out)
        assert cli_main(["step", *endpoint, "--cycles", "2"]) == 0
        capsys.readouterr()  # drain the step output
        assert cli_main(["stats", *endpoint]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["active_queries"] == 1
        assert cli_main(
            ["cancel", *endpoint, "--query-id", str(submitted["query_id"])]
        ) == 0
        assert cli_main(
            ["cancel", *endpoint, "--query-id", "99"]
        ) == 1  # daemon error -> nonzero exit


def _wait_for(condition, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


def test_serve_announces_itself_ticks_and_exits_cleanly(capsys):
    """``serve`` in-process: the ready line names the bound port, the
    ticker advances on its own, and a ``shutdown`` request ends it with 0."""
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(code=serve(
            port=0, config=ServiceConfig(num_nodes=40),
            cycle_interval=0.001, max_cycles=50)),
        daemon=True,
    )
    thread.start()
    printed = []

    def ready_line():
        printed.append(capsys.readouterr().out)
        return "SERVICE READY" in "".join(printed)

    _wait_for(ready_line, "the SERVICE READY line")
    line = next(l for l in "".join(printed).splitlines() if l.startswith("SERVICE READY"))
    fields = dict(part.split("=", 1) for part in line.split()[2:])
    assert fields["nodes"] == "40"
    client = ServiceClient(fields["host"], int(fields["port"]))
    assert client.ping()["op"] == "pong"
    assert client.submit(sql=SQL)["ok"] is True
    _wait_for(lambda: client.status()["cycle"] >= 1, "the ticker's first cycle")
    assert client.shutdown()["shutting_down"] is True
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert outcome["code"] == 0


def test_serve_returns_after_its_handlers_finish(monkeypatch):
    """A handler still working after the ``shutdown`` reply keeps ``serve``
    from returning until it is done."""
    handlers = []
    handle = _RequestHandler.handle

    def slow_handle(self):
        handlers.append(threading.current_thread())
        handle(self)
        time.sleep(0.2)  # work after the reply, such as a slow close

    monkeypatch.setattr(_RequestHandler, "handle", slow_handle)
    outcome = {}

    def run():
        outcome["code"] = serve(port=0, config=ServiceConfig(num_nodes=40))
        outcome["alive"] = [thread.name for thread in handlers if thread.is_alive()]

    ready = threading.Event()
    printed = []
    monkeypatch.setattr("builtins.print", lambda *a, **k: (printed.append(" ".join(
        map(str, a))), ready.set()))
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(30.0)
    fields = dict(part.split("=", 1) for part in printed[0].split()[2:])
    client = ServiceClient(fields["host"], int(fields["port"]))
    assert client.shutdown()["shutting_down"] is True
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert outcome == {"code": 0, "alive": []}
    assert handlers
