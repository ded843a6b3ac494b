"""The substrate daemon: a JSON-line TCP front end over ServiceEngine.

Protocol: one JSON object per line, one response line per request.

    {"op": "ping"}
    {"op": "submit", "sql": "SELECT ...", "algorithm": "innet-cmg"}
    {"op": "submit", "query": "query1", "window_size": 3}
    {"op": "cancel", "query_id": 2}
    {"op": "status"}                     # engine + per-query sessions
    {"op": "query-status", "query_id": 2}
    {"op": "stats"}                      # traffic / savings / reopt latency
    {"op": "step", "cycles": 5}          # manual cycle stepping
    {"op": "event", "event": {"type": "fail", "node": 17}}
    {"op": "shutdown"}

Every response carries ``"ok": true`` or ``"ok": false`` plus an ``error``
message.  All engine access is serialized by one lock shared with the
background ticker thread, so admission, cancellation and events land
exactly at sampling-cycle boundaries.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any, Dict, Optional

from repro.service.engine import ServiceConfig, ServiceEngine


class ServiceDaemon:
    """Owns the engine, the lock, and the optional self-ticking thread."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        cycle_interval: float = 0.0,
        max_cycles: Optional[int] = None,
    ) -> None:
        self.engine = ServiceEngine(config)
        self.lock = threading.Lock()
        self.cycle_interval = cycle_interval
        self.max_cycles = max_cycles
        self._stop = threading.Event()
        self._ticker: Optional[threading.Thread] = None

    # -- ticking --------------------------------------------------------------
    def start_ticker(self) -> None:
        """Advance one sampling cycle every ``cycle_interval`` seconds."""
        if self.cycle_interval <= 0:
            return

        def tick() -> None:
            while not self._stop.is_set():
                with self.lock:
                    if (
                        self.max_cycles is not None
                        and self.engine.cycle >= self.max_cycles
                    ):
                        break
                    self.engine.step(1)
                time.sleep(self.cycle_interval)

        self._ticker = threading.Thread(
            target=tick, name="service-ticker", daemon=True
        )
        self._ticker.start()

    def stop(self) -> None:
        self._stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=5.0)

    # -- request dispatch ------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        try:
            with self.lock:
                return {"ok": True, **self._dispatch(op, request)}
        except Exception as error:  # surface, don't kill the daemon
            return {"ok": False, "op": op, "error": str(error)}

    def _dispatch(self, op: Any, request: Dict[str, Any]) -> Dict[str, Any]:
        engine = self.engine
        if op == "ping":
            return {"op": "pong", "cycle": engine.cycle}
        if op == "submit":
            return engine.submit(
                sql=request.get("sql"),
                name=request.get("query"),
                algorithm=request.get("algorithm"),
                window_size=request.get("window_size"),
            )
        if op == "cancel":
            return engine.cancel(request["query_id"])
        if op == "status":
            return engine.status()
        if op == "query-status":
            return engine.query_status(request["query_id"])
        if op == "stats":
            return engine.stats()
        if op == "step":
            return engine.step(request.get("cycles", 1))
        if op == "event":
            return engine.apply_event(request.get("event") or {})
        if op == "shutdown":
            return {"shutting_down": True, "cycle": engine.cycle}
        raise ValueError(f"unknown op {op!r}")


class _RequestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "ServiceServer" = self.server  # type: ignore[assignment]
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as error:
                response = {"ok": False, "error": f"bad json: {error}"}
            else:
                response = server.daemon.handle(request)
            self.wfile.write(
                (json.dumps(response, sort_keys=True) + "\n").encode()
            )
            self.wfile.flush()
            if response.get("ok") and response.get("shutting_down"):
                server.request_shutdown()
                return


class ServiceServer(socketserver.ThreadingTCPServer):
    """One handler thread per connection; closing the server joins them, so
    :func:`serve` returns only once every handler has finished."""

    allow_reuse_address = True
    daemon_threads = False

    def __init__(self, address, daemon: ServiceDaemon) -> None:
        super().__init__(address, _RequestHandler)
        self.daemon = daemon

    def request_shutdown(self) -> None:
        self.daemon.stop()
        # shutdown() must come from another thread than the serve_forever loop
        threading.Thread(target=self.shutdown, daemon=True).start()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServiceConfig] = None,
    cycle_interval: float = 0.0,
    max_cycles: Optional[int] = None,
) -> int:
    """Run the daemon until a shutdown request; returns 0 on clean exit.

    Prints one ``SERVICE READY host=... port=... nodes=...`` line once the
    socket is bound, so a caller that asked for port 0 learns the port.
    """
    daemon = ServiceDaemon(
        config, cycle_interval=cycle_interval, max_cycles=max_cycles
    )
    with ServiceServer((host, port), daemon) as server:
        actual_port = server.server_address[1]
        print(f"SERVICE READY host={host} port={actual_port} "
              f"nodes={len(daemon.engine.topology.nodes)}", flush=True)
        daemon.start_ticker()
        server.serve_forever(poll_interval=0.1)
    daemon.stop()
    return 0


def request(host: str, port: int, payload: Dict[str, Any],
            timeout: float = 30.0) -> Dict[str, Any]:
    """One request/response round trip against a running daemon."""
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall((json.dumps(payload) + "\n").encode())
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            buffer += chunk
    if not buffer:
        raise ConnectionError("empty response from service daemon")
    return json.loads(buffer.decode())
