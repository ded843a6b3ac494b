"""``python -m repro.service``: the daemon and its query client.

Serve one substrate::

    python -m repro.service serve --preset moderate --cycle-interval 0.05

Talk to it (``--port`` from the daemon's ``SERVICE READY`` line)::

    python -m repro.service submit --port 7077 --query query1
    python -m repro.service submit --port 7077 \
        --sql "SELECT S.id, T.id FROM S, T [windowsize=2 sampleinterval=100] \
               WHERE S.id < 20 AND T.id > 40 AND S.adc0 < 500 \
               AND T.adc0 < 500 AND S.u = T.u"
    python -m repro.service status --port 7077
    python -m repro.service cancel --port 7077 --query-id 1
    python -m repro.service stats --port 7077
    python -m repro.service event --port 7077 --json '{"type": "fail", "node": 17}'
    python -m repro.service shutdown --port 7077
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.cost_model import Selectivities
from repro.service.client import ServiceClient
from repro.service.engine import ServiceConfig


def _add_endpoint(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True,
                        help="daemon port (see its SERVICE READY line)")
    parser.add_argument("--timeout", type=float, default=30.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="long-running multi-query substrate daemon and client",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the substrate daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks an ephemeral port (printed when ready)")
    serve.add_argument("--preset", default="moderate")
    serve.add_argument("--num-nodes", type=int, default=None,
                       help="override the preset's node count")
    serve.add_argument("--topology-seed", type=int, default=0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--send-probability", type=float, default=0.5)
    serve.add_argument("--sigma-st", type=float, default=0.2)
    serve.add_argument("--algorithm", default="base",
                       help="default strategy for submitted queries")
    serve.add_argument("--no-share", action="store_true",
                       help="disable cross-query shipment sharing")
    serve.add_argument("--cycle-interval", type=float, default=0.0,
                       help="seconds between sampling cycles; 0 = only "
                            "advance on explicit 'step' requests")
    serve.add_argument("--max-cycles", type=int, default=None)

    for name, helptext in (
        ("ping", "liveness check"),
        ("status", "engine + per-query sessions"),
        ("stats", "traffic, savings and reoptimization latency"),
        ("shutdown", "stop the daemon cleanly"),
    ):
        sub = commands.add_parser(name, help=helptext)
        _add_endpoint(sub)

    submit = commands.add_parser("submit", help="admit a StreamSQL query")
    _add_endpoint(submit)
    submit.add_argument("--sql", default=None, help="StreamSQL text")
    submit.add_argument("--query", default=None,
                        help="registered query name (query0..query3)")
    submit.add_argument("--algorithm", default=None)
    submit.add_argument("--window-size", type=int, default=None)

    cancel = commands.add_parser("cancel", help="cancel a running query")
    _add_endpoint(cancel)
    cancel.add_argument("--query-id", type=int, required=True)

    query_status = commands.add_parser(
        "query-status", help="one query's session facts"
    )
    _add_endpoint(query_status)
    query_status.add_argument("--query-id", type=int, required=True)

    step = commands.add_parser("step", help="advance sampling cycles")
    _add_endpoint(step)
    step.add_argument("--cycles", type=int, default=1)

    event = commands.add_parser(
        "event", help="inject a live failure/mobility/drift event"
    )
    _add_endpoint(event)
    event.add_argument("--json", required=True,
                       help='e.g. \'{"type": "fail", "node": 17}\'')

    return parser


def _serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import serve

    config = ServiceConfig(
        preset=args.preset,
        num_nodes=args.num_nodes,
        topology_seed=args.topology_seed,
        seed=args.seed,
        send_probability=args.send_probability,
        sigma_st=args.sigma_st,
        assumed=Selectivities(
            args.send_probability, args.send_probability, args.sigma_st
        ),
        share_shipments=not args.no_share,
        default_algorithm=args.algorithm,
    )
    return serve(
        host=args.host,
        port=args.port,
        config=config,
        cycle_interval=args.cycle_interval,
        max_cycles=args.max_cycles,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.command == "ping":
            result = client.ping()
        elif args.command == "submit":
            result = client.submit(
                sql=args.sql,
                query=args.query,
                algorithm=args.algorithm,
                window_size=args.window_size,
            )
        elif args.command == "cancel":
            result = client.cancel(args.query_id)
        elif args.command == "query-status":
            result = client.query_status(args.query_id)
        elif args.command == "status":
            result = client.status()
        elif args.command == "stats":
            result = client.stats()
        elif args.command == "step":
            result = client.step(args.cycles)
        elif args.command == "event":
            result = client.event(json.loads(args.json))
        elif args.command == "shutdown":
            result = client.shutdown()
        else:  # pragma: no cover - argparse enforces the choices
            raise SystemExit(2)
    except (RuntimeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
