"""``scripts/serve.py`` -- the tuning-service command line.

The CLI is deliberately *offline-first*: ``submit``, ``status``,
``result``, ``cancel`` and ``list`` operate directly on the durable
service root (spec files + journals) without any server process, and
``run`` starts a :class:`~repro.service.TuningServer` over the root,
drains the queue (recovering any interrupted jobs first), and exits.
The spec files therefore *are* the queue: a crash between ``submit``
and ``run`` loses nothing, and a crash during ``run`` is recovered by
the next ``run``.

    python scripts/serve.py --root /tmp/svc submit --workload tpch-sf1 \\
        --tenant acme --priority 5 --seed 9
    python scripts/serve.py --root /tmp/svc run --workers 4 \\
        --executor process --cache-dir /tmp/svc/cache
    python scripts/serve.py --root /tmp/svc status job-0000
    python scripts/serve.py --root /tmp/svc result job-0000
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.tuner import LambdaTuneOptions
from repro.db.registry import available_engines
from repro.db.resources import parse_budget
from repro.errors import ReproError
from repro.service.jobs import JobSpec, ServiceRoot
from repro.service.queue import TenantQuota
from repro.service.server import TuningServer
from repro.session.discover import discover_journals, read_result


def _offline_state(root: ServiceRoot, job_id: str, journals: dict) -> str:
    """A job's lifecycle state as derivable from disk alone."""
    info = journals.get(job_id)
    if info is not None and info.complete:
        return "done"
    if root.is_cancelled(job_id):
        return "cancelled"
    if info is not None:
        return "interrupted"  # resumable by the next `run`
    return "queued"


def _journals(root: ServiceRoot) -> dict:
    return {info.name: info for info in discover_journals(root.journals_dir)}


def cmd_submit(root: ServiceRoot, args: argparse.Namespace) -> int:
    if args.system not in available_engines():
        raise ReproError(
            f"unknown system {args.system!r}; registered engines: "
            f"{', '.join(available_engines())}"
        )
    options = LambdaTuneOptions(
        num_configs=args.num_configs,
        token_budget=args.token_budget,
        initial_timeout=args.timeout,
        alpha=args.alpha,
        seed=args.seed,
        budget=parse_budget(args.budget) if args.budget else None,
    )
    spec = JobSpec(
        job_id=args.job_id,
        workload=args.workload,
        tenant=args.tenant,
        priority=args.priority,
        system=args.system,
        options=options,
    )
    print(root.write_spec(spec).job_id)
    return 0


def cmd_list(root: ServiceRoot, args: argparse.Namespace) -> int:
    journals = _journals(root)
    rows = []
    for job_id in root.job_ids():
        spec = root.read_spec(job_id)
        if args.tenant and spec.tenant != args.tenant:
            continue
        rows.append(
            (
                job_id,
                spec.tenant,
                spec.priority,
                spec.workload_ref(),
                _offline_state(root, job_id, journals),
            )
        )
    print(f"{'JOB':<12} {'TENANT':<12} {'PRI':>4} {'WORKLOAD':<28} STATE")
    for job_id, tenant, priority, workload, state in rows:
        print(f"{job_id:<12} {tenant:<12} {priority:>4} {workload:<28} {state}")
    return 0


def cmd_status(root: ServiceRoot, args: argparse.Namespace) -> int:
    spec = root.read_spec(args.job_id)
    journals = _journals(root)
    info = journals.get(args.job_id)
    print(
        json.dumps(
            {
                "job_id": spec.job_id,
                "tenant": spec.tenant,
                "priority": spec.priority,
                "workload": spec.workload_ref(),
                "system": spec.system,
                "state": _offline_state(root, args.job_id, journals),
                "journal_events": 0 if info is None else info.events,
                "torn_tail": False if info is None else info.torn_tail,
            },
            indent=2,
        )
    )
    return 0


def cmd_result(root: ServiceRoot, args: argparse.Namespace) -> int:
    root.read_spec(args.job_id)  # raises UnknownJobError for bad ids
    path = root.journal_path(args.job_id)
    result = read_result(path) if path.exists() else None
    if result is None:
        print(f"job {args.job_id} has no result yet", file=sys.stderr)
        return 1
    payload = {
        "job_id": args.job_id,
        "workload": result.workload,
        "system": result.system,
        "best_time": repr(result.best_time),
        "best_config": (
            result.best_config.name if result.best_config else None
        ),
        "configs_evaluated": result.configs_evaluated,
        "tuning_seconds": repr(result.tuning_seconds),
    }
    if "budget" in result.extras:
        payload["budget"] = result.extras["budget"]
        payload["feasible"] = result.extras["feasible"]
        payload["cheapest_tier"] = result.extras["cheapest_tier"]
    print(json.dumps(payload, indent=2))
    return 0


def cmd_cancel(root: ServiceRoot, args: argparse.Namespace) -> int:
    root.mark_cancelled(args.job_id)
    print(f"{args.job_id} cancelled")
    return 0


def _parse_quota(text: str) -> tuple[str, TenantQuota]:
    """``tenant=max_concurrent[:max_pending]`` -> (tenant, quota)."""
    tenant, _, limits = text.partition("=")
    if not tenant or not limits:
        raise argparse.ArgumentTypeError(
            f"quota {text!r} is not tenant=max_concurrent[:max_pending]"
        )
    parts = limits.split(":")
    try:
        concurrent = int(parts[0])
        pending = int(parts[1]) if len(parts) > 1 else None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"quota {text!r} has non-integer limits"
        ) from None
    return tenant, TenantQuota(max_concurrent=concurrent, max_pending=pending)


def cmd_run(root: ServiceRoot, args: argparse.Namespace) -> int:
    quotas = dict(args.quota or [])
    server = TuningServer(
        root.root,
        workers=args.workers,
        executor=args.executor,
        quotas=quotas,
        cache_dir=args.cache_dir,
        aging=args.aging,
    )
    server.start()
    try:
        done = server.wait_all(timeout=args.timeout)
    finally:
        server.stop()
    rows = server.jobs()
    for row in rows:
        suffix = f" ({row['error']})" if row["error"] else ""
        resumed = " [resumed]" if row["resumed"] else ""
        print(f"{row['job_id']:<12} {row['state']}{resumed}{suffix}")
    if not done:
        print("timed out before all jobs finished", file=sys.stderr)
        return 1
    return 0 if all(r["state"] in ("done", "cancelled") for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serve.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--root", required=True, help="service root directory"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser("submit", help="enqueue one tuning job")
    submit.add_argument("--workload", required=True,
                        help="workload spec, e.g. tpch-sf1 or "
                             "synthetic:queries=200,scale=100")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--system", "--engine", dest="system",
                        default="postgres",
                        help="target backend, one of the registered "
                             "engines (e.g. postgres, mysql, columnar)")
    submit.add_argument("--budget", default=None,
                        metavar="ram=8GB,disk=100GB",
                        help="resource budget the recommended config "
                             "must fit under (default: latency-only)")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--num-configs", type=int, default=5)
    submit.add_argument("--token-budget", type=int, default=512)
    submit.add_argument("--timeout", type=float, default=10.0,
                        help="initial per-round timeout (simulated seconds)")
    submit.add_argument("--alpha", type=float, default=10.0)
    submit.add_argument("--job-id", default=None)
    submit.set_defaults(handler=cmd_submit)

    listing = commands.add_parser("list", help="list jobs and states")
    listing.add_argument("--tenant", default=None)
    listing.set_defaults(handler=cmd_list)

    status = commands.add_parser("status", help="one job's state")
    status.add_argument("job_id")
    status.set_defaults(handler=cmd_status)

    result = commands.add_parser("result", help="one job's tuning result")
    result.add_argument("job_id")
    result.set_defaults(handler=cmd_result)

    cancel = commands.add_parser("cancel", help="cancel a job")
    cancel.add_argument("job_id")
    cancel.set_defaults(handler=cmd_cancel)

    run = commands.add_parser(
        "run", help="start a server over the root and drain the queue"
    )
    run.add_argument("--workers", type=int, default=2)
    run.add_argument("--executor", choices=("thread", "process"),
                     default="thread",
                     help="where job bodies run: the worker threads "
                          "(default; one job at a time on the GIL) or a "
                          "process pool (jobs run in parallel, one per "
                          "core)")
    run.add_argument("--cache-dir", default=None,
                     help="shared cross-tenant artifact cache directory")
    run.add_argument("--aging", type=int, default=1,
                     help="priority points gained per dispatch waited")
    run.add_argument("--timeout", type=float, default=None,
                     help="per-job wait bound in wall seconds")
    run.add_argument("--quota", type=_parse_quota, action="append",
                     metavar="TENANT=CONCURRENT[:PENDING]",
                     help="per-tenant quota (repeatable)")
    run.set_defaults(handler=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root = ServiceRoot(args.root)
    try:
        return args.handler(root, args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via scripts/serve.py
    raise SystemExit(main())
