"""Load harness for the batched optimization service and sharded gateway.

Builds an :class:`~repro.serving.OptimizationService` (from a checkpoint
or a freshly-seeded policy) — or, with ``--shards N``, a
:class:`~repro.serving.ShardedGateway` over N worker subprocesses —
drives it with closed-loop clients over a benchmark suite, and reports
throughput, p50/p95/p99 latency and the service's guard/cache counters.

``--arrival-rate R`` switches to the **open-loop** harness: Poisson
arrivals offered at R req/s regardless of completions, with optional
bursts (``--burst-factor/--burst-every/--burst-duty``) and a tenant mix
(``--tenants``, rate-limited per tenant via ``--tenant-rate``). This is
the overload mode: expect nonzero shed and bounded p99 rather than
lossless service.

Examples::

    python -m repro.tools.serve --suite mibench --requests 64 --concurrency 8
    python -m repro.tools.serve --suite mibench --checkpoint model.npz \\
        --requests 128 --concurrency 8
    python -m repro.tools.serve --suite spec2017 --requests 24 \\
        --no-result-cache --json results.json
    python -m repro.tools.serve --suite mibench --requests 12 \\
        --fail-on-fallback     # CI smoke mode
    python -m repro.tools.serve --suite mibench --shards 4 --requests 128
    python -m repro.tools.serve --suite mibench --shards 2 \\
        --arrival-rate 40 --duration 10 --burst-factor 4 --burst-every 2 \\
        --tenants 3 --tenant-rate 10 --max-pending 32
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional

from ..codegen.target import TARGETS
from ..core.agent_api import PosetRL
from ..ir.printer import print_module
from ..observability import enable as enable_observability, export_snapshot
from ..serving import (
    OptimizationService,
    ShardedGateway,
    TenantMix,
    request_pool,
    run_load,
    run_open_loop,
)
from ..workloads.suites import load_suite


def build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-serve", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suite", default="mibench",
                        help="workload suite for the request pool "
                        "(default mibench)")
    parser.add_argument("--checkpoint",
                        help="serve this .npz checkpoint (default: a "
                        "freshly-initialized policy)")
    parser.add_argument("--action-space", choices=("odg", "manual"),
                        default=None,
                        help="override the checkpoint's action space")
    parser.add_argument("--target", default="x86-64",
                        choices=sorted(set(TARGETS)))
    parser.add_argument("--requests", type=int, default=64,
                        help="total requests to send (default 64)")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="closed-loop client threads (default 8)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="scheduler batch width (default 8)")
    parser.add_argument("--window-ms", type=float, default=5.0,
                        help="batch-forming window in ms (default 5)")
    parser.add_argument("--timeout-s", type=float, default=60.0,
                        help="per-request wall-clock deadline (default 60)")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="disable the fingerprint result cache")
    parser.add_argument("--semantic-check", action="store_true",
                        help="run every optimized module in the reference "
                        "interpreter against the original and fall back to "
                        "-Oz on observable behaviour changes")
    parser.add_argument("--no-warmup", action="store_true",
                        help="skip the untimed warm-up pass over the "
                        "distinct modules")
    parser.add_argument("--fail-on-fallback", action="store_true",
                        help="exit non-zero if any request fell back to -Oz "
                        "or was rejected (CI smoke gate); gateway sheds "
                        "under an open-loop overload do not count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", dest="json_path",
                        help="also write the report as JSON to this path")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="enable observability and write a metrics/trace "
                        "snapshot to this JSON file (render it with "
                        "python -m repro.tools.stats); with --shards, each "
                        "worker writes PATH with a -shardN stem suffix too")
    parser.add_argument("--learn", action="store_true",
                        help="tap verified rollouts into an experience "
                        "journal for closed-loop learning (see "
                        "python -m repro.tools.learn and docs/LEARNING.md)")
    parser.add_argument("--journal-dir", metavar="DIR",
                        help="experience journal directory for --learn "
                        "(default: a fresh temp dir, printed at startup)")

    gateway = parser.add_argument_group("sharded gateway")
    gateway.add_argument("--shards", type=int, default=0,
                         help="serve through a ShardedGateway with this many "
                         "worker subprocesses (default 0: single in-process "
                         "service)")
    gateway.add_argument("--max-pending", type=int, default=64,
                         help="gateway admission window: in-flight requests "
                         "beyond this are shed (default 64)")
    gateway.add_argument("--tenant-rate", type=float, default=None,
                         help="token-bucket rate limit per tenant, req/s "
                         "(default: unlimited)")
    gateway.add_argument("--tenant-burst", type=float, default=None,
                         help="token-bucket burst capacity per tenant "
                         "(default: max(1, rate))")

    openloop = parser.add_argument_group("open-loop traffic")
    openloop.add_argument("--arrival-rate", type=float, default=None,
                          help="offer Poisson traffic at this rate (req/s) "
                          "instead of closed-loop clients")
    openloop.add_argument("--duration", type=float, default=None,
                          help="open-loop run length in seconds (default: "
                          "--requests arrivals)")
    openloop.add_argument("--burst-factor", type=float, default=1.0,
                          help="multiply the arrival rate by this during "
                          "bursts (default 1: no bursts)")
    openloop.add_argument("--burst-every", type=float, default=0.0,
                          help="burst window period in seconds (default 0: "
                          "no bursts)")
    openloop.add_argument("--burst-duty", type=float, default=0.5,
                          help="fraction of each window spent bursting "
                          "(default 0.5)")
    openloop.add_argument("--tenants", type=int, default=1,
                          help="number of equal-weight tenants in the "
                          "open-loop mix (default 1)")
    return parser


def _make_tap(journal_dir: str):
    from ..learning import ExperienceJournal, ExperienceTap

    return ExperienceTap(ExperienceJournal(
        os.path.join(journal_dir, "service"), segment_size=64
    ))


def _shard_metrics_template(path: str) -> str:
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return path + "-shard{shard}"
    return f"{stem}-shard{{shard}}.{ext}"


def run(argv: Optional[List[str]] = None) -> int:
    args = build_argparser().parse_args(argv)

    # Must happen before the service is constructed: instruments are
    # bound at construction time (see repro.observability).
    if args.metrics_out:
        enable_observability()

    try:
        suite = load_suite(args.suite)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 1
    corpus = [(name, print_module(module)) for name, module in suite]

    service_kwargs = dict(
        max_batch=args.max_batch,
        batch_window_s=args.window_ms / 1e3,
        request_timeout_s=args.timeout_s,
        result_cache_size=None if args.no_result_cache else 1024,
        include_ir=False,
        semantic_check=args.semantic_check,
    )

    journal_dir: Optional[str] = None
    if args.learn or args.journal_dir:
        journal_dir = args.journal_dir or tempfile.mkdtemp(
            prefix="repro-journal-"
        )
        print(f"experience journal: {journal_dir} "
              f"(train from it with python -m repro.tools.learn)")

    if args.shards > 0:
        gateway_kwargs = dict(
            max_pending=args.max_pending,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            shard_metrics_template=(
                _shard_metrics_template(args.metrics_out)
                if args.metrics_out else None
            ),
            **service_kwargs,
        )
        if journal_dir is not None:
            gateway_kwargs["journal_dir"] = journal_dir
        if args.checkpoint:
            target = ShardedGateway.from_checkpoint(
                args.checkpoint, args.shards,
                action_space=args.action_space,
                target=args.target,
                **gateway_kwargs,
            )
        else:
            agent = PosetRL(
                action_space=args.action_space or "odg",
                target=args.target, seed=args.seed,
            )
            target = ShardedGateway.from_agent(
                agent, args.shards, **gateway_kwargs
            )
        model_desc = (f"{target.model_version} "
                      f"({target.spec.action_space}) x{args.shards} shards")
        model_info = {
            "version": target.model_version,
            "action_space": target.spec.action_space,
            "shards": args.shards,
        }
    elif args.checkpoint:
        if journal_dir is not None:
            service_kwargs["experience_tap"] = _make_tap(journal_dir)
        target = OptimizationService.from_checkpoint(
            args.checkpoint,
            action_space=args.action_space,
            target=args.target,
            **service_kwargs,
        )
    else:
        if journal_dir is not None:
            service_kwargs["experience_tap"] = _make_tap(journal_dir)
        agent = PosetRL(
            action_space=args.action_space or "odg",
            target=args.target, seed=args.seed,
        )
        target = OptimizationService.from_agent(agent, **service_kwargs)

    if args.shards <= 0:
        model = target.registry.active
        model_desc = f"{model.version} ({model.action_space_kind})"
        model_info = model.describe()

    requests = request_pool(corpus, args.requests)
    open_loop = args.arrival_rate is not None
    with target:
        if not args.no_warmup:
            run_load(
                target,
                request_pool(corpus, len(corpus)),
                concurrency=args.concurrency,
            )
        if open_loop:
            tenants = [
                TenantMix(f"tenant{i}") for i in range(max(1, args.tenants))
            ]
            report = run_open_loop(
                target,
                requests,
                arrival_rate=args.arrival_rate,
                total=None if args.duration else args.requests,
                duration_s=args.duration,
                seed=args.seed,
                burst_factor=args.burst_factor,
                burst_every_s=args.burst_every,
                burst_duty=args.burst_duty,
                tenants=tenants,
                result_timeout_s=args.timeout_s + 60.0,
            )
        else:
            report = run_load(target, requests, concurrency=args.concurrency)
        stats = target.stats()

    print(f"serving load report: suite={args.suite} "
          f"model={model_desc} target={args.target}")
    if open_loop:
        print(f"  open-loop: offered={report.offered} "
              f"({report.offered_rps:.1f} req/s offered, "
              f"rate={args.arrival_rate:.1f}) wall={report.wall_seconds:.3f}s")
        print(f"  goodput={report.goodput_rps:.1f} req/s "
              f"shed={report.shed} ({100 * report.shed_rate:.1f}%) "
              f"max_in_flight={report.max_in_flight}")
        print(f"  served latency p50={report.p50_ms:.2f}ms "
              f"p95={report.p95_ms:.2f}ms p99={report.p99_ms:.2f}ms")
        if len(report.per_tenant) > 1:
            for tenant, tstats in sorted(report.per_tenant.items()):
                print(f"    {tenant}: {tstats}")
    else:
        print(f"  requests={report.requests} "
              f"concurrency={report.concurrency} "
              f"max_batch={args.max_batch} window={args.window_ms:.1f}ms")
        print(f"  wall={report.wall_seconds:.3f}s "
              f"throughput={report.throughput_rps:.1f} req/s")
        print(f"  latency p50={report.p50_ms:.2f}ms p95={report.p95_ms:.2f}ms "
              f"p99={report.p99_ms:.2f}ms")
    print(f"  statuses={report.status_counts} cache_hits={report.cache_hits}")

    if args.shards > 0:
        gw_stats = stats.as_dict()
        print(f"  gateway counters: {gw_stats['counters']}")
        if gw_stats["shed_reasons"]:
            print(f"  shed reasons: {gw_stats['shed_reasons']}")
        payload_stats = gw_stats
        guard_errors = {}
    else:
        if stats["errors"]:
            print(f"  guard counters: {stats['errors']}")
        payload_stats = stats
        guard_errors = stats["errors"]

    payload = {
        "suite": args.suite,
        "target": args.target,
        "model": model_info,
        "shards": args.shards,
        "load": report.as_dict(),
        "service_stats": payload_stats,
    }

    if args.json_path:
        with open(args.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, default=str)

    if args.metrics_out:
        export_snapshot(args.metrics_out)
        print(f"  metrics snapshot -> {args.metrics_out}")
        if args.shards > 0:
            template = _shard_metrics_template(args.metrics_out)
            shard_paths = " ".join(
                template.format(shard=i) for i in range(args.shards)
            )
            print(f"  per-shard snapshots -> {shard_paths}")
            print(f"  merge: python -m repro.tools.stats "
                  f"{args.metrics_out} {shard_paths}")

    if args.fail_on_fallback:
        bad = report.status_counts.get("fallback", 0)
        rejected = report.status_counts.get("rejected", 0)
        if open_loop:
            # Sheds are the admission control working as designed under
            # offered overload; only hard rejections count against CI.
            rejected = max(0, rejected - getattr(report, "shed", 0))
        bad += rejected
        if bad:
            print(f"FAIL: {bad} request(s) fell back or were rejected "
                  f"(guard counters: {guard_errors})", file=sys.stderr)
            return 1
        print("  no fallbacks, no rejections")
    return 0


def main() -> int:  # pragma: no cover - console entry
    try:
        return run()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
