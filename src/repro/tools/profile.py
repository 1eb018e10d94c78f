"""Per-stage timing of one RL episode: where does a step's time go?

Breaks an episode down into the stages the environment runs — pass
pipeline (``apply``), codegen size, MCA scheduling, IR2Vec embedding,
fingerprinting — and prints a table of per-stage totals plus the metrics
engine's cache counters. A function-record miss builds the record (size,
MCA and embedding together) inside the ``codegen`` stage.

``--train N`` switches to the training-throughput harness: it runs one
training loop — ``--train-mode`` picks the vectorized loop (default;
``--n-envs 1`` is the paper's one-env-at-a-time loop) or the distributed
actor-learner pipeline, ``--algo`` picks the learner (ddqn / dqn /
prioritized-ddqn / ppo) — for N environment steps over the selected
corpus and prints the :class:`~repro.core.agent_api.TrainThroughput`
report (steps/sec, episodes/sec, training updates). ``--compare-serial``
additionally times the same loop at ``n_envs=1`` on the same budget and
prints the speedup; distributed runs also print the pipeline report
(broadcasts, snapshot staleness, per-actor rates) and
``--fail-on-no-broadcast`` turns a broadcast-free or unclean run into a
nonzero exit for CI.

Examples::

    python -m repro.tools.profile input.ll
    python -m repro.tools.profile --suite mibench --benchmark susan
    python -m repro.tools.profile --steps 30 input.ll
    python -m repro.tools.profile --episodes 5 input.ll   # repeat to see hits
    python -m repro.tools.profile --suite mibench --train 480 --n-envs 8
    python -m repro.tools.profile --suite mibench --train 480 --n-envs 8 \\
        --compare-serial
    python -m repro.tools.profile --suite mibench --train 120 \\
        --train-mode distributed --actors 2 --algo prioritized-ddqn \\
        --fail-on-no-broadcast
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from ..codegen.target import TARGETS
from ..core.environment import PhaseOrderingEnv, make_action_space
from ..core.metrics import MetricsEngine
from ..ir.parser import parse_module
from ..workloads.suites import load_suite


class _StageClock:
    """Accumulates wall time and call counts per stage."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def timed(self, stage: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.totals[stage] = self.totals.get(stage, 0.0) + elapsed
        self.calls[stage] = self.calls.get(stage, 0) + 1
        return result


def _instrument(env, engine: MetricsEngine, clock: _StageClock) -> None:
    """Route the env's stage calls through the clock.

    Wraps the engine's bound methods (and ``ActionSpace.apply``) on the
    *instances*, so the episode runs through the real ``env.step`` path —
    including the transition cache, whose hits show up as stages simply
    not being called.
    """
    stages = (
        ("passes", env.action_space, "apply"),
        ("codegen", engine, "size"),
        ("mca", engine, "throughput"),
        ("embedding", engine, "embedding"),
        ("fingerprint", engine, "fingerprint"),
    )
    for stage, obj, attr in stages:
        original = getattr(obj, attr)

        def wrapped(*args, _stage=stage, _fn=original, **kwargs):
            return clock.timed(_stage, _fn, *args, **kwargs)

        setattr(obj, attr, wrapped)


def _profile_episode(env, actions) -> None:
    env.reset()
    for action in actions:
        env.step(action)


def _print_cache_counters(stats) -> None:
    print("\ncache counters:")
    for name in ("functions", "transitions"):
        counters = stats[name]
        print(f"  {name:<12} hits={counters['hits']:<8.0f} "
              f"misses={counters['misses']:<8.0f} "
              f"evictions={counters['evictions']:<6.0f} "
              f"hit_rate={counters['hit_rate']:.2%}")
    flat = stats["flat"]
    print(f"  {'flat views':<12} builds={flat['builds']:<6.0f} "
          f"row_rebuilds={flat['row_rebuilds']:.0f}")


def _print_throughput(label: str, report) -> None:
    print(f"{label:<12} steps={report.total_steps:<7} "
          f"episodes={report.episodes:<5} wall={report.wall_seconds:>8.3f}s  "
          f"steps/s={report.steps_per_second:>8.1f}  "
          f"episodes/s={report.episodes_per_second:>7.2f}  "
          f"updates={report.train_updates}")


def _print_distributed_report(report) -> None:
    print(f"{'pipeline':<12} broadcasts={report.broadcasts:<4} "
          f"mean_staleness={report.mean_staleness:>6.1f}  "
          f"max_staleness={report.max_staleness:<5} "
          f"clean_drain={report.clean_drain}")
    for actor_id, rate in sorted(report.actor_steps_per_second.items()):
        print(f"{'actor ' + str(actor_id):<12} steps/s={rate:>8.1f}")
    if report.priority_stats:
        ps = report.priority_stats
        print(f"{'priorities':<12} total={ps['total']:>10.3f}  "
              f"mean={ps['mean']:>8.4f}  max={ps['max']:>8.4f}")


def _run_train_harness(args, corpus) -> int:
    """Time one training mode (vectorized / distributed)."""
    from ..core.agent_api import PosetRL

    def make_agent() -> PosetRL:
        return PosetRL(
            action_space=args.action_space,
            target=args.target,
            episode_length=max(args.steps, 1),
            algo=args.algo,
            seed=args.seed,
        )

    print(f"training-throughput harness: {args.train} steps, "
          f"mode={args.train_mode}, algo={args.algo}, "
          f"n_envs={args.n_envs}, actors={args.actors}, "
          f"corpus={len(corpus)} module(s)")
    agent = make_agent()
    if args.train_mode == "distributed":
        agent.train_distributed(
            corpus, total_steps=args.train, actors=args.actors,
            chunk_size=args.chunk_size, broadcast_every=args.broadcast_every,
        )
        report = agent.last_distributed_report
        _print_throughput("distributed", agent.last_train_throughput)
        _print_distributed_report(report)
        if args.fail_on_no_broadcast and (
            report.broadcasts == 0 or not report.clean_drain
        ):
            print("FAIL: no weight broadcast reached an actor or the drain "
                  "was not clean", file=sys.stderr)
            return 1
    else:
        agent.train_vectorized(
            corpus, total_steps=args.train, n_envs=args.n_envs
        )
        _print_throughput("vectorized", agent.last_train_throughput)
    if args.compare_serial:
        fast = agent.last_train_throughput
        serial_agent = make_agent()
        serial_agent.train_vectorized(corpus, total_steps=args.train, n_envs=1)
        serial = serial_agent.last_train_throughput
        _print_throughput("serial", serial)
        if serial.steps_per_second:
            print(f"speedup: {fast.steps_per_second / serial.steps_per_second:.2f}x "
                  f"({args.train_mode} vs serial steps/sec)")
    _print_cache_counters(agent.cache_stats())
    return 0


def _maybe_export_metrics(args) -> None:
    if getattr(args, "metrics_out", None):
        from ..observability import export_snapshot

        export_snapshot(args.metrics_out)
        print(f"metrics snapshot -> {args.metrics_out}")


def run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-profile", description=__doc__)
    parser.add_argument("--target", default="x86-64",
                        choices=sorted(set(TARGETS)))
    parser.add_argument("--action-space", default="odg",
                        choices=("odg", "manual"))
    parser.add_argument("--steps", type=int, default=15,
                        help="actions per episode (default 15)")
    parser.add_argument("--episodes", type=int, default=1,
                        help="episodes to run (repeats expose cache hits)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suite", help="profile a workload-suite benchmark "
                        "instead of an input file")
    parser.add_argument("--benchmark",
                        help="benchmark name within --suite (default: first)")
    parser.add_argument("--train", type=int, metavar="STEPS",
                        help="run the training-throughput harness for this "
                        "many environment steps instead of stage profiling")
    parser.add_argument("--train-mode", default="vectorized",
                        choices=("vectorized", "distributed"),
                        help="training loop for --train (default vectorized)")
    parser.add_argument("--algo", default="ddqn",
                        choices=("ddqn", "dqn", "prioritized-ddqn", "ppo"),
                        help="learning algorithm for --train (default ddqn)")
    parser.add_argument("--n-envs", type=int, default=8,
                        help="vector width for --train (default 8)")
    parser.add_argument("--actors", type=int, default=2,
                        help="actor processes for --train-mode distributed "
                        "(default 2)")
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="transitions per actor rollout chunk "
                        "(default: one episode)")
    parser.add_argument("--broadcast-every", type=int, default=2,
                        help="re-broadcast learner weights to an actor after "
                        "this many of its chunks (default 2)")
    parser.add_argument("--fail-on-no-broadcast", action="store_true",
                        help="with --train-mode distributed: exit nonzero "
                        "unless at least one weight broadcast reached an "
                        "actor and every actor drained cleanly")
    parser.add_argument("--compare-serial", action="store_true",
                        help="with --train: also time the n_envs=1 loop on "
                        "the same budget and print the speedup")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="enable observability and write a metrics/trace "
                        "snapshot to this JSON file (render it with "
                        "python -m repro.tools.stats)")
    parser.add_argument("input", nargs="?",
                        help="textual IR file (- for stdin)")
    args = parser.parse_args(argv)

    # Enable before any env/engine is constructed: instruments are bound
    # at construction time (see repro.observability).
    if args.metrics_out:
        from ..observability import enable as enable_observability

        enable_observability()

    if args.suite:
        try:
            suite_corpus = load_suite(args.suite)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 1
        if args.benchmark:
            matches = [(n, m) for n, m in suite_corpus if n == args.benchmark]
            if not matches:
                names = ", ".join(n for n, _ in suite_corpus)
                print(f"no benchmark {args.benchmark!r} in {args.suite} "
                      f"(have: {names})", file=sys.stderr)
                return 1
            corpus = matches
        else:
            corpus = list(suite_corpus)
        module = corpus[0][1]
    elif args.input:
        text = sys.stdin.read() if args.input == "-" else open(args.input).read()
        module = parse_module(text)
        corpus = [(args.input, module)]
    else:
        parser.error("provide an input file or --suite")

    if args.train:
        rc = _run_train_harness(args, corpus)
        _maybe_export_metrics(args)
        return rc

    action_space = make_action_space(args.action_space)
    import numpy as np

    rng = np.random.RandomState(args.seed)
    actions = [int(rng.randint(len(action_space))) for _ in range(args.steps)]

    engine = MetricsEngine(args.target)
    env = PhaseOrderingEnv(
        module,
        action_space=action_space,
        target=args.target,
        episode_length=max(args.steps, 1),
        metrics=engine,
    )
    clock = _StageClock()
    _instrument(env, engine, clock)
    start = time.perf_counter()
    for _ in range(args.episodes):
        _profile_episode(env, actions)
    wall = time.perf_counter() - start

    print(f"profile: {args.episodes} episode(s) x {args.steps} steps "
          f"(target {args.target})")
    print(f"{'stage':<12} {'total s':>10} {'calls':>7} {'ms/call':>9} {'share':>7}")
    for stage in ("passes", "codegen", "mca", "embedding", "fingerprint"):
        total = clock.totals.get(stage, 0.0)
        calls = clock.calls.get(stage, 0)
        per = 1000.0 * total / calls if calls else 0.0
        share = 100.0 * total / wall if wall else 0.0
        print(f"{stage:<12} {total:>10.4f} {calls:>7} {per:>9.3f} {share:>6.1f}%")
    print(f"{'wall':<12} {wall:>10.4f}")
    _print_cache_counters(engine.stats())
    _maybe_export_metrics(args)
    return 0


def main() -> int:  # pragma: no cover - console entry
    try:
        return run()
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
