"""Per-stage timing of one RL episode: where does a step's time go?

Breaks an episode down into the stages the environment runs — pass
pipeline (``apply``), the episode's one module clone, codegen size, MCA
scheduling, IR2Vec embedding, fingerprinting (per-function hashes and the
module digest) — and prints a table of per-stage totals plus the metrics
engine's cache counters. A function-record miss builds the record (size,
MCA and embedding together) inside the ``codegen`` stage.

``--train N`` switches to the training-throughput harness: it runs
:meth:`~repro.core.agent_api.PosetRL.train` (``--algo`` picks the
learner: ddqn / dqn / prioritized-ddqn / ppo) for at least N environment
steps — N rounded up to whole episodes — over the selected corpus and
prints the :class:`~repro.core.agent_api.TrainThroughput` report
(steps/sec, episodes/sec, training updates).

Examples::

    python -m repro.tools.profile input.ll
    python -m repro.tools.profile --suite mibench --benchmark susan
    python -m repro.tools.profile --steps 30 input.ll
    python -m repro.tools.profile --episodes 5 input.ll   # repeat to see hits
    python -m repro.tools.profile --suite mibench --train 480
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
from . import read_input


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

    Wraps the engine's, the action space's and the input's methods on the
    *instances*, so the episode runs through the real ``env.step`` path —
    including the transition cache, whose hits show up as stages simply
    not being called.
    """
    stages = (
        ("passes", env.action_space, "apply"),
        ("clone", env.original, "clone"),
        ("codegen", engine, "size"),
        ("mca", engine, "throughput"),
        ("embedding", engine, "embedding"),
        ("fingerprint", engine, "function_fingerprints"),
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


def _run_train_harness(args, corpus) -> None:
    """Time the training loop."""
    from ..core.agent_api import PosetRL

    agent = PosetRL(
        action_space=args.action_space,
        target=args.target,
        episode_length=max(args.steps, 1),
        algo=args.algo,
        seed=args.seed,
    )
    episodes = -(-args.train // agent.episode_length)
    print(f"training-throughput harness: {episodes} episode(s) x "
          f"{agent.episode_length} steps, algo={args.algo}, "
          f"corpus={len(corpus)} module(s)")
    agent.train(corpus, episodes=episodes)
    report = agent.last_train_throughput
    print(f"{'train':<12} steps={report.total_steps:<7} "
          f"episodes={report.episodes:<5} wall={report.wall_seconds:>8.3f}s  "
          f"steps/s={report.steps_per_second:>8.1f}  "
          f"episodes/s={report.episodes_per_second:>7.2f}  "
          f"updates={report.train_updates}")
    _print_cache_counters(agent.cache_stats())


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
                        "many environment steps, rounded up to whole "
                        "episodes, instead of stage profiling")
    parser.add_argument("--algo", default="ddqn",
                        choices=("ddqn", "dqn", "prioritized-ddqn", "ppo"),
                        help="learning algorithm for --train (default ddqn)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="enable observability and write a metrics/trace "
                        "snapshot to this JSON file (render it with "
                        "python -m repro.tools.stats)")
    parser.add_argument("input", nargs="?",
                        help="textual IR file (- for stdin)")
    args = parser.parse_args(argv)
    if args.train is not None and args.train <= 0:
        parser.error("--train takes a positive number of steps")

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
        text = read_input(args.input)
        module = parse_module(text)
        corpus = [(args.input, module)]
    else:
        parser.error("provide an input file or --suite")

    if args.train is not None:
        _run_train_harness(args, corpus)
        _maybe_export_metrics(args)
        return 0

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
    for stage in ("passes", "clone", "codegen", "mca", "embedding",
                  "fingerprint"):
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
