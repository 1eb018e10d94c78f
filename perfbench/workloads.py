"""The three benchmark workloads: ``train``, ``compile`` and ``serve``.

Each workload is single-process and seeded. ``setup()`` builds every
input from the workload seed (it is timed and repeated by the runner);
``measure()`` runs the timed work and returns a :class:`Measurement`;
``check()`` verifies the outputs outside the timed region. A failure
inside one operation is counted in the measurement, never raised.

Why these workloads:

* ``train`` is the only one where the learner (``rl``) does most of the
  work and the transition cache sees revisits.
* ``compile`` is cold greedy compilation: passes dominate, the policy
  forward is about 1% of wall time, and ``aarch64`` exercises the second
  codegen/MCA cost tables.
* ``serve`` is the only one that parses, admits, reads the result cache,
  micro-batches, and runs with the metric registry enabled.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import observability
from repro.core import PosetRL, optimize_with_oz, quick_config, scaled_config
from repro.core.evaluate import measure as measure_module
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.rl.dqn import AgentConfig
from repro.serving import OptimizationService
from repro.testing.oracle import modules_equivalent
from repro.workloads import llvm_test_suite, mibench, spec2006, spec2017

from speed import SpeedProbe

#: Maps a wall interval ``(start, end)`` to the seconds it counts as.
SecondsOf = Callable[[float, float], float]

#: The two paper targets.
TARGETS = ("x86-64", "aarch64")

#: Share of ``serve`` requests that repeat an already-sent program. Kept
#: well away from 1/2, where the median would sit on the boundary between
#: sub-millisecond cache hits and tens-of-milliseconds rollouts.
REPEAT_SHARE = 1.0 / 3.0

#: Zipf exponent for choosing which earlier program a repeat re-sends.
ZIPF_A = 1.5


@dataclass(frozen=True)
class Size:
    """How much work one run does. ``FULL`` is the benchmark; ``SMOKE``
    runs the same code path in seconds for the benchmark's own tests."""

    train_programs: int
    train_episodes: int
    train_config: Callable[[], AgentConfig]
    policy_programs: int
    policy_episodes: int
    policy_config: Callable[[], AgentConfig]
    compile_programs: Optional[int]
    serve_requests_per_s: float
    serve_min_requests: int
    min_rounds: int


def _smoke_config() -> AgentConfig:
    return replace(
        scaled_config(), hidden=(32, 16), batch_size=16, min_replay=16,
    )


FULL = Size(
    train_programs=20,
    train_episodes=40,
    train_config=scaled_config,
    policy_programs=20,
    policy_episodes=12,
    policy_config=quick_config,
    compile_programs=None,
    serve_requests_per_s=40.0,
    serve_min_requests=240,
    min_rounds=3,
)

SMOKE = Size(
    train_programs=4,
    train_episodes=3,
    train_config=_smoke_config,
    policy_programs=3,
    policy_episodes=3,
    policy_config=_smoke_config,
    compile_programs=2,
    serve_requests_per_s=0.0,
    serve_min_requests=12,
    min_rounds=1,
)


#: Workload seeds are taken modulo this, so every derived seed (agent,
#: program profiles) stays a valid 32-bit RNG seed.
SEED_RANGE = 100_000


def corpus_base(seed: int) -> int:
    """First profile seed of the workload's ``llvm_test_suite`` draws.

    Program ``i`` of a draw uses profile seed ``base + i``, so the draws
    of different workload seeds never overlap, nor do they overlap the
    paper's training corpus (profile seeds from 9000) that the policy and
    ``train`` use.
    """
    return 100_000 + 10_000 * seed


@dataclass
class Measurement:
    """What one ``measure()`` call observed."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    #: ``(start, end)`` of each round, for trace overhead (one round
    #: traced vs one untraced).
    round_spans: List[Tuple[float, float]] = field(default_factory=list)
    #: ``MetricsEngine.stats()`` of every engine the timed work used.
    engine_stats: List[Dict[str, Dict[str, float]]] = field(
        default_factory=list
    )
    errors: List[str] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)
    #: Peak RSS through set-up and the first round. Later rounds repeat
    #: the same work, but the heap they leave behind grows with how many
    #: of them fit in the run, so they would make the peak machine-speed
    #: dependent.
    peak_rss_mb: float = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def _error_text(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


def _digest(items: Sequence[Any]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


Intervals = List[Tuple[float, float]]


def _median_round_s(per_round: List[Intervals], seconds_of: SecondsOf) -> float:
    """Median over rounds of a round's summed item times."""
    return statistics.median(
        sum(seconds_of(*item) for item in items) for items in per_round
    )


def _item_latencies(per_round: List[List[float]]) -> List[float]:
    """Each item's median latency over the rounds (every round runs the
    same items in the same order). Percentiles of these are steadier
    than of all rounds' samples pooled, where one slowed run of a large
    item moves the tail: the pooled ``compile`` p95 spread 22% between
    quartiles over ten seeds."""
    return [statistics.median(times) for times in zip(*per_round)]


def _latency_metrics(latencies: List[float]) -> Dict[str, float]:
    """``op_p50_ms`` / ``op_p95_ms``: nearest-rank percentiles of
    operation latencies given in seconds."""
    ordered = sorted(latencies)
    return {
        "op_p50_ms": 1e3 * _nearest_rank(ordered, 0.50),
        "op_p95_ms": 1e3 * _nearest_rank(ordered, 0.95),
    }


class CheckFailed(Exception):
    """An output failed its check."""


def _output_row(name: str, target: str, module, optimized,
                oz: Dict[str, float]) -> Dict[str, Any]:
    """Checks one optimized output (verifier, then the reference
    interpreter against its unoptimized original) and measures it
    against its ``-Oz`` reference. Raises when a check fails."""
    verify_module(optimized)
    mismatch = modules_equivalent(module, optimized)
    if mismatch is not None:
        raise CheckFailed(f"miscompile: {mismatch}")
    got = measure_module(optimized, target)
    return {
        "program": name,
        "target": target,
        "bytes": int(got["size"]),
        "oz_bytes": int(oz["size"]),
        "cycles": got["cycles"],
        "oz_cycles": oz["cycles"],
    }


def _quality_metrics(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """The workload's checked outputs against ``-Oz``, taken as one
    suite: total bytes over total ``-Oz`` bytes, and total ``-Oz`` cycles
    over total cycles (MCA throughput is 1e9 / cycles)."""
    return {
        "size_ratio_vs_oz": (
            sum(r["bytes"] for r in rows) / sum(r["oz_bytes"] for r in rows)
        ),
        "throughput_ratio_vs_oz": (
            sum(r["oz_cycles"] for r in rows) / sum(r["cycles"] for r in rows)
        ),
    }


def _quality_record(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Geomeans of the per-output ratios, for the run record."""
    return {
        "outputs_checked": len(rows),
        "size_ratio_geomean": _geomean(
            r["bytes"] / r["oz_bytes"] for r in rows
        ),
        "throughput_ratio_geomean": _geomean(
            r["oz_cycles"] / r["cycles"] for r in rows
        ),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat_rounds(
    m: Measurement, seconds: float, rounds: Optional[int], min_rounds: int,
    one_round: Callable[[Measurement], None],
) -> None:
    """Run identical rounds: exactly ``rounds`` of them when given, else
    at least ``min_rounds`` and until ``seconds`` have passed."""
    start = time.perf_counter()
    while True:
        gc.collect()  # each round starts from the same heap
        one_round(m)
        m.rounds += 1
        if m.rounds == 1:
            m.peak_rss_mb = peak_rss_mb()
        if rounds is not None:
            if m.rounds >= rounds:
                break
        elif (m.rounds >= min_rounds
              and time.perf_counter() - start >= seconds):
            break


def _train_policy(size: Size) -> PosetRL:
    """The short training run whose policy ``compile`` and ``serve`` use.

    Its seed and corpus (the first programs of the paper's training
    corpus) are fixed, so its weights are identical on every run: the
    policy decides how much pass work every program gets, and a policy
    that changed with the workload seed would swing compile throughput
    and quality by 2x from seed to seed.
    """
    draw = llvm_test_suite(size.policy_programs)
    agent = PosetRL(seed=0, agent_config=size.policy_config())
    agent.train(draw, episodes=size.policy_episodes)
    return agent


def _validation_suite(size: Size) -> List[Tuple[str, Any]]:
    """The paper's validation programs (``mibench``, ``spec2006``,
    ``spec2017``), cut to ``size.compile_programs`` when that is set."""
    suite = mibench() + spec2006() + spec2017()
    if size.compile_programs is not None:
        suite = suite[: size.compile_programs]
    return suite


# -- train -------------------------------------------------------------------
class TrainWorkload:
    """Serial ε-greedy Double-DQN training with ``PosetRL.train``.

    One round trains a fresh facade on the first programs of the
    paper's ``llvm_test_suite`` training corpus, one ``train`` call per
    episode: untimed episodes first fill the replay memory to
    ``min_replay``, then a fixed count of timed episodes, every program
    the same number of times, all run learner updates. Every round is
    identical. The seed orders the episodes and is the facade's
    (exploration and initial weights).

    Letting the facade draw each episode's program made the program mix,
    and so steps/s and the tail latency, differ by seed (13-17% between
    quartiles over ten seeds). Timing the fill too made the latencies
    bimodal: under ``scaled_config`` the first 34 episodes run no learner
    update and the next ones one per step, and the median sat between
    the two (24% between quartiles).

    An operation is one timed environment step, learner update included;
    its latency is the per-step time of the episode it belongs to. The
    outputs are the modules the first round's timed episodes ended on:
    each is rebuilt from its action sequence, checked, and compared with
    ``-Oz``.
    """

    name = "train"

    def __init__(self, seed: int, size: Size, seconds: float,
                 probe: SpeedProbe):
        self.seed = seed
        self.size = size
        self.probe = probe
        self.draw: List[Tuple[str, Any]] = []
        #: index into ``draw`` of each untimed and each timed episode's
        #: program
        self.fill: List[int] = []
        self.schedule: List[int] = []
        self.rounds: List[List[float]] = []  # per-episode rewards
        #: ``(program, actions, final size)`` of the first round's episodes
        self.episodes: List[Tuple[str, List[int], int]] = []
        self.rows: List[Dict[str, Any]] = []

    def _facade(self) -> PosetRL:
        return PosetRL(seed=self.seed, agent_config=self.size.train_config())

    def setup(self) -> None:
        self.draw = llvm_test_suite(self.size.train_programs)
        warm = self._facade()
        fill = -(-self.size.train_config().min_replay // warm.episode_length)
        rng = np.random.RandomState(self.seed)
        self.fill, self.schedule = [
            [int(i) for i in rng.permutation(
                [e % len(self.draw) for e in range(episodes)]
            )]
            for episodes in (fill, self.size.train_episodes)
        ]
        # Warm up on a fixed program: a seeded draw would make set-up time
        # depend on which program the seed picks.
        warm.train(self.draw[:1], episodes=1)

    def _round(self, m: Measurement) -> Optional[Intervals]:
        """Train one fresh facade; returns each episode's wall interval,
        or None when the round failed."""
        agent = self._facade()
        episodes = len(self.fill) + len(self.schedule)
        m.attempted += episodes
        self.probe.probe()
        intervals: Intervals = []
        stats = []
        round_start = time.perf_counter()
        try:
            for program in self.fill:
                stats += agent.train([self.draw[program]], episodes=1)
            for program in self.schedule:
                self.probe.maybe_probe()
                start = time.perf_counter()
                stats += agent.train([self.draw[program]], episodes=1)
                intervals.append((start, time.perf_counter()))
        except Exception as exc:
            for _ in range(episodes - len(stats)):
                m.fail(f"train episode: {_error_text(exc)}")
            return None
        finally:
            m.round_spans.append((round_start, time.perf_counter()))
            self.probe.probe()
            m.engine_stats.append(agent.cache_stats())
        self.rounds.append([s.total_reward for s in stats])
        timed = stats[len(self.fill):]
        if not self.episodes:
            self.episodes = [
                (s.module, list(s.actions), s.final_size) for s in timed
            ]
        m.data.setdefault("episode_steps", [len(s.actions) for s in timed])
        return intervals

    def measure(self, seconds: float, rounds: Optional[int] = None) -> Measurement:
        m = Measurement()
        self.rounds = []
        self.episodes = []
        per_round: List[Intervals] = []

        def one_round(m: Measurement) -> None:
            times = self._round(m)
            if times is not None:
                per_round.append(times)

        _repeat_rounds(m, seconds, rounds, self.size.min_rounds, one_round)
        m.data["per_round"] = per_round
        return m

    def check(self, m: Measurement) -> None:
        """Every round's rewards equal the first's; every distinct final
        module of the first round's timed episodes, rebuilt by
        ``apply_actions``, has the size training reported and passes the
        output checks."""
        self.rows = []
        if not self.rounds:
            return
        first = self.rounds[0]
        for index, rewards in enumerate(self.rounds[1:], start=1):
            if rewards != first:
                m.fail(f"round {index} rewards differ from round 0")
        if not all(math.isfinite(r) for r in first):
            m.fail("non-finite episode reward")
        modules = dict(self.draw)
        replay = PosetRL(seed=0, agent_config=self.size.train_config())
        oz: Dict[str, Dict[str, float]] = {}
        rows: Dict[Tuple[str, Tuple[int, ...]], Optional[Dict[str, Any]]] = {}
        for name, actions, final_size in self.episodes:
            key = (name, tuple(actions))
            if key not in rows:
                rows[key] = None
                try:
                    module = modules[name]
                    if name not in oz:
                        oz[name] = optimize_with_oz(module, replay.target)
                    row = _output_row(
                        name, replay.target, module,
                        replay.apply_actions(module, actions), oz[name],
                    )
                    if row["bytes"] != final_size:
                        raise CheckFailed(
                            f"rebuilt size {row['bytes']} != trained "
                            f"size {final_size}"
                        )
                    rows[key] = row
                except Exception as exc:
                    m.fail(f"{name} episode output: {_error_text(exc)}")
            if rows[key] is not None:
                self.rows.append(rows[key])

    def metrics(self, m: Measurement, seconds_of: SecondsOf) -> Dict[str, float]:
        per_round = m.data["per_round"]
        steps = m.data["episode_steps"]
        out = {
            "ops_per_s": sum(steps) / _median_round_s(per_round, seconds_of),
        }
        out.update(_latency_metrics(_item_latencies([
            [seconds_of(*item) / n for item, n in zip(items, steps)]
            for items in per_round
        ])))
        out.update(_quality_metrics(self.rows))
        return out

    def digest(self) -> str:
        return _digest(self.rounds[0] if self.rounds else [])

    def record(self, m: Measurement) -> Dict[str, Any]:
        return {
            "programs": self.size.train_programs,
            "fill_episodes_per_round": len(self.fill),
            "timed_episodes_per_round": len(self.schedule),
            "steps_per_round": sum(m.data.get("episode_steps", [])),
            "episode_rewards": self.rounds[0] if self.rounds else [],
            **_quality_record(self.rows),
        }


# -- compile -------------------------------------------------------------------
class CompileWorkload:
    """Cold greedy compilation of the validation suites for both targets.

    Each round builds a fresh facade per target (so every program finds
    the caches empty), loads the set-up policy into it, and runs
    ``predict`` then ``apply_actions`` (verification on) per program.
    The seed sets the order in which each target's programs are built.
    An operation is one (program, target) build; its outputs are the
    first round's modules.
    """

    name = "compile"

    def __init__(self, seed: int, size: Size, seconds: float,
                 probe: SpeedProbe):
        self.seed = seed
        self.size = size
        self.probe = probe
        #: ``(target, name, module)`` in build order.
        self.jobs: List[Tuple[str, str, Any]] = []
        self.policy = None
        self.oz: Dict[Tuple[str, str], Dict[str, float]] = {}
        self.first: Dict[Tuple[str, str], Tuple[List[int], Any]] = {}
        self.rows: List[Dict[str, Any]] = []

    def setup(self) -> None:
        corpus = _validation_suite(self.size)
        rng = np.random.RandomState(self.seed)
        self.jobs = [
            (target, *corpus[i])
            for target in TARGETS
            for i in rng.permutation(len(corpus))
        ]
        self.policy = _train_policy(self.size).agent.online
        self.oz = {
            (name, target): optimize_with_oz(module, target)
            for target, name, module in self.jobs
        }
        smallest = min(corpus, key=lambda item: item[1].instruction_count)[1]
        for target in TARGETS:
            facade = self._facade(target)
            facade.apply_actions(smallest, facade.predict(smallest))

    def _facade(self, target: str) -> PosetRL:
        facade = PosetRL(
            target=target, seed=0, agent_config=self.size.policy_config(),
        )
        facade.agent.online.copy_from(self.policy)
        return facade

    def _round(self, m: Measurement, keep: bool) -> Intervals:
        intervals: Intervals = []
        facades: Dict[str, PosetRL] = {}
        self.probe.probe()
        round_start = time.perf_counter()
        for target, name, module in self.jobs:
            facade = facades.get(target)
            if facade is None:
                facade = facades[target] = self._facade(target)
            m.attempted += 1
            self.probe.maybe_probe()
            start = time.perf_counter()
            try:
                actions = facade.predict(module)
                optimized = facade.apply_actions(module, actions)
            except Exception as exc:
                intervals.append((start, time.perf_counter()))
                m.fail(f"{name}/{target}: {_error_text(exc)}")
                continue
            intervals.append((start, time.perf_counter()))
            key = (name, target)
            if keep:
                self.first[key] = (actions, optimized)
            elif key in self.first and actions != self.first[key][0]:
                m.fail(f"{name}/{target}: actions differ between rounds")
        m.round_spans.append((round_start, time.perf_counter()))
        self.probe.probe()
        m.engine_stats.extend(f.cache_stats() for f in facades.values())
        return intervals

    def measure(self, seconds: float, rounds: Optional[int] = None) -> Measurement:
        m = Measurement()
        self.first = {}
        per_round: List[Intervals] = []
        _repeat_rounds(
            m, seconds, rounds, self.size.min_rounds,
            lambda m: per_round.append(self._round(m, keep=not per_round)),
        )
        m.data["per_round"] = per_round
        return m

    def check(self, m: Measurement) -> None:
        """Verifier + differential interpreter on every first-round
        output; later rounds must have chosen the same actions."""
        self.rows = []
        per_round = m.data["per_round"]
        for item, (target, name, module) in enumerate(self.jobs):
            key = (name, target)
            if key not in self.first:
                continue
            actions, optimized = self.first[key]
            try:
                row = _output_row(name, target, module, optimized, self.oz[key])
            except Exception as exc:
                m.fail(f"{name}/{target} check: {_error_text(exc)}")
                continue
            row["ms"] = 1e3 * statistics.median(
                end - start for start, end in (r[item] for r in per_round)
            )
            row["actions"] = actions
            self.rows.append(row)

    def metrics(self, m: Measurement, seconds_of: SecondsOf) -> Dict[str, float]:
        per_round = m.data["per_round"]
        out = {
            "ops_per_s": (
                len(self.jobs) / _median_round_s(per_round, seconds_of)
            ),
        }
        out.update(_latency_metrics(_item_latencies([
            [seconds_of(*item) for item in items] for items in per_round
        ])))
        out.update(_quality_metrics(self.rows))
        return out

    def digest(self) -> str:
        return _digest(sorted(
            (name, target, actions)
            for (name, target), (actions, _) in self.first.items()
        ))

    def record(self, m: Measurement) -> Dict[str, Any]:
        return {"jobs": len(self.jobs), "targets": list(TARGETS),
                **_quality_record(self.rows), "rows": self.rows}


def _geomean(values) -> float:
    values = list(values)
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- serve -----------------------------------------------------------------------
class ServeWorkload:
    """A closed loop of two client threads against one in-process
    :class:`OptimizationService` with the metric registry enabled — a
    ``-j2`` build calling a compile service.

    The request stream is made in set-up: about a third of requests
    repeat an earlier program (Zipf-style over first-send order), the
    rest are new programs from a seeded ``llvm_test_suite`` draw disjoint
    from the policy's training corpus. One round sends the whole stream
    to a fresh service; each timing metric is its median over rounds.

    An operation is one request. The quality metrics come from the
    service's answers for the validation suites, sent after the timed
    rounds: the stream's programs differ with the seed, so their ratios
    to ``-Oz`` would too.
    """

    name = "serve"
    clients = 2

    def __init__(self, seed: int, size: Size, seconds: float,
                 probe: SpeedProbe):
        self.seed = seed
        self.size = size
        self.probe = probe
        self.seconds = seconds
        self.agent: Optional[PosetRL] = None
        self.programs: List[Any] = []
        self.texts: List[str] = []
        self.stream: List[int] = []
        #: program -> every answer it got, over all rounds
        self.results: Dict[int, List[Any]] = {}
        self.rows: List[Dict[str, Any]] = []

    def stream_length(self) -> int:
        """Sized so about three rounds fit in the run."""
        wanted = int(self.size.serve_requests_per_s * self.seconds / 3)
        return max(self.size.serve_min_requests, wanted)

    def setup(self) -> None:
        self.agent = _train_policy(self.size)
        rng = np.random.RandomState(self.seed)
        stream: List[int] = []
        fresh = 0
        for _ in range(self.stream_length()):
            if fresh and rng.random_sample() < REPEAT_SHARE:
                rank = int(rng.zipf(ZIPF_A))
                while rank > fresh:
                    rank = int(rng.zipf(ZIPF_A))
                stream.append(rank - 1)
            else:
                stream.append(fresh)
                fresh += 1
        self.stream = stream
        draw = llvm_test_suite(fresh, seed=corpus_base(self.seed) + 1)
        self.programs = [module for _, module in draw]
        self.texts = [print_module(module) for module in self.programs]
        # Warm-up: one service answers one program outside the stream.
        warm = llvm_test_suite(1, seed=corpus_base(self.seed))[0][1]
        with self._service() as service:
            service.optimize(print_module(warm), name="warm-up")
        observability.disable()

    def _service(self) -> OptimizationService:
        observability.enable()
        return OptimizationService.from_agent(self.agent)

    def measure(self, seconds: float, rounds: Optional[int] = None) -> Measurement:
        m = Measurement()
        self.results = {}
        per_round: List[Dict[str, Any]] = []
        _repeat_rounds(
            m, seconds, rounds, self.size.min_rounds,
            lambda m: per_round.append(self._round(m)),
        )
        m.data["serve_rounds"] = per_round
        return m

    def _round(self, m: Measurement) -> Dict[str, Any]:
        """Send the stream once; gives up on what is left after
        ``2 * seconds + 30``."""
        latencies: List[float] = []
        lock = threading.Lock()
        cursor = [0]
        service = self._service().start()
        # Probes cannot run between requests, where they would compete
        # with the clients; those around the round scale all of it.
        self.probe.probe(3)
        deadline = time.perf_counter() + 2 * self.seconds + 30

        def client() -> None:
            while time.perf_counter() < deadline:
                with lock:
                    position = cursor[0]
                    if position >= len(self.stream):
                        return
                    cursor[0] += 1
                    m.attempted += 1
                program = self.stream[position]
                start = time.perf_counter()
                try:
                    result = service.submit(
                        self.texts[program], name=f"p{program}"
                    ).result()
                except Exception as exc:
                    with lock:
                        m.fail(f"request {position}: {_error_text(exc)}")
                    continue
                latency = time.perf_counter() - start
                with lock:
                    latencies.append(latency)
                    self.results.setdefault(program, []).append(result)
                    if not result.ok:
                        m.fail(f"request {position}: {result.status} "
                               f"({result.reason})")

        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(self.clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        self.probe.probe(3)
        m.round_spans.append((start, end))
        service.stop()
        stats = service.stats()
        m.engine_stats.extend(stats["metrics"].values())
        queue_wait = _histogram_mean(
            observability.get_registry(),
            "repro_serving_stage_seconds", {"stage": "queue"},
        )
        observability.disable()
        return {
            "span": (start, end),
            "sent": cursor[0],
            "latencies": latencies,
            "counters": stats["counters"],
            "result_cache": stats.get("result_cache", {}),
            "queue_wait": queue_wait,
        }

    def check(self, m: Measurement) -> None:
        """Each program's first ``ok`` answer is re-parsed, verified and
        compared with the original in the interpreter; every other
        answer for the same program must report the same thing."""
        for program, answers in sorted(self.results.items()):
            first = next((r for r in answers if r.ok), None)
            if first is None:
                continue
            try:
                optimized = parse_module(first.optimized_ir)
                verify_module(optimized)
                mismatch = modules_equivalent(
                    self.programs[program], optimized
                )
            except Exception as exc:
                m.fail(f"program {program} check: {_error_text(exc)}")
                continue
            if mismatch is not None:
                m.fail(f"program {program} miscompile: {mismatch}")
            report = first.report()
            for other in answers:
                if other is not first and other.ok and other.report() != report:
                    m.fail(f"program {program}: repeat answer differs")
        samples = min(len(r["latencies"]) for r in m.data["serve_rounds"])
        if self.size is FULL and _beyond_p95(samples) < 10:
            m.fail(f"only {samples} latency samples in a round: fewer "
                   f"than 10 beyond p95")
        self._check_validation(m)

    def _check_validation(self, m: Measurement) -> None:
        """Sends each validation program to a fresh service; every answer
        must be ``ok``, report the size it has, and pass the output
        checks."""
        self.rows = []
        suite = _validation_suite(self.size)
        target = self.agent.target
        service = self._service()
        try:
            for name, module in suite:
                m.attempted += 1
                try:
                    result = service.optimize(print_module(module), name=name)
                    if not result.ok:
                        raise CheckFailed(f"{result.status} ({result.reason})")
                    row = _output_row(
                        name, target, module,
                        parse_module(result.optimized_ir),
                        optimize_with_oz(module, target),
                    )
                    if row["bytes"] != result.optimized_size:
                        raise CheckFailed(
                            f"reported size {result.optimized_size} != "
                            f"{row['bytes']}"
                        )
                except Exception as exc:
                    m.fail(f"validation {name}: {_error_text(exc)}")
                    continue
                self.rows.append(row)
        finally:
            service.stop()
            observability.disable()

    def metrics(self, m: Measurement, seconds_of: SecondsOf) -> Dict[str, float]:
        """Timing metrics per round, then each one's median over rounds;
        quality from the validation answers."""
        rounds = []
        for r in m.data["serve_rounds"]:
            start, end = r["span"]
            round_s = seconds_of(start, end)
            scale = round_s / (end - start)
            rounds.append({
                "ops_per_s": len(r["latencies"]) / round_s,
                **_latency_metrics([scale * t for t in r["latencies"]]),
            })
        out = {
            name: statistics.median(r[name] for r in rounds)
            for name in rounds[0]
        }
        out.update(_quality_metrics(self.rows))
        return out

    def digest(self) -> str:
        items = []
        for program, answers in sorted(self.results.items()):
            first = next((r for r in answers if r.ok), None)
            if first is not None:
                items.append((
                    program, first.actions, first.optimized_size,
                    hashlib.sha256(first.optimized_ir.encode()).hexdigest(),
                ))
        return _digest(items)

    def record(self, m: Measurement) -> Dict[str, Any]:
        per_round = m.data["serve_rounds"]
        sent = self.stream[: min(r["sent"] for r in per_round)]
        repeats = len(sent) - len(set(sent))
        samples = min(len(r["latencies"]) for r in per_round)
        return {
            "requests_per_round": len(self.stream),
            "distinct_programs": len(set(sent)),
            "repeat_share": repeats / len(sent) if sent else 0.0,
            "clients": self.clients,
            "latency_samples_per_round": samples,
            "samples_beyond_p95": _beyond_p95(samples),
            "counters": [r["counters"] for r in per_round],
            **_quality_record(self.rows),
        }


def _nearest_rank(ordered: List[float], q: float) -> float:
    if not ordered:
        return float("nan")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _beyond_p95(n: int) -> int:
    return n - math.ceil(0.95 * n) if n else 0


def _histogram_mean(registry, name: str, labels: Dict[str, str]) -> float:
    for family in registry.collect():
        if family["name"] != name:
            continue
        for sample in family["samples"]:
            if sample["labels"] == labels and sample["count"]:
                return sample["sum"] / sample["count"]
    return 0.0


WORKLOADS = {
    "train": TrainWorkload,
    "compile": CompileWorkload,
    "serve": ServeWorkload,
}
