"""Extension benches (paper Section VII future work).

* **Parameterized actions** — compares the plain ODG action space
  against the parameter-expanded one (unroll budgets and inline
  thresholds as part of the action) under the reward-greedy policy —
  isolating the value of parameter choice from RL training noise.
* **Algorithm ablation** — trains DDQN, prioritized-DDQN and PPO behind
  the same facade on one small corpus and budget, emitting
  ``benchmarks/results/perf_ablation_algos.json``. Assertions are
  structural (every learner actually trains; the prioritized run's
  sum-tree diverges from uniform; PPO runs update epochs) — a 100-step
  budget says nothing statistically about final policy quality.
"""

from __future__ import annotations

import statistics

from repro import PosetRL, load_suite
from repro.core import make_action_space
from repro.core.extensions import make_parameterized_action_space
from repro.core.search import greedy_reward_policy
from repro.core.evaluate import optimize_with_oz
from repro.rl.dqn import AgentConfig
from repro.workloads import ProgramProfile, generate_program

from conftest import format_table, print_artifact, save_results


def test_ablation_parameterized_actions(benchmark):
    suite = load_suite("mibench")
    plain_space = make_action_space("odg")
    param_space = make_parameterized_action_space()

    def run():
        rows = []
        for name, module in suite:
            oz = optimize_with_oz(module, "x86-64")
            plain = greedy_reward_policy(module, plain_space, steps=8)
            param = greedy_reward_policy(module, param_space, steps=8)
            rows.append(
                {
                    "bench": name,
                    "oz_size": oz["size"],
                    "plain_size": plain.final_size,
                    "param_size": param.final_size,
                    "oz_cycles": oz["cycles"],
                    "plain_cycles": plain.final_cycles,
                    "param_cycles": param.final_cycles,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    table = [
        [
            r["bench"],
            r["oz_size"],
            r["plain_size"],
            r["param_size"],
            f"{r['plain_cycles']:.0f}",
            f"{r['param_cycles']:.0f}",
        ]
        for r in rows
    ]
    print_artifact(
        "Extension — parameterized actions (greedy policy, MiBench)",
        format_table(
            ["benchmark", "Oz B", "plain B", "param B", "plain cyc", "param cyc"],
            table,
        ),
    )
    save_results("ablation_parameterized", rows)

    # The parameterized space strictly contains the plain one, so a greedy
    # policy over it can only match or beat the per-step reward; check the
    # aggregate outcome is not worse on cycles (its main lever is unroll).
    plain_cycles = statistics.mean(r["plain_cycles"] for r in rows)
    param_cycles = statistics.mean(r["param_cycles"] for r in rows)
    assert param_cycles <= plain_cycles * 1.05


ALGOS = ("ddqn", "prioritized-ddqn", "ppo")
ALGO_EPISODES = 20
ALGO_EPISODE_LENGTH = 5


def test_ablation_algorithms(benchmark):
    corpus = [
        (
            f"prog{i}",
            generate_program(
                ProgramProfile(name=f"prog{i}", seed=70 + i, segments=2)
            ),
        )
        for i in range(4)
    ]
    # Small replay thresholds so every learner trains inside the budget.
    config = AgentConfig(min_replay=16, batch_size=8, train_every=2,
                         target_sync_every=32, epsilon_steps=80)

    def run_algo(algo):
        rl = PosetRL(seed=0, episode_length=ALGO_EPISODE_LENGTH,
                     agent_config=config, algo=algo)
        stats = rl.train(corpus, episodes=ALGO_EPISODES)
        half = len(stats) // 2
        return rl, {
            "algo": algo,
            "episodes": len(stats),
            "train_updates": rl.agent.train_steps,
            "reward_first_half": round(
                statistics.mean(s.total_reward for s in stats[:half]), 4
            ),
            "reward_second_half": round(
                statistics.mean(s.total_reward for s in stats[half:]), 4
            ),
            "steps_per_second": round(
                rl.last_train_throughput.steps_per_second, 1
            ),
            "wall_seconds": round(
                rl.last_train_throughput.wall_seconds, 3
            ),
        }

    def run():
        out = []
        for algo in ALGOS:
            rl, row = run_algo(algo)
            if algo == "prioritized-ddqn":
                row["priority_stats"] = {
                    k: round(v, 4)
                    for k, v in rl.agent.memory.priority_stats().items()
                }
            out.append(row)
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_artifact(
        "Extension — algorithm ablation (same corpus/budget/seed)",
        format_table(
            ["algo", "episodes", "updates", "reward 1st half",
             "reward 2nd half", "steps/s"],
            [
                [r["algo"], r["episodes"], r["train_updates"],
                 f"{r['reward_first_half']:.3f}",
                 f"{r['reward_second_half']:.3f}",
                 f"{r['steps_per_second']:.0f}"]
                for r in rows
            ],
        ),
    )
    save_results("perf_ablation_algos", rows)

    by_algo = {r["algo"]: r for r in rows}
    assert set(by_algo) == set(ALGOS)
    for r in rows:
        assert r["episodes"] == ALGO_EPISODES
        assert r["train_updates"] > 0, r
    # TD-error feedback moved the sum tree off the uniform entry mass.
    stats = by_algo["prioritized-ddqn"]["priority_stats"]
    assert stats["max"] != stats["mean"] or stats["max"] != 1.0, stats
