"""Ablations over the design choices DESIGN.md calls out.

Not artifacts of the paper, but experiments its design implies:

* reward weights α/β (the paper fixes α=10, β=5 "to give more weight to
  BinSize") — sweep the ratio and observe the size/runtime trade-off move;
* DQN vs Double DQN (the paper argues Double DQN avoids overestimation);
* ODG critical-degree threshold k (the paper picks k ≥ 8);
* episode length (the paper's sequences are 15 actions).
"""

from __future__ import annotations

import statistics

from repro import PosetRL, load_suite
from repro.core import OzDependenceGraph, RewardWeights
from repro.core.presets import quick_config

from conftest import format_table, print_artifact, save_results

EPISODES = 150


def _train_eval(weights=None, algo="ddqn", episode_length=15, seed=0):
    corpus = load_suite("llvm_test_suite")[:16]
    agent = PosetRL(
        action_space="odg",
        seed=seed,
        weights=weights or RewardWeights(),
        algo=algo,
        episode_length=episode_length,
        agent_config=quick_config(),
    )
    agent.train(corpus, episodes=EPISODES)
    summary = agent.evaluate_suite("mibench", load_suite("mibench"))
    return summary


def test_ablation_reward_weights(benchmark):
    def run():
        rows = {}
        for alpha, beta in ((10.0, 5.0), (10.0, 0.0), (0.0, 5.0)):
            s = _train_eval(weights=RewardWeights(alpha, beta))
            rows[(alpha, beta)] = (
                s.avg_size_reduction,
                s.avg_runtime_improvement,
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = [
        [f"α={a} β={b}", f"{v[0]:7.2f}", f"{v[1]:8.2f}"]
        for (a, b), v in rows.items()
    ]
    print_artifact(
        "Ablation — reward weights (MiBench, avg % vs Oz)",
        format_table(["weights", "Δsize", "Δruntime"], table),
    )
    save_results(
        "ablation_reward_weights",
        {f"{a}/{b}": v for (a, b), v in rows.items()},
    )
    # Size-only reward should not do *worse* on size than runtime-only.
    assert rows[(10.0, 0.0)][0] >= rows[(0.0, 5.0)][0] - 1.0


def test_ablation_double_dqn(benchmark):
    def run():
        results = {}
        for algo in ("ddqn", "dqn"):
            sizes = [
                _train_eval(algo=algo, seed=seed).avg_size_reduction
                for seed in (0, 1)
            ]
            results[algo] = statistics.mean(sizes)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_artifact(
        "Ablation — Double DQN vs vanilla DQN (MiBench avg Δsize, 2 seeds)",
        format_table(
            ["agent", "avg Δsize %"],
            [
                ["Double DQN (paper)", f"{results['ddqn']:6.2f}"],
                ["vanilla DQN", f"{results['dqn']:6.2f}"],
            ],
        ),
    )
    save_results(
        "ablation_double_dqn",
        {"double": results["ddqn"], "vanilla": results["dqn"]},
    )
    # Both must at least produce valid numbers; the ranking is seed-noisy
    # at this scale, so no ordering is asserted.
    assert all(isinstance(v, float) for v in results.values())


def test_ablation_odg_threshold(benchmark):
    def run():
        rows = []
        for k in (6, 8, 10, 12):
            odg = OzDependenceGraph(critical_degree=k)
            walks = odg.generate_subsequences()
            rows.append(
                {
                    "k": k,
                    "critical": len(odg.critical_nodes()),
                    "actions": len(walks),
                    "avg_len": statistics.mean(len(w) for w in walks)
                    if walks
                    else 0.0,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_artifact(
        "Ablation — ODG critical-degree threshold k (paper uses k ≥ 8)",
        format_table(
            ["k", "critical nodes", "action-space size", "avg walk length"],
            [
                [r["k"], r["critical"], r["actions"], f"{r['avg_len']:.1f}"]
                for r in rows
            ],
        ),
    )
    save_results("ablation_odg_threshold", rows)
    by_k = {r["k"]: r for r in rows}
    assert by_k[8]["critical"] == 3
    assert by_k[8]["actions"] == 34
    # Looser threshold -> more critical nodes -> different action space.
    assert by_k[6]["critical"] >= by_k[8]["critical"]
    assert by_k[12]["critical"] <= by_k[8]["critical"]


def test_ablation_episode_length(benchmark):
    def run():
        rows = {}
        for length in (5, 10, 15):
            s = _train_eval(episode_length=length)
            rows[length] = (s.avg_size_reduction, s.avg_runtime_improvement)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_artifact(
        "Ablation — episode length (paper: 15)",
        format_table(
            ["episode length", "Δsize %", "Δruntime %"],
            [[k, f"{v[0]:6.2f}", f"{v[1]:7.2f}"] for k, v in rows.items()],
        ),
    )
    save_results(
        "ablation_episode_length", {str(k): v for k, v in rows.items()}
    )
    assert set(rows) == {5, 10, 15}
