"""Distributed actor-learner throughput vs the serial training loop.

Four actor subprocesses roll out episodes concurrently while the learner
ingests chunks and trains — each side on a fresh facade with cold metrics
caches, so environment stepping (the part the actors parallelize)
dominates the step cost. The ≥2x assertion is
the point of going distributed, but it is physically impossible on a
single-core runner (the actors time-slice one core and add IPC on top),
so — same convention as the gateway and vectorized-training benchmarks —
the strict gate applies when ≥4 CPUs are available and a no-collapse
floor (pipeline overhead must not halve throughput) applies otherwise.
``benchmarks/results/perf_train_distributed.json`` records ``cpu_count``
so readers can interpret the number, plus the pipeline health readings
(broadcasts, snapshot staleness, per-actor rates) of the measured run.
"""

from __future__ import annotations

import os

from repro import PosetRL
from repro.workloads import ProgramProfile, generate_program

from conftest import print_artifact, save_results

N_ACTORS = 4
EPISODE_LENGTH = 6
TOTAL_STEPS = 240


def _corpus():
    return [
        (
            f"bench{i}",
            generate_program(
                ProgramProfile(name=f"bench{i}", seed=40 + i, segments=2)
            ),
        )
        for i in range(4)
    ]


def test_train_distributed_speedup():
    corpus = _corpus()

    serial_agent = PosetRL(seed=0, episode_length=EPISODE_LENGTH)
    serial_agent.train(corpus, episodes=TOTAL_STEPS // EPISODE_LENGTH)
    serial = serial_agent.last_train_throughput

    dist_agent = PosetRL(seed=0, episode_length=EPISODE_LENGTH)
    dist_agent.train_distributed(
        corpus, total_steps=TOTAL_STEPS, actors=N_ACTORS, broadcast_every=2
    )
    dist = dist_agent.last_train_throughput
    report = dist_agent.last_distributed_report

    cpus = len(os.sched_getaffinity(0))
    speedup = (
        dist.steps_per_second / serial.steps_per_second
        if serial.steps_per_second
        else float("inf")
    )
    payload = {
        "actors": N_ACTORS,
        "cpu_count": cpus,
        "total_steps": TOTAL_STEPS,
        "serial": serial.as_dict(),
        "distributed": dist.as_dict(),
        "speedup": round(speedup, 2),
        "pipeline": report.as_dict(),
        "note": (
            "strict >=2x gate applies with >=4 CPUs; on fewer cores the "
            "actor subprocesses time-slice the core(s), so only the "
            "no-collapse floor (>=0.4x) is asserted"
        ),
    }
    save_results("perf_train_distributed", payload)
    print_artifact(
        "Distributed actor-learner training (4 actors vs serial, cold caches)",
        f"serial      {serial.steps_per_second:8.1f} steps/s\n"
        f"distributed {dist.steps_per_second:8.1f} steps/s  "
        f"({speedup:.2f}x, cpus={cpus})\n"
        f"broadcasts={report.broadcasts}  "
        f"mean_staleness={report.mean_staleness:.1f}  "
        f"clean_drain={report.clean_drain}",
    )

    assert report.clean_drain, payload
    assert report.broadcasts >= 1, payload
    assert dist.total_steps >= TOTAL_STEPS, payload
    if cpus >= 4:
        assert speedup >= 2.0, payload
    else:
        assert speedup >= 0.4, payload
