"""Seeded job schedules and the percentile rule of the benchmark.

Pure standard library: the orchestrator and the self-tests import this
module without loading the program. A sweep round is a function of
``(seed, round index)`` only; a ``serve-warm`` round also depends on the
number of rounds in the run, which fixes the set of miss grids.
"""

from __future__ import annotations

import math
import random
from typing import Any, Sequence

WORKLOADS = ("sweep-serial", "sweep-batched", "serve-warm")

#: The non-fleet sweep presets, run at their default points.
SERIAL_PRESETS = (
    "flow", "geometry", "vrm", "workloads", "cosim", "transient", "runtime",
)
#: The presets whose evaluator has a batch kernel (``BATCH_KERNELS``).
BATCHED_PRESETS = (
    "flow", "geometry", "vrm", "workloads", "transient", "runtime",
)

#: The reduced fleet of ``sweep-batched``: 8 chips on a 4-flow x
#: 9-utilization chip table (valves 32..56 ml/min in 8 ml/min steps,
#: utilization in eighths).
FLEET_BASE: "dict[str, Any]" = {
    "n_chips": 8,
    "min_flow_ml_min": 32.0,
    "max_flow_ml_min": 56.0,
    "utilization_resolution": 0.125,
}
#: The what-if axes a burst draws from. Every combination has a committed
#: reference result, so each what-if is checked.
WHAT_IF_POLICIES = ("greedy", "proportional", "uniform")
WHAT_IF_SUPPLIES = (32.0, 40.0, 48.0, 56.0)
WHAT_IF_TRACE_SEEDS = (1, 2, 3, 4)
WHAT_IF_SKEWS = (0.0, 0.2, 0.35, 0.5)
WHAT_IFS_PER_ROUND = 120

#: ``serve-warm``: the replay set pre-warmed during set-up
#: (preset, points), every one also checked against the references.
#: There is no record of real ``repro serve`` traffic; the mix below is
#: chosen (see README.md, "Why this serve mix").
REPLAY_SET = (
    ("flow", 12), ("geometry", 12), ("vrm", 9), ("workloads", 8),
    ("transient", 8), ("runtime", 4),
)
SERVE_REQUESTS_PER_ROUND = 80
#: Each round's miss is a ``vrm`` sweep: 3 regulators x n tap voltages
#: ``linspace(1.0, 1.4, n)``, where ``n - 1`` is an odd prime used by no
#: other request of the run. Two such grids share no interior voltage,
#: and none shares one with the replay job ``vrm@9`` (``n - 1 = 2``), so
#: a miss evaluates exactly ``3 * (n - 2)`` new scenarios; its six
#: endpoint scenarios (1.0 and 1.4 V) are the replay job's and always
#: hit. A run of R rounds uses the first R odd primes in a seeded order,
#: so every seed makes the same store writes in total.

#: The timed phase is a fixed amount of work: ``--seconds`` divided by
#: the workload's nominal round time (its round time on a 2-core Xeon at
#: the commit that introduced the benchmark), at least ``MIN_ROUNDS``.
#: Two versions of the program measured with the same ``--seconds`` run
#: the same jobs; ``wall_ref_s`` is how long those jobs took.
NOMINAL_ROUND_S = {
    "sweep-serial": 7.5, "sweep-batched": 8.0, "serve-warm": 0.75,
}
MIN_ROUNDS = {"sweep-serial": 3, "sweep-batched": 3, "serve-warm": 10}

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def what_if_key(policy: str, supply: float, trace_seed: int,
                skew: float) -> str:
    """Reference-table key of one fleet what-if."""
    return f"{policy}|{supply:g}|{trace_seed}|{skew:g}"


def all_what_ifs() -> "list[dict[str, Any]]":
    """Every what-if combination, in a fixed order."""
    return [
        {"policy": policy, "supply": supply, "trace_seed": trace_seed,
         "skew": skew}
        for policy in WHAT_IF_POLICIES
        for supply in WHAT_IF_SUPPLIES
        for trace_seed in WHAT_IF_TRACE_SEEDS
        for skew in WHAT_IF_SKEWS
    ]


def _rng(seed: int, workload: str, round_index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_index}")


def sweep_round(
    workload: str, seed: int, round_index: int
) -> "list[dict[str, Any]]":
    """The jobs of one round of a sweep workload, in execution order.

    ``sweep-serial``: the seven presets, shuffled. ``sweep-batched``: the
    six batch-kernel presets and the cold fleet job, shuffled, with a
    burst of warm what-ifs right after the fleet job (they reuse its
    chip table).
    """
    rng = _rng(seed, workload, round_index)
    if workload == "sweep-serial":
        jobs = [{"kind": "preset", "name": name} for name in SERIAL_PRESETS]
        rng.shuffle(jobs)
        return jobs
    if workload != "sweep-batched":
        raise ValueError(f"not a sweep workload: {workload!r}")
    cold = [{"kind": "preset", "name": name} for name in BATCHED_PRESETS]
    cold.append({"kind": "fleet-cold"})
    rng.shuffle(cold)
    burst = [
        {"kind": "what-if", **params}
        for params in rng.choices(all_what_ifs(), k=WHAT_IFS_PER_ROUND)
    ]
    at = next(i for i, job in enumerate(cold) if job["kind"] == "fleet-cold")
    return cold[: at + 1] + burst + cold[at + 1:]


def rounds_for(workload: str, seconds: float) -> int:
    """How many rounds a timed run of ``seconds`` makes."""
    rounds = int(seconds / NOMINAL_ROUND_S[workload])
    return max(MIN_ROUNDS[workload], rounds)


def odd_primes(count: int) -> "list[int]":
    """The first ``count`` odd primes."""
    primes: "list[int]" = []
    candidate = 3
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 2
    return primes


def miss_voltage_counts(seed: int, n_rounds: int) -> "list[int]":
    """The voltage count of each round's miss."""
    counts = [prime + 1 for prime in odd_primes(n_rounds)]
    random.Random(f"{seed}:serve-warm:misses").shuffle(counts)
    return counts


def serve_round(
    seed: int, round_index: int, n_rounds: int
) -> "list[dict[str, Any]]":
    """The requests of one ``serve-warm`` round of a run of ``n_rounds``,
    in submission order."""
    if not 0 <= round_index < n_rounds:
        raise ValueError(f"round {round_index} of a {n_rounds}-round run")
    rng = _rng(seed, "serve-warm", round_index)
    jobs: "list[dict[str, Any]]" = [
        {"preset": preset, "points": points, "miss": False}
        for preset, points in rng.choices(
            REPLAY_SET, k=SERVE_REQUESTS_PER_ROUND - 1
        )
    ]
    voltages = miss_voltage_counts(seed, n_rounds)[round_index]
    jobs.insert(
        rng.randrange(len(jobs) + 1),
        {"preset": "vrm", "points": 3 * voltages, "miss": True},
    )
    return jobs


def percentile(values: "Sequence[float]", q: float) -> "float | None":
    """The ``q``-th percentile (nearest rank), or ``None`` unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie above it."""
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]

