"""Ablation A19 — the dynamic kernels on the sweep path, batched or not.

The ``transient`` and ``runtime`` evaluators have one implementation
each: the batch kernels that march step responses in lockstep through
:func:`repro.cosim.batch.batched_step_responses` and mount runtime
scenarios as lanes of :class:`~repro.runtime.engine.BatchedRuntimeEngine`.
The :class:`~repro.sweep.backends.SerialBackend` runs them on a batch of
one scenario at a time; the :class:`~repro.sweep.backends.VectorizedBackend`
hands them the whole preset. The bench asserts:

- serial and vectorized agree scenario by scenario, bit for bit (a
  batch of N is N batches of one), and the process pool matches serial
  bit for bit;
- cold serial takes at most ``MAX_SERIAL_RATIO`` x the vectorized time
  on both dynamic presets: a scenario run alone pays for its own thermal
  models and node curves, but no longer for a second, slower code path;
- the runtime engine stays reachable from the CLI (``repro runtime``).

Every timed run starts cold: evaluator lru caches, vectorized kernel
caches, the shared thermal-model store and the polarization-surface
store are all cleared per measurement, so the race measures the
backends, not cache luck.

``REPRO_BENCH_SMOKE=1`` shrinks the grids so CI can exercise the whole
matrix on every push.
"""

import os
import time

import pytest

from benchmarks.conftest import artifact, emit, obs_artifacts
from repro.core.report import format_table
from repro.cosim import PolarizationSurface
from repro.runtime.engine import clear_model_store
from repro.sweep import (
    ProcessBackend,
    SerialBackend,
    SweepRunner,
    VectorizedBackend,
    get_preset,
)
from repro.sweep.evaluators import _array, _peak_temperature_c
from repro.sweep.vectorized import clear_caches

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Grid densities per preset: the presets' default densities in smoke
#: mode (CI), denser grids otherwise so the per-scenario physics
#: dominates the pool's fixed overheads.
POINTS = {"transient": 8 if SMOKE else 16, "runtime": 4 if SMOKE else 8}

#: Acceptance ceiling for cold serial vs vectorized wall time: one
#: scenario per batch may cost more model and curve builds, not a
#: different implementation.
MAX_SERIAL_RATIO = 2.0

#: Process-pool width: the CI smoke configuration (--jobs 2) scaled up to
#: what this host can actually exploit.
N_WORKERS = min(4, os.cpu_count() or 1)


def _cold_run(backend, specs) -> "tuple[float, object]":
    """Time one backend over the specs with every shared cache cold."""
    _array.cache_clear()
    _peak_temperature_c.cache_clear()
    clear_caches()
    clear_model_store()
    PolarizationSurface.clear_shared()
    runner = SweepRunner(backend=backend)
    start = time.perf_counter()
    results = runner.run(specs)
    return time.perf_counter() - start, results


def _worst_relative_deviation(reference, other) -> float:
    worst = 0.0
    for a, b in zip(reference, other):
        assert a.spec == b.spec
        for name in a.metrics:
            if a.metrics[name] != a.metrics[name]:  # nan KPI (no reservoir)
                assert b.metrics[name] != b.metrics[name]
                continue
            scale = max(abs(a.metrics[name]), 1.0)
            worst = max(worst, abs(a.metrics[name] - b.metrics[name]) / scale)
    return worst


@pytest.mark.parametrize("preset_name", ["transient", "runtime"])
def test_a19_dynamic_batch_speedup(benchmark, preset_name):
    specs = get_preset(preset_name).expand(POINTS[preset_name])

    serial_s, serial = _cold_run(SerialBackend(), specs)
    process_s, process = _cold_run(ProcessBackend(N_WORKERS), specs)

    def vectorized_run():
        return _cold_run(VectorizedBackend(), specs)

    vectorized_s, vectorized = benchmark.pedantic(
        vectorized_run, rounds=1, iterations=1
    )

    deviation = _worst_relative_deviation(serial, vectorized)
    emit(
        f"A19 — dynamic backend race on the '{preset_name}' preset "
        f"({len(specs)} scenarios)",
        format_table(
            ["backend", "wall [s]", "vs vectorized", "worst rel dev"],
            [
                ["serial", serial_s, serial_s / vectorized_s, 0.0],
                ["process", process_s, process_s / vectorized_s, 0.0],
                ["vectorized", vectorized_s, 1.0, deviation],
            ],
        ),
    )

    artifact("A19", {
        f"{preset_name}_serial_s": serial_s,
        f"{preset_name}_process_s": process_s,
        f"{preset_name}_vectorized_s": vectorized_s,
        f"{preset_name}_serial_ratio": serial_s / vectorized_s,
        f"{preset_name}_worst_rel_dev": deviation,
    })
    obs_artifacts(f"A19_{preset_name}")
    # Equivalence first: a fast wrong answer is not a speedup. Process
    # must match serial bit-for-bit (same pure functions), and so must
    # vectorized: serial runs the same kernels on batches of one.
    assert _worst_relative_deviation(serial, process) == 0.0
    assert deviation == 0.0
    # The contract: a scenario run alone costs at most a small factor
    # more than its share of a lockstep batch.
    assert serial_s / vectorized_s <= MAX_SERIAL_RATIO


def test_a19_runtime_engine_reachable_from_cli():
    """`repro runtime` drives the runtime engine (a batch of one lane)."""
    from repro.cli import main

    assert main(["runtime", "--trace", "step"]) == 0
