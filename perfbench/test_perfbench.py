"""Self-tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import schedule  # noqa: E402
import worker  # noqa: E402
from worker import mismatch  # noqa: E402


@pytest.mark.parametrize("workload", ["sweep-serial", "sweep-batched"])
def test_same_seed_same_sweep_schedule(workload):
    first = [schedule.sweep_round(workload, 7, r) for r in range(4)]
    again = [schedule.sweep_round(workload, 7, r) for r in range(4)]
    other = [schedule.sweep_round(workload, 8, r) for r in range(4)]
    assert first == again
    assert first != other


def test_sweep_rounds_hold_every_job_once():
    serial = schedule.sweep_round("sweep-serial", 3, 0)
    assert sorted(j["name"] for j in serial) == sorted(schedule.SERIAL_PRESETS)
    batched = schedule.sweep_round("sweep-batched", 3, 0)
    cold = [j for j in batched if j["kind"] != "what-if"]
    assert len(cold) == len(schedule.BATCHED_PRESETS) + 1
    # The what-ifs follow the cold fleet job whose chip table they reuse.
    at = next(i for i, j in enumerate(batched) if j["kind"] == "fleet-cold")
    burst = batched[at + 1: at + 1 + schedule.WHAT_IFS_PER_ROUND]
    assert all(j["kind"] == "what-if" for j in burst)


def test_same_seed_same_serve_schedule():
    rounds = [schedule.serve_round(5, r, 6) for r in range(6)]
    assert rounds == [schedule.serve_round(5, r, 6) for r in range(6)]
    assert rounds != [schedule.serve_round(6, r, 6) for r in range(6)]
    replays = set(schedule.REPLAY_SET)
    for jobs in rounds:
        assert len(jobs) == schedule.SERVE_REQUESTS_PER_ROUND
        for job in jobs:
            if not job["miss"]:
                assert (job["preset"], job["points"]) in replays
    with pytest.raises(ValueError):
        schedule.serve_round(1, 6, 6)


def _keys(preset, points):
    from repro.sweep import get_preset

    return {spec.cache_key() for spec in get_preset(preset).expand(points)}


@pytest.mark.parametrize("seed", [1, 2])
def test_every_miss_evaluates_only_new_scenarios(seed):
    """Compared by store key: a miss's interior voltages are new to the
    store, its endpoint scenarios are the replay set's."""
    n_rounds = 10
    stored = set().union(*(_keys(*job) for job in schedule.REPLAY_SET))
    new_per_round = []
    for index in range(n_rounds):
        new = []
        for job in schedule.serve_round(seed, index, n_rounds):
            keys = _keys(job["preset"], job["points"])
            fresh = keys - stored
            if not job["miss"]:
                assert not fresh
                continue
            assert len(keys - fresh) == 6
            stored |= keys
            new.append(len(fresh))
        new_per_round.append(new)
    counts = schedule.miss_voltage_counts(seed, n_rounds)
    assert new_per_round == [[3 * (n - 2)] for n in counts]
    # Every seed writes the same scenarios in total, in its own order.
    assert sorted(counts) == sorted(schedule.miss_voltage_counts(99, n_rounds))
    assert counts != schedule.miss_voltage_counts(99, n_rounds)


def test_timed_work_is_fixed_by_seconds():
    assert schedule.rounds_for("sweep-serial", 30) == 4
    assert schedule.rounds_for("serve-warm", 30) == 40
    assert schedule.rounds_for("sweep-batched", 1) == 3


def test_percentile_needs_ten_samples_beyond():
    assert schedule.percentile(range(1, 20), 50) is None
    assert schedule.percentile(range(1, 21), 50) == 10
    assert schedule.percentile(range(999), 99) is None
    assert schedule.percentile(range(1000), 99) == 989
    assert schedule.percentile([], 50) is None
    with pytest.raises(ValueError):
        schedule.percentile([1.0], 100)


def test_mismatch_tolerance_and_structure():
    assert mismatch({"a": 1.0, "b": "x"}, {"a": 1.0 + 1e-9, "b": "x"}) == ""
    assert mismatch({"a": 1.0}, {"a": 1.01})
    assert mismatch({"b": 1.0, "a": 1.0}, {"a": 1.0, "b": 1.0})
    assert mismatch([1.0, 2.0], [1.0])
    assert mismatch(0.0, 1e-9) == ""
    assert mismatch(True, 1)


class _Target:
    def work(self, n):
        return [n] * n

    @classmethod
    def build(cls, n):
        return cls().work(n)


def _module_function(n):
    return n + 1


def test_wrappers_time_nested_calls_and_restore_originals(monkeypatch):
    module = sys.modules[__name__]
    originals = (
        _Target.__dict__["work"], _Target.__dict__["build"],
        module._module_function,
    )
    targets = (
        ("outer", f"{__name__}:_Target.build", None),
        ("inner", f"{__name__}:_Target.work", lambda args, result: len(result)),
        ("func", f"{__name__}:_module_function", None),
        ("gone", f"{__name__}:_Target.no_such_method", None),
    )
    # Rebinding by name is limited to the program's own modules.
    monkeypatch.setattr(layers, "_REBIND_PREFIX", __name__)
    handle = layers.install(targets)
    try:
        assert _Target.build(3) == [3, 3, 3]
        assert module._module_function(1) == 2
        stats = handle.clock.stats
        assert stats["outer"].calls == 1
        assert stats["inner"].items == 3
        assert stats["func"].calls == 1
        assert stats["outer"].self_s >= 0.0
        assert handle.missing == [f"{__name__}:_Target.no_such_method"]
    finally:
        handle.restore()
    assert (
        _Target.__dict__["work"], _Target.__dict__["build"],
        module._module_function,
    ) == originals


def test_reset_caches_fails_when_a_clear_function_is_gone(monkeypatch):
    from repro.runtime import engine

    worker.reset_caches()
    monkeypatch.delattr(engine, "clear_model_store")
    with pytest.raises(RuntimeError, match="clear_model_store"):
        worker.reset_caches()
