"""Tests for the electrolyte recirculation state.

The reservoir draw lives once, in :class:`ElectrolyteStateArray`; these
tests step a single :class:`ElectrolyteState` as a batch of one lane and
read the result after the array writes it back.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.state import (
    ElectrolyteState,
    ElectrolyteStateArray,
    build_case_study_loop,
)


def draw(state: ElectrolyteState, current_a: float, dt_s: float) -> float:
    """One step of a single reservoir; returns the sustained current."""
    lanes = ElectrolyteStateArray([state])
    sustained = float(lanes.step(np.array([current_a]), dt_s)[0])
    lanes.write_back()
    return sustained


def usable_charge_c(state: ElectrolyteState) -> float:
    return float(ElectrolyteStateArray([state]).usable_charge_c()[0])


class TestBuildLoop:
    def test_case_study_loop_is_balanced(self):
        loop = build_case_study_loop(volume_m3=1e-4)
        assert loop.anolyte_tank.is_fuel
        assert not loop.catholyte_tank.is_fuel
        assert 0.0 < loop.state_of_charge <= 1.0
        assert loop.deliverable_charge_c > 0.0

    def test_volume_scales_capacity(self):
        small = build_case_study_loop(volume_m3=1e-5)
        large = build_case_study_loop(volume_m3=1e-4)
        assert large.deliverable_charge_c == pytest.approx(
            10.0 * small.deliverable_charge_c
        )


class TestElectrolyteState:
    def test_default_loop_sustains_the_array_current(self):
        state = ElectrolyteState()
        # The paper's 6 A draw for a minute barely dents the 0.5 L tanks.
        sustained = draw(state, 6.0, 60.0)
        assert sustained == 6.0
        assert not state.depleted
        assert state.state_of_charge > 0.95 * state.initial_soc
        assert 0.0 < state.fuel_utilization < 0.1

    def test_depletion_clamps_instead_of_raising(self):
        state = ElectrolyteState(build_case_study_loop(volume_m3=1e-7),
                                 min_soc=0.1)
        usable = usable_charge_c(state)
        # Demand far beyond the usable window: the step delivers only the
        # remainder and marks the state depleted.
        sustained = draw(state, usable, 2.0)  # requests 2x the usable charge
        assert sustained == pytest.approx(usable / 2.0)
        assert state.depleted
        assert state.state_of_charge == pytest.approx(0.1, abs=1e-6)
        assert state.fuel_utilization == pytest.approx(1.0)
        # Once depleted, no further current is sustained.
        assert draw(state, 1.0, 1.0) == 0.0

    def test_exact_drain_to_floor_depletes(self):
        state = ElectrolyteState(build_case_study_loop(volume_m3=1e-7),
                                 min_soc=0.2)
        usable = usable_charge_c(state)
        assert draw(state, usable, 1.0) == pytest.approx(usable)
        assert state.depleted

    def test_zero_current_is_free(self):
        state = ElectrolyteState(build_case_study_loop(volume_m3=1e-6))
        soc = state.state_of_charge
        assert draw(state, 0.0, 10.0) == 0.0
        assert state.state_of_charge == soc

    def test_write_back_resumes_bit_identically(self):
        """Stepping, writing back and re-snapshotting continues exactly
        where one long-lived lane array would have gone."""
        kept = ElectrolyteStateArray([
            ElectrolyteState(build_case_study_loop(volume_m3=1e-7))
        ])
        state = ElectrolyteState(build_case_study_loop(volume_m3=1e-7))
        for current in (3.0, 5.0, 7.0, 9.0) * 10:
            ref = kept.step(np.array([current]), 0.5)
            assert draw(state, current, 0.5) == float(ref[0])
            assert state.state_of_charge == float(kept.state_of_charge[0])
            assert state.depleted == bool(kept.depleted[0])

    def test_reservoirless_lane_passes_current_through(self):
        lanes = ElectrolyteStateArray([None])
        assert lanes.step(np.array([6.0]), 1.0).tolist() == [6.0]
        assert math.isnan(lanes.state_of_charge[0])
        lanes.write_back()  # nothing to store

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ElectrolyteState(min_soc=1.0)
        lanes = ElectrolyteStateArray([
            ElectrolyteState(build_case_study_loop(volume_m3=1e-6))
        ])
        with pytest.raises(ConfigurationError):
            lanes.step(np.array([1.0]), 0.0)
        with pytest.raises(ConfigurationError):
            lanes.step(np.array([-1.0]), 1.0)
