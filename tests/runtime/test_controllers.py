"""Tests for flow controllers and the throttle governor.

The control laws live once, in the lane arrays; these tests drive a
single controller or governor as a batch of one lane.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import RuntimeEngine
from repro.runtime.controllers import (
    FixedFlow,
    FlowController,
    PIDFlowController,
    ThrottleGovernor,
    VectorFlowControllers,
    VectorThrottleGovernors,
)


def one_lane(controller) -> VectorFlowControllers:
    return VectorFlowControllers([controller])


def command(lanes: VectorFlowControllers, peak_c: float, dt_s: float) -> float:
    return float(lanes.flow_commands(np.array([peak_c]), dt_s)[0])


def scale(
    governors: VectorThrottleGovernors, peak_c: float, net_w: float = 5.0
) -> float:
    return float(
        governors.scale_commands(np.array([peak_c]), np.array([net_w]))[0]
    )


class TestFixedFlow:
    def test_constant_command(self):
        controller = FixedFlow(676.0)
        assert controller.initial_flow_ml_min == 676.0
        lanes = one_lane(controller)
        assert command(lanes, 90.0, 0.05) == 676.0
        assert command(lanes, 20.0, 0.05) == 676.0

    def test_rejects_nonpositive_flow(self):
        with pytest.raises(ConfigurationError):
            FixedFlow(0.0)


class TestUnsupportedControllers:
    class Ramp(FlowController):
        """A custom policy the lane arrays cannot express."""

        initial_flow_ml_min = 676.0

    def test_lane_arrays_reject_custom_controllers(self):
        with pytest.raises(ConfigurationError, match="Ramp"):
            VectorFlowControllers([FixedFlow(676.0), self.Ramp()])

    def test_engine_rejects_custom_controllers(self):
        # Rejected up front instead of silently running a fixed flow.
        with pytest.raises(ConfigurationError):
            RuntimeEngine(self.Ramp())


class TestPIDFlowController:
    def test_hot_raises_cold_lowers(self):
        lanes = one_lane(PIDFlowController(target_peak_c=78.0, kp=40.0,
                                           ki=0.0, initial_flow_ml_min=300.0))
        hot = command(lanes, 80.0, 0.05)
        lanes.reset()
        cold = command(lanes, 76.0, 0.05)
        assert hot > 300.0 > cold
        # Pure proportional: symmetric errors move the command
        # symmetrically.
        assert hot - 300.0 == pytest.approx(300.0 - cold)

    def test_integral_accumulates(self):
        lanes = one_lane(PIDFlowController(target_peak_c=78.0, kp=0.0,
                                           ki=100.0, initial_flow_ml_min=300.0))
        first = command(lanes, 80.0, 0.1)
        second = command(lanes, 80.0, 0.1)
        assert second > first > 300.0

    def test_derivative_damps_a_rising_error(self):
        lanes = one_lane(PIDFlowController(target_peak_c=78.0, kp=0.0,
                                           ki=0.0, kd=10.0,
                                           initial_flow_ml_min=300.0))
        command(lanes, 79.0, 0.1)
        rising = command(lanes, 81.0, 0.1)
        assert rising > 300.0  # positive error slope pushes flow up

    def test_commands_clamp_to_actuator_range(self):
        lanes = one_lane(PIDFlowController(target_peak_c=78.0, kp=1e6,
                                           ki=0.0, min_flow_ml_min=60.0,
                                           max_flow_ml_min=1352.0,
                                           initial_flow_ml_min=300.0))
        assert command(lanes, 200.0, 0.05) == 1352.0
        assert command(lanes, 0.0, 0.05) == 60.0

    def test_anti_windup_freezes_integral_in_the_clamp(self):
        lanes = one_lane(PIDFlowController(target_peak_c=78.0, kp=0.0,
                                           ki=1000.0, min_flow_ml_min=60.0,
                                           max_flow_ml_min=400.0,
                                           initial_flow_ml_min=300.0))
        # A long cold stretch saturates at min flow but must not wind up.
        for _ in range(50):
            assert command(lanes, 40.0, 0.1) == 60.0
        wound = lanes._integrals_k_s.copy()
        for _ in range(50):
            command(lanes, 40.0, 0.1)
        assert np.array_equal(lanes._integrals_k_s, wound)
        # Recovery is immediate once the chip runs hot again.
        for _ in range(3):
            recovered = command(lanes, 85.0, 0.1)
        assert recovered > 60.0

    def test_reset_restores_initial_state(self):
        lanes = one_lane(PIDFlowController(ki=100.0,
                                           initial_flow_ml_min=300.0))
        command(lanes, 85.0, 0.1)
        lanes.reset()
        assert lanes._integrals_k_s.tolist() == [0.0]
        assert not lanes._has_previous

    @pytest.mark.parametrize("kwargs", [
        {"min_flow_ml_min": 0.0},
        {"min_flow_ml_min": 500.0, "max_flow_ml_min": 400.0},
        {"kp": -1.0},
        {"initial_flow_ml_min": 10.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            PIDFlowController(**kwargs)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigurationError):
            command(one_lane(PIDFlowController()), 80.0, 0.0)


class TestThrottleGovernor:
    def test_hysteresis_cycle(self):
        governors = VectorThrottleGovernors([ThrottleGovernor(
            trip_peak_c=85.0, release_peak_c=80.0, throttle_scale=0.7
        )])
        assert scale(governors, 84.9) == 1.0
        assert scale(governors, 85.0) == 0.7
        assert governors.throttled[0]
        # Between release and trip the throttle holds (no chatter).
        assert scale(governors, 82.0) == 0.7
        assert scale(governors, 79.9) == 1.0
        assert not governors.throttled[0]

    def test_net_power_floor_trips(self):
        governors = VectorThrottleGovernors([ThrottleGovernor(min_net_w=0.0)])
        assert scale(governors, 40.0, net_w=-1.0) == 0.7
        # Cool chip but still net-negative: stays throttled.
        assert scale(governors, 40.0, net_w=-0.5) == 0.7
        assert scale(governors, 40.0, net_w=1.0) == 1.0

    def test_reset_releases(self):
        governors = VectorThrottleGovernors([ThrottleGovernor()])
        scale(governors, 90.0)
        governors.reset()
        assert not governors.throttled[0]

    def test_ungoverned_lane_never_throttles(self):
        governors = VectorThrottleGovernors([None])
        assert scale(governors, 500.0, net_w=-100.0) == 1.0
        assert not governors.throttled[0]

    @pytest.mark.parametrize("kwargs", [
        {"trip_peak_c": 85.0, "release_peak_c": 85.0},
        {"throttle_scale": 0.0},
        {"throttle_scale": 1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ThrottleGovernor(**kwargs)
