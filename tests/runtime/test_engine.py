"""Tests for the closed-loop runtime engine.

All engine runs here use the reduced 22 x 11 raster (trajectory KPIs are
raster-insensitive, as in the transient co-sim tests) and short traces,
so the whole module stays in test-suite time budgets.
"""

import json
import math

import numpy as np
import pytest

from repro.cosim import PolarizationSurface
from repro.errors import ConfigurationError
from repro.runtime import (
    BatchedRuntimeEngine,
    ElectrolyteState,
    FixedFlow,
    PIDFlowController,
    RuntimeConfig,
    RuntimeEngine,
    RuntimeResult,
    ThrottleGovernor,
    TraceSegment,
    WorkloadTrace,
    build_case_study_loop,
    step_trace,
)


def config(**overrides) -> RuntimeConfig:
    base = dict(nx=22, ny=11, control_dt_s=0.05)
    base.update(overrides)
    return RuntimeConfig(**base)


def short_step() -> WorkloadTrace:
    return step_trace(0.1, 1.0, hold_before_s=0.2, hold_after_s=0.4)


class TestRuntimeConfig:
    @pytest.mark.parametrize("kwargs", [
        {"control_dt_s": 0.0},
        {"flow_resolution_ml_min": 0.0},
        {"pump_efficiency": 0.0},
        {"pump_efficiency": 1.1},
        {"nx": 23},  # not a multiple of the 11 channel groups
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            config(**kwargs)


class TestEngineTrajectory:
    @pytest.fixture(scope="class")
    def fixed_result(self) -> RuntimeResult:
        engine = RuntimeEngine(FixedFlow(676.0), config=config())
        return engine.run(short_step())

    def test_covers_the_trace_exactly(self, fixed_result):
        trace = short_step()
        assert fixed_result.trace_name == "step"
        assert fixed_result.duration_s == pytest.approx(trace.duration_s)
        assert len(fixed_result.samples) == len(
            list(trace.iter_steps(0.05))
        )
        assert fixed_result.samples[-1].time_s == pytest.approx(
            trace.duration_s
        )

    def test_fixed_flow_is_represented_exactly(self, fixed_result):
        # The quantization grid is anchored at the controller's initial
        # flow, so the fixed nominal command is never snapped away.
        flows = {s.flow_ml_min for s in fixed_result.samples}
        assert flows == {676.0}

    def test_quantization_grid_is_anchored_at_the_initial_flow(self):
        engine = BatchedRuntimeEngine([FixedFlow(676.0)], config=config())

        def quantize(flow):
            return float(engine._quantize_flows(np.array([flow]))[0])

        assert quantize(676.0) == 676.0
        assert quantize(670.0) == 676.0   # nearest grid point
        assert quantize(655.0) == 660.0   # 676 - 16
        assert quantize(100.0) == 100.0   # 676 - 36*16
        # Commands can never quantize to zero or below.
        assert quantize(1.0) >= 16.0

    def test_step_heats_the_chip(self, fixed_result):
        samples = fixed_result.samples
        before = samples[3].peak_temperature_c   # end of the 0.1 phase
        after = samples[-1].peak_temperature_c
        assert after > before + 5.0
        # Generated current follows the warming coolant.
        assert samples[-1].array_current_a > samples[0].array_current_a

    def test_energy_kpis_are_consistent(self, fixed_result):
        k = fixed_result.kpis()
        assert k["net_energy_j"] == pytest.approx(
            k["harvested_energy_j"] - k["pumping_energy_j"]
        )
        assert k["mean_net_w"] == pytest.approx(
            k["net_energy_j"] / fixed_result.duration_s
        )
        assert k["n_samples"] == len(fixed_result.samples)
        assert k["violation_time_fraction"] == 0.0

    def test_records_export_one_row_per_sample(self, fixed_result, tmp_path):
        records = fixed_result.records()
        assert len(records) == len(fixed_result.samples)
        assert records[0]["workload"] == "full load"
        path = fixed_result.save_csv(tmp_path / "trajectory.csv")
        from repro.io import load_csv

        loaded = load_csv(path)
        assert len(loaded) == len(records)
        assert loaded[0]["flow_ml_min"] == 676.0

    def test_deterministic_across_engines(self, fixed_result):
        again = RuntimeEngine(FixedFlow(676.0), config=config()).run(
            short_step()
        )
        assert again.kpis() == pytest.approx(
            fixed_result.kpis(), nan_ok=True
        )

    def test_engine_is_reusable_across_runs(self):
        engine = RuntimeEngine(PIDFlowController(initial_flow_ml_min=300.0),
                               config=config())
        first = engine.run(short_step())
        second = engine.run(short_step())
        assert second.kpis() == pytest.approx(first.kpis(), nan_ok=True)


class TestClosedLoop:
    def test_pid_sheds_flow_on_a_cool_chip(self):
        engine = RuntimeEngine(
            PIDFlowController(initial_flow_ml_min=676.0), config=config()
        )
        result = engine.run(short_step())
        # The 22 x 11 raster runs far below the 78 C setpoint, so the
        # controller walks the flow down toward its minimum.
        assert result.samples[-1].flow_ml_min < 200.0
        assert result.mean_flow_ml_min < 676.0
        assert result.net_energy_j > 0.0

    def test_governor_throttles_and_recovers(self):
        # Trip thresholds placed inside the reduced raster's swing so
        # the hysteresis engages mid-trace without a huge model.
        governor = ThrottleGovernor(trip_peak_c=36.0, release_peak_c=34.0,
                                    throttle_scale=0.5)
        engine = RuntimeEngine(FixedFlow(676.0), governor=governor,
                               config=config())
        result = engine.run(step_trace(0.1, 1.0, hold_before_s=0.2,
                                       hold_after_s=1.0))
        assert 0.0 < result.throttled_time_fraction < 1.0
        throttled = [s for s in result.samples if s.throttled]
        assert all(s.activity_scale == 0.5 for s in throttled)
        # Throttling sheds real power: the hottest throttled sample stays
        # below the hottest unthrottled one.
        unthrottled_peak = max(
            s.peak_temperature_c for s in result.samples if not s.throttled
        )
        assert result.peak_temperature_c == pytest.approx(
            unthrottled_peak, abs=2.0
        )

    def test_violation_accounting(self):
        engine = RuntimeEngine(
            FixedFlow(676.0),
            config=config(temperature_limit_c=35.0),
        )
        result = engine.run(short_step())
        assert result.n_violations > 0
        assert 0.0 < result.violation_time_fraction <= 1.0
        assert result.peak_temperature_c > 35.0

    def test_boost_utilization_runs_hotter_than_full_load(self):
        def run(utilization):
            trace = WorkloadTrace("boost", (
                TraceSegment(0.3, utilization),
            ))
            return RuntimeEngine(FixedFlow(676.0), config=config()).run(trace)

        assert (
            run(1.5).peak_temperature_c > run(1.0).peak_temperature_c
        )


class TestReservoirCoupling:
    def test_soc_declines_along_the_trace(self):
        reservoir = ElectrolyteState(build_case_study_loop(volume_m3=1e-5))
        engine = RuntimeEngine(FixedFlow(676.0), reservoir=reservoir,
                               config=config())
        result = engine.run(short_step())
        socs = [s.state_of_charge for s in result.samples]
        assert socs[-1] < socs[0]
        assert not math.isnan(result.final_state_of_charge)

    def test_depletion_stops_generation(self):
        reservoir = ElectrolyteState(build_case_study_loop(volume_m3=1e-8))
        engine = RuntimeEngine(FixedFlow(676.0), reservoir=reservoir,
                               config=config())
        result = engine.run(short_step())
        assert reservoir.depleted
        assert result.samples[-1].generated_w == 0.0
        # Pumping continues regardless: net goes negative once the
        # reservoirs are spent.
        assert result.samples[-1].net_w < 0.0

    def test_back_to_back_runs_draw_down_the_same_tanks(self):
        """The run writes its final tanks back into the reservoir, so a
        second run starts exactly where the first one ended."""
        reservoir = ElectrolyteState(build_case_study_loop(volume_m3=1e-5))
        engine = RuntimeEngine(FixedFlow(676.0), reservoir=reservoir,
                               config=config())
        first = engine.run(short_step())
        assert reservoir.state_of_charge == first.final_state_of_charge
        second = RuntimeEngine(FixedFlow(676.0), reservoir=reservoir,
                               config=config()).run(short_step())
        # The first step of the second run draws from the first run's
        # final SOC (one step's draw below it), not from a fresh tank.
        fresh = RuntimeEngine(
            FixedFlow(676.0),
            reservoir=ElectrolyteState(build_case_study_loop(volume_m3=1e-5)),
            config=config(),
        ).run(short_step())
        drop = (
            fresh.samples[0].state_of_charge
            - reservoir.initial_soc
        )
        assert second.samples[0].state_of_charge == pytest.approx(
            first.final_state_of_charge + drop, rel=1e-9
        )
        assert second.final_state_of_charge < first.final_state_of_charge
        assert reservoir.state_of_charge == second.final_state_of_charge

    def test_without_reservoir_soc_is_nan(self):
        engine = RuntimeEngine(FixedFlow(676.0), config=config())
        result = engine.run(short_step())
        assert math.isnan(result.final_state_of_charge)


class TestBatchOfOne:
    def test_batch_of_n_matches_n_batches_of_one(self):
        """A lane's trajectory is bit-identical whether it runs in a
        mixed batch or alone through :class:`RuntimeEngine` (a batch of
        one): flows, temperatures, currents, SOC and throttle flags.
        Both runs start with cold polarization surfaces."""
        trace = step_trace(0.1, 1.0, hold_before_s=0.2, hold_after_s=1.0)

        def lanes():
            return [
                (FixedFlow(676.0), None, None),
                (
                    PIDFlowController(initial_flow_ml_min=300.0),
                    ThrottleGovernor(trip_peak_c=36.0, release_peak_c=34.0,
                                     throttle_scale=0.5),
                    ElectrolyteState(build_case_study_loop(volume_m3=1e-8)),
                ),
                (
                    PIDFlowController(kp=80.0, ki=0.0,
                                      initial_flow_ml_min=676.0),
                    ThrottleGovernor(),
                    ElectrolyteState(build_case_study_loop(volume_m3=1e-5)),
                ),
            ]

        controllers, governors, reservoirs = zip(*lanes())
        PolarizationSurface.clear_shared()
        batch = BatchedRuntimeEngine(
            controllers, governors, reservoirs, config()
        ).run(trace)
        for (controller, governor, reservoir), result in zip(lanes(), batch):
            PolarizationSurface.clear_shared()
            alone = RuntimeEngine(
                controller, governor, reservoir, config()
            ).run(trace)
            # Through JSON so nan SOCs (no reservoir) compare equal.
            assert json.dumps(alone.records()) == json.dumps(result.records())
