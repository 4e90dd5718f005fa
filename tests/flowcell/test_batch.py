"""The batched plug-flow march vs the per-segment scalar reference."""

import numpy as np
import pytest

from repro.casestudy.power7plus import build_array_cell
from repro.errors import ConfigurationError
from repro.flowcell import cycle
from repro.flowcell.batch import batched_polarization_curves
from repro.flowcell.cycle import charging_curve, mid_soc_cell
from repro.sweep.evaluators import geometry_cell
from repro.sweep.spec import ScenarioSpec

from . import porous_oracle as oracle


class TestParity:
    def test_matches_scalar_across_flows(self):
        """Same curves as the scalar reference march, to round-off."""
        flows = [48.0, 169.0, 676.0, 1352.0]
        cells = [build_array_cell(flow) for flow in flows]
        batched = batched_polarization_curves(
            cells, n_points=40, max_overpotential_v=1.4
        )
        for cell, curve in zip(cells, batched):
            reference = oracle.polarization_curve(
                cell, n_points=40, max_overpotential_v=1.4
            )
            np.testing.assert_allclose(
                curve.current_a, reference.current_a, rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(
                curve.voltage_v, reference.voltage_v, rtol=1e-9, atol=1e-12
            )

    def test_matches_scalar_across_geometries(self):
        """Geometry-evaluator cells (varying width and per-channel flow)."""
        specs = [
            ScenarioSpec(evaluator="geometry", channel_width_um=width)
            for width in (100.0, 250.0, 400.0)
        ]
        cells = [geometry_cell(spec)[1] for spec in specs]
        batched = batched_polarization_curves(
            cells, n_points=30, max_overpotential_v=1.4
        )
        for cell, curve in zip(cells, batched):
            reference = oracle.polarization_curve(
                cell, n_points=30, max_overpotential_v=1.4
            )
            np.testing.assert_allclose(
                curve.current_a, reference.current_a, rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(
                curve.voltage_v, reference.voltage_v, rtol=1e-9, atol=1e-12
            )

    def test_matches_scalar_across_temperatures(self):
        """Temperature may vary within a batch (co-sim style cells)."""
        cells = [
            build_array_cell(676.0, temperature_k=t, temperature_dependent=True)
            for t in (300.0, 320.0, 350.0)
        ]
        batched = batched_polarization_curves(
            cells, n_points=40, max_overpotential_v=1.4
        )
        for cell, curve in zip(cells, batched):
            reference = oracle.polarization_curve(
                cell, n_points=40, max_overpotential_v=1.4
            )
            np.testing.assert_allclose(
                curve.current_a, reference.current_a, rtol=1e-9, atol=1e-12
            )
            assert curve.open_circuit_voltage_v == pytest.approx(
                reference.open_circuit_voltage_v, rel=1e-12
            )

    def test_single_cell_batch(self):
        cell = build_array_cell(338.0)
        (curve,) = batched_polarization_curves(
            [cell], n_points=40, max_overpotential_v=1.4
        )
        reference = oracle.polarization_curve(
            cell, n_points=40, max_overpotential_v=1.4
        )
        np.testing.assert_allclose(
            curve.current_a, reference.current_a, rtol=1e-9
        )
        # The scalar method is this batch of one.
        scalar = cell.polarization_curve(n_points=40, max_overpotential_v=1.4)
        np.testing.assert_array_equal(curve.current_a, scalar.current_a)
        np.testing.assert_array_equal(curve.voltage_v, scalar.voltage_v)

    @pytest.mark.parametrize("anodic", [True, False])
    def test_electrode_current_matches_scalar(self, anodic):
        cell = build_array_cell(676.0)
        electrolyte = cell.spec.anolyte if anodic else cell.spec.catholyte
        for potential in (-0.6, -0.26, 0.0, 0.4, 1.0, 1.4):
            expected = oracle.march(cell, electrolyte, potential, anodic)[0]
            got = cell.electrode_current(electrolyte, potential, anodic)
            assert got == pytest.approx(
                expected if anodic else -expected, rel=1e-9, abs=1e-12
            )

    def test_axial_profile_matches_scalar(self):
        cell = build_array_cell(169.0)
        anolyte = cell.spec.anolyte
        _, expected_ox, expected_red = oracle.march(cell, anolyte, 0.3, True)
        xs, conc_ox, conc_red = cell.axial_profile(anolyte, 0.3, True)
        assert xs.shape == conc_ox.shape == (cell.n_segments,)
        np.testing.assert_allclose(conc_ox, expected_ox, rtol=1e-9)
        np.testing.assert_allclose(conc_red, expected_red, rtol=1e-9)

    def test_charging_curve_matches_scalar(self, monkeypatch):
        cell = mid_soc_cell(build_array_cell(676.0))
        currents, voltages = charging_curve(cell, n_potential_samples=24)
        monkeypatch.setattr(cycle, "_charge_sweep", oracle.charge_sweep)
        ref_currents, ref_voltages = charging_curve(cell, n_potential_samples=24)
        np.testing.assert_allclose(currents, ref_currents, rtol=1e-9)
        np.testing.assert_allclose(voltages, ref_voltages, rtol=1e-9)


class TestBatchIndependence:
    def test_batch_of_n_is_n_batches_of_one(self):
        """A curve does not depend on the batch it rides in, to the bit."""
        cells = [
            build_array_cell(flow, temperature_k=t, temperature_dependent=True)
            for flow in (48.0, 169.0, 676.0, 1352.0)
            for t in (295.0, 310.5, 342.0)
        ]
        batched = batched_polarization_curves(cells, max_overpotential_v=1.4)
        for cell, curve in zip(cells, batched):
            (alone,) = batched_polarization_curves(
                [cell], max_overpotential_v=1.4
            )
            np.testing.assert_array_equal(curve.current_a, alone.current_a)
            np.testing.assert_array_equal(curve.voltage_v, alone.voltage_v)


class TestValidation:
    def test_empty_batch_is_empty(self):
        assert batched_polarization_curves([]) == []

    def test_mixed_segment_counts_rejected(self):
        cells = [
            build_array_cell(676.0, n_segments=40),
            build_array_cell(676.0, n_segments=25),
        ]
        with pytest.raises(ConfigurationError, match="segment count"):
            batched_polarization_curves(cells)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigurationError, match="n_samples"):
            batched_polarization_curves(
                [build_array_cell(676.0)], n_potential_samples=3
            )

    @pytest.mark.parametrize("max_overpotential_v", [0.0, -1.0, 5e-4, 1e-3])
    @pytest.mark.parametrize("builder", [
        lambda cell, v: cell.polarization_curve(max_overpotential_v=v),
        lambda cell, v: batched_polarization_curves([cell], max_overpotential_v=v),
        lambda cell, v: cell.electrode_characteristic(True, max_overpotential_v=v),
        lambda cell, v: charging_curve(mid_soc_cell(cell), max_overpotential_v=v),
    ], ids=["polarization", "batched", "characteristic", "charging"])
    def test_overpotential_ceiling_must_exceed_first_sample(
        self, builder, max_overpotential_v
    ):
        with pytest.raises(ConfigurationError, match="max_overpotential_v"):
            builder(build_array_cell(676.0, n_segments=4), max_overpotential_v)

    def test_charging_curve_rejects_too_few_samples(self):
        cell = mid_soc_cell(build_array_cell(676.0, n_segments=4))
        with pytest.raises(ConfigurationError, match="n_samples"):
            charging_curve(cell, n_potential_samples=1)
