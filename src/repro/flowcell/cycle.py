"""Charge operation and round-trip efficiency of the flow-cell array.

A redox flow cell is a *secondary* battery (paper Section II): reversing
the current recharges the electrolytes, which is what ties the on-chip
network into a datacenter energy-storage story (the GreenDataNet context
the paper was funded under). During charge the electrode roles swap — the
negative electrode runs cathodically (V3+ -> V2+), the positive one
anodically (VO2+ -> VO2+) — and the terminal voltage sits *above* the OCV
by the same three loss terms.

This module builds the charging characteristic of a
:class:`~repro.flowcell.porous.FlowThroughPorousCell` from the same
electrode physics used for discharge, and computes the voltage/round-trip
efficiency of a symmetric charge/discharge cycle.
"""

from __future__ import annotations

import numpy as np

from repro.electrochem.nernst import equilibrium_potential
from repro.errors import ConfigurationError
from repro.flowcell.batch import march_electrodes, overpotential_grid
from repro.flowcell.cell import ElectrodeCharacteristic
from repro.flowcell.porous import FlowThroughPorousCell


def _charge_sweep(
    cell: FlowThroughPorousCell,
    use_anolyte: bool,
    n_samples: int,
    max_overpotential_v: float,
) -> ElectrodeCharacteristic:
    """Sweep one electrode in its *charging* direction.

    Returns an :class:`ElectrodeCharacteristic` whose current column is the
    charging-current magnitude (>= 0, increasing with driving potential).
    The potential axis is made increasing as the container requires; for
    the cathodically driven negative electrode the current magnitude then
    *decreases* along it, so the magnitude is stored against a flipped
    axis.
    """
    overpotentials = overpotential_grid(n_samples, max_overpotential_v)
    electrolyte = cell.spec.anolyte if use_anolyte else cell.spec.catholyte
    e_eq = equilibrium_potential(
        electrolyte.couple, electrolyte.conc_ox, electrolyte.conc_red,
        cell.temperature_k,
    )
    # Charging: anolyte electrode driven below E_eq (cathodic), catholyte
    # electrode above (anodic).
    sign = -1.0 if use_anolyte else +1.0
    # The reaction direction selects the consumed-species transport
    # properties: during charge the anolyte electrode runs cathodically
    # and vice versa.
    currents = march_electrodes(
        [cell], [electrolyte], not use_anolyte,
        (e_eq + sign * overpotentials)[None, :],
    )
    magnitudes = np.maximum.accumulate(np.abs(currents[0]))
    # Store |I|(overpotential) on an increasing pseudo-potential axis.
    return ElectrodeCharacteristic(overpotentials, magnitudes)


def charging_curve(
    cell: FlowThroughPorousCell,
    n_points: int = 40,
    n_potential_samples: int = 48,
    max_overpotential_v: float = 1.0,
):
    """Charging characteristic V_charge(I) of one channel (increasing).

    Returns ``(currents, voltages)`` arrays: terminal voltage required to
    push a charging current, starting at the OCV and rising with all three
    loss terms (the mirror image of the discharge curve).
    """
    if n_points < 2:
        raise ConfigurationError(f"n_points must be >= 2, got {n_points}")
    negative = _charge_sweep(cell, True, n_potential_samples, max_overpotential_v)
    positive = _charge_sweep(cell, False, n_potential_samples, max_overpotential_v)
    i_max = 0.97 * min(negative.max_current_a, positive.max_current_a)
    if i_max <= 0.0:
        raise ConfigurationError("cell cannot accept charging current")
    currents = np.linspace(0.0, i_max, n_points)
    ocv = cell.open_circuit_voltage_v
    voltages = np.empty_like(currents)
    for k, current in enumerate(currents):
        ov_neg = float(np.interp(current, negative.current_a, negative.potential_v))
        ov_pos = float(np.interp(current, positive.current_a, positive.potential_v))
        voltages[k] = ocv + ov_neg + ov_pos + current * cell.resistance_ohm
    return currents, voltages


def mid_soc_cell(
    cell: FlowThroughPorousCell, state_of_charge: float = 0.5
) -> FlowThroughPorousCell:
    """A copy of the cell with its electrolytes at a given state of charge.

    Cycle studies need a composition that can move in *both* directions;
    the Table II electrolytes are ~fully charged (1 mol/m^3 of the
    discharged species) and therefore accept almost no charging current —
    correct physics, but not the operating point at which round-trip
    efficiency is defined.
    """
    if not 0.0 < state_of_charge < 1.0:
        raise ConfigurationError("state of charge must be in (0, 1)")
    from repro.flowcell.cell import ColaminarCellSpec

    spec = cell.spec
    total_a = spec.anolyte.total_vanadium
    total_c = spec.catholyte.total_vanadium
    anolyte = spec.anolyte.with_concentrations(
        conc_ox=(1.0 - state_of_charge) * total_a,
        conc_red=state_of_charge * total_a,
    )
    catholyte = spec.catholyte.with_concentrations(
        conc_ox=state_of_charge * total_c,
        conc_red=(1.0 - state_of_charge) * total_c,
    )
    new_spec = ColaminarCellSpec(
        channel=spec.channel,
        anolyte=anolyte,
        catholyte=catholyte,
        volumetric_flow_m3_s=spec.volumetric_flow_m3_s,
        electronic_resistance_ohm=spec.electronic_resistance_ohm,
        ocv_adjustment_v=spec.ocv_adjustment_v,
    )
    return FlowThroughPorousCell(
        new_spec,
        electrode=cell.electrode,
        temperature_k=cell.temperature_k,
        n_segments=cell.n_segments,
    )


def voltage_efficiency(
    cell: FlowThroughPorousCell, current_a: float, n_potential_samples: int = 48
) -> float:
    """V_discharge / V_charge at the same current magnitude.

    With unit coulombic efficiency (no crossover in the plug-flow model)
    this is the round-trip energy efficiency of a symmetric cycle.
    Evaluate it on a :func:`mid_soc_cell` — at the Table II near-full
    composition the charge direction is transport-starved by construction.
    """
    if current_a <= 0.0:
        raise ConfigurationError("current must be > 0")
    discharge = cell.polarization_curve(
        n_points=50, n_potential_samples=n_potential_samples,
        max_overpotential_v=1.2,
    )
    if current_a > discharge.max_current_a:
        raise ConfigurationError(
            f"current {current_a:.3g} A beyond the discharge range "
            f"{discharge.max_current_a:.3g} A"
        )
    v_discharge = discharge.voltage_at_current(current_a)
    currents, voltages = charging_curve(
        cell, n_points=50, n_potential_samples=n_potential_samples,
        max_overpotential_v=1.2,
    )
    if current_a > currents[-1]:
        raise ConfigurationError(
            f"current {current_a:.3g} A beyond the charging range "
            f"{currents[-1]:.3g} A"
        )
    v_charge = float(np.interp(current_a, currents, voltages))
    return v_discharge / v_charge
