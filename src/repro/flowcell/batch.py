"""The plug-flow porous-electrode march (vectorized across cells).

:func:`march_electrodes` is the one implementation of the
porous-electrode march in the package: every
:class:`~repro.flowcell.porous.FlowThroughPorousCell` current, electrode
characteristic, axial profile, polarization curve and charging sweep is
a call into it. A single cell is a batch of one.

The march is closed-form in every segment — Nernst potential, exchange
current and the film-model Butler-Volmer current are all elementary
functions of the local concentrations — so the only *sequential* axis is
the axial segment index. Across cells (different flows, channel widths,
temperatures) and across the potential samples of one sweep, everything
is independent, so the whole batch marches as ``(cell, potential-sample)``
numpy arrays, one segment at a time. For a design sweep touching a dozen
flow rates this is ~tens of array operations for every curve at once —
the electrical half of the :class:`~repro.sweep.backends.VectorizedBackend`
speedup.

Batch independence: every operation of the march is elementwise, and
each row is sorted and assembled on its own, so a cell's curve is
bit-identical whatever batch it rides in — a batch of N is N batches of
one. ``tests/flowcell/test_batch.py`` pins that, and checks the march
against an independent per-segment :class:`~repro.electrochem.halfcell.
FilmHalfCell` reference within a 1e-9 relative band.

Requirements on a batch: every cell must use the same segment count and
the same curve sampling (the callers in :mod:`repro.sweep.vectorized`
batch per evaluator, which fixes both); compositions, flows, geometries
and temperatures may all vary cell to cell.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.constants import FARADAY, GAS_CONSTANT
from repro.electrochem.nernst import CONCENTRATION_FLOOR, equilibrium_potential
from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError
from repro.flowcell.cell import ElectrodeCharacteristic, assemble_polarization

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flowcell.porous import FlowThroughPorousCell
    from repro.materials.electrolyte import Electrolyte

#: Exponent clip: extreme overpotentials saturate at the transport
#: limits instead of overflowing.
_EXPONENT_CLIP = 500.0

#: Smallest nonzero overpotential [V] of a sweep grid.
_FIRST_OVERPOTENTIAL_V = 1e-3


def overpotential_grid(n_samples: int, max_overpotential_v: float) -> np.ndarray:
    """The overpotential samples [V] of one electrode sweep.

    Zero, then ``n_samples - 1`` log-spaced values from 1 mV up to
    ``max_overpotential_v`` — resolving both the kinetic knee and the
    transport plateau. Raises :class:`ConfigurationError` for fewer than
    4 samples or a ceiling not above 1 mV.
    """
    if n_samples < 4:
        raise ConfigurationError(f"n_samples must be >= 4, got {n_samples}")
    if not max_overpotential_v > _FIRST_OVERPOTENTIAL_V:
        raise ConfigurationError(
            f"max_overpotential_v must be > {_FIRST_OVERPOTENTIAL_V:g} V, "
            f"got {max_overpotential_v!r}"
        )
    return np.concatenate((
        [0.0],
        np.geomspace(_FIRST_OVERPOTENTIAL_V, max_overpotential_v, n_samples - 1),
    ))


def march_electrodes(
    cells: "Sequence[FlowThroughPorousCell]",
    electrolytes: "Sequence[Electrolyte]",
    anodic: bool,
    potentials_v: np.ndarray,
    record_profile: bool = False,
) -> "np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Electrode currents of a batch of cells at fixed electrode potentials.

    Marches the plug flow of each cell's ``electrolytes[b]`` through the
    axial segments at every potential ``potentials_v[b, s]`` (shape
    ``(cells, samples)``), reacting each segment at the local
    composition. ``anodic`` is the reaction direction whose consumed
    species' transport properties apply (the reduced species for an
    anodic electrode, the oxidised one otherwise).

    Returns the signed electrode currents [A] (anodic positive), shape
    ``(cells, samples)``. With ``record_profile`` it returns
    ``(currents, conc_ox, conc_red)``, the concentrations [mol/m^3]
    leaving every segment with shape ``(cells, samples, segments)``.
    """
    segment_counts = {cell.n_segments for cell in cells}
    if len(segment_counts) != 1:
        raise ConfigurationError(
            "a batch must share one segment count, got "
            f"{sorted(segment_counts)}"
        )
    (n_segments,) = segment_counts

    # Per-cell scalars, shaped (B, 1) so they broadcast over samples.
    def column(values: "list[float]") -> np.ndarray:
        return np.asarray(values, dtype=float)[:, None]

    couples = [electrolyte.couple for electrolyte in electrolytes]
    temperatures = [cell.temperature_k for cell in cells]
    km = column([
        cell._km(
            couple.diffusivity_red(t) if anodic else couple.diffusivity_ox(t)
        )
        for cell, couple, t in zip(cells, couples, temperatures)
    ])
    area_per_segment = column([
        cell.electrode.specific_surface_area_m2_m3 * cell._segment_volume_m3
        for cell in cells
    ])
    electrons = column([couple.electrons for couple in couples])
    alpha = column([couple.transfer_coefficient for couple in couples])
    k0 = column([
        couple.rate_constant(t) for couple, t in zip(couples, temperatures)
    ])
    e_standard = column([
        couple.standard_potential_at(t)
        for couple, t in zip(couples, temperatures)
    ])
    n_f_q = column([
        couple.electrons * FARADAY * cell.spec.stream_flow_m3_s
        for cell, couple in zip(cells, couples)
    ])
    f_over_rt = electrons * FARADAY / (
        GAS_CONSTANT * column(temperatures)
    )
    nernst_slope = 1.0 / f_over_rt
    nfk = electrons * FARADAY * km

    # March state: local concentrations per (cell, sample).
    potentials = np.asarray(potentials_v, dtype=float)
    shape = potentials.shape
    conc_ox = np.broadcast_to(
        column([e.conc_ox for e in electrolytes]), shape
    ).copy()
    conc_red = np.broadcast_to(
        column([e.conc_red for e in electrolytes]), shape
    ).copy()
    total_current = np.zeros(shape)
    profile_ox, profile_red = [], []

    for _ in range(n_segments):
        e_eq = e_standard + nernst_slope * np.log(
            np.maximum(conc_ox, CONCENTRATION_FLOOR)
            / np.maximum(conc_red, CONCENTRATION_FLOOR)
        )
        eta = potentials - e_eq
        # Exchange current j0 = n*F*k0 * C_ox^a * C_red^(1-a); a depleted
        # species zeroes it, which zeroes the segment current.
        j0 = electrons * FARADAY * k0 * conc_ox**alpha * conc_red ** (
            1.0 - alpha
        )
        # Film-model Butler-Volmer in closed form (see
        # FilmHalfCell.current_at_overpotential).
        exp_a = np.exp(np.minimum((1.0 - alpha) * f_over_rt * eta, _EXPONENT_CLIP))
        exp_c = np.exp(np.minimum(-alpha * f_over_rt * eta, _EXPONENT_CLIP))
        denominator = (
            1.0
            + _masked_ratio(j0 * exp_a, nfk * conc_red)
            + _masked_ratio(j0 * exp_c, nfk * conc_ox)
        )
        j = j0 * (exp_a - exp_c) / denominator
        segment_current = j * area_per_segment
        # Plug-flow Faradaic cap: a segment cannot convert more than
        # 99.9 % of the reactant its throughflow carries.
        segment_current = np.where(
            segment_current > 0.0,
            np.minimum(segment_current, 0.999 * conc_red * n_f_q),
            np.maximum(segment_current, -0.999 * conc_ox * n_f_q),
        )
        delta_c = segment_current / n_f_q
        conc_red = conc_red - delta_c
        conc_ox = conc_ox + delta_c
        total_current = total_current + segment_current
        if record_profile:
            profile_ox.append(conc_ox)
            profile_red.append(conc_red)

    if record_profile:
        return (
            total_current,
            np.stack(profile_ox, axis=-1),
            np.stack(profile_red, axis=-1),
        )
    return total_current


def _masked_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator where the denominator is positive, else 0.

    The zero branch covers a fully depleted species, whose j0 factor
    already zeroes the current.
    """
    out = np.zeros(np.broadcast_shapes(numerator.shape, denominator.shape))
    np.divide(
        numerator,
        denominator,
        out=out,
        where=np.broadcast_to(denominator > 0.0, out.shape),
    )
    return out


def electrode_characteristics(
    cells: "Sequence[FlowThroughPorousCell]",
    anodic: bool,
    n_samples: int,
    max_overpotential_v: float,
) -> "list[ElectrodeCharacteristic]":
    """Discharge-direction I(E) of one electrode side of every cell.

    The fuel electrode (``anodic=True``) sweeps upward from its inlet
    equilibrium potential, the oxidant electrode downward, over
    :func:`overpotential_grid`. Each characteristic is in *signed
    electrode current* (anodic positive) on an increasing potential
    axis, as :func:`assemble_polarization` expects.
    """
    overpotentials = overpotential_grid(n_samples, max_overpotential_v)
    electrolytes = [
        cell.spec.anolyte if anodic else cell.spec.catholyte for cell in cells
    ]
    e_eq_inlet = np.array([
        equilibrium_potential(
            electrolyte.couple, electrolyte.conc_ox, electrolyte.conc_red,
            cell.temperature_k,
        )
        for cell, electrolyte in zip(cells, electrolytes)
    ])
    sign = 1.0 if anodic else -1.0
    potentials = e_eq_inlet[:, None] + sign * overpotentials[None, :]
    currents = march_electrodes(cells, electrolytes, anodic, potentials)

    characteristics = []
    for row_potentials, row_currents in zip(potentials, currents):
        order = np.argsort(row_potentials)
        # Guard against round-off kinks; physically I(E) is monotone.
        characteristics.append(ElectrodeCharacteristic(
            row_potentials[order], np.maximum.accumulate(row_currents[order])
        ))
    return characteristics


def batched_polarization_curves(
    cells: "Sequence[FlowThroughPorousCell]",
    n_points: int = 40,
    n_potential_samples: int = 48,
    max_overpotential_v: float = 1.0,
) -> "list[PolarizationCurve]":
    """Full-cell polarization curves for a batch of porous cells at once.

    The batched form of ``cell.polarization_curve(n_points,
    n_potential_samples, max_overpotential_v)``, which is this function
    on a batch of one; returns the curves in input order. All cells must
    share one segment count (the sampling arguments already apply
    batch-wide).

    Example
    -------
    >>> from repro.casestudy.power7plus import build_array_cell
    >>> cells = [build_array_cell(flow) for flow in (338.0, 676.0)]
    >>> curves = batched_polarization_curves(cells, max_overpotential_v=1.4)
    >>> (alone,) = batched_polarization_curves(
    ...     cells[1:], max_overpotential_v=1.4
    ... )
    >>> bool((alone.current_a == curves[1].current_a).all()
    ...      and (alone.voltage_v == curves[1].voltage_v).all())
    True
    """
    if not cells:
        return []
    negatives = electrode_characteristics(
        cells, True, n_potential_samples, max_overpotential_v
    )
    positives = electrode_characteristics(
        cells, False, n_potential_samples, max_overpotential_v
    )
    return [
        assemble_polarization(
            negative,
            positive,
            cell.resistance_ohm,
            ocv_adjustment_v=cell.spec.ocv_adjustment_v,
            n_points=n_points,
            label=f"porous cell @ {cell.temperature_k:.1f} K",
        )
        for cell, negative, positive in zip(cells, negatives, positives)
    ]
