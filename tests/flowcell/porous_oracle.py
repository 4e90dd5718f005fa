"""Reference plug-flow march: one :class:`FilmHalfCell` per segment.

An independent, deliberately scalar implementation of the porous-electrode
march that :func:`repro.flowcell.batch.march_electrodes` vectorizes. It
reuses the package's half-cell model segment by segment instead of the
kernel's closed-form array expressions, so the tests in ``test_batch.py``
compare the kernel against code that shares none of its arithmetic.
"""

import numpy as np

from repro.constants import FARADAY
from repro.electrochem.halfcell import FilmHalfCell
from repro.electrochem.nernst import equilibrium_potential
from repro.flowcell.cell import ElectrodeCharacteristic, assemble_polarization


def march(cell, electrolyte, potential_v, anodic):
    """Signed electrode current [A] (anodic positive) and the
    ``(conc_ox, conc_red)`` leaving every segment, at one potential."""
    couple = electrolyte.couple
    t = cell.temperature_k
    km = cell._km(couple.diffusivity_red(t) if anodic else couple.diffusivity_ox(t))
    area_per_segment = (
        cell.electrode.specific_surface_area_m2_m3 * cell._segment_volume_m3
    )
    n_f_q = couple.electrons * FARADAY * cell.spec.stream_flow_m3_s

    conc_ox, conc_red = electrolyte.conc_ox, electrolyte.conc_red
    total = 0.0
    profile_ox = np.empty(cell.n_segments)
    profile_red = np.empty(cell.n_segments)
    for k in range(cell.n_segments):
        half = FilmHalfCell(
            couple=couple, conc_ox=conc_ox, conc_red=conc_red,
            mass_transfer_coefficient=km, temperature_k=t,
        )
        segment = half.current_at_potential(potential_v) * area_per_segment
        if segment > 0.0:
            segment = min(segment, 0.999 * conc_red * n_f_q)
        else:
            segment = max(segment, -0.999 * conc_ox * n_f_q)
        conc_red -= segment / n_f_q
        conc_ox += segment / n_f_q
        total += segment
        profile_ox[k], profile_red[k] = conc_ox, conc_red
    return total, profile_ox, profile_red


def _overpotentials(n_samples, max_overpotential_v):
    return np.concatenate(
        ([0.0], np.geomspace(1e-3, max_overpotential_v, n_samples - 1))
    )


def electrode_characteristic(cell, anodic, n_samples=48, max_overpotential_v=1.0):
    """Discharge-direction I(E), one scalar march per potential."""
    electrolyte = cell.spec.anolyte if anodic else cell.spec.catholyte
    e_eq = equilibrium_potential(
        electrolyte.couple, electrolyte.conc_ox, electrolyte.conc_red,
        cell.temperature_k,
    )
    sign = 1.0 if anodic else -1.0
    potentials = e_eq + sign * _overpotentials(n_samples, max_overpotential_v)
    currents = np.array([
        march(cell, electrolyte, potential, anodic)[0] for potential in potentials
    ])
    order = np.argsort(potentials)
    return ElectrodeCharacteristic(
        potentials[order], np.maximum.accumulate(currents[order])
    )


def polarization_curve(
    cell, n_points=40, n_potential_samples=48, max_overpotential_v=1.0
):
    """Full-cell V(I) from the two reference characteristics."""
    return assemble_polarization(
        electrode_characteristic(
            cell, True, n_potential_samples, max_overpotential_v
        ),
        electrode_characteristic(
            cell, False, n_potential_samples, max_overpotential_v
        ),
        cell.resistance_ohm,
        ocv_adjustment_v=cell.spec.ocv_adjustment_v,
        n_points=n_points,
    )


def charge_sweep(cell, use_anolyte, n_samples, max_overpotential_v):
    """Charging-direction |I|(overpotential) of one electrode."""
    electrolyte = cell.spec.anolyte if use_anolyte else cell.spec.catholyte
    e_eq = equilibrium_potential(
        electrolyte.couple, electrolyte.conc_ox, electrolyte.conc_red,
        cell.temperature_k,
    )
    sign = -1.0 if use_anolyte else 1.0
    overpotentials = _overpotentials(n_samples, max_overpotential_v)
    magnitudes = np.array([
        abs(march(cell, electrolyte, e_eq + sign * ov, not use_anolyte)[0])
        for ov in overpotentials
    ])
    return ElectrodeCharacteristic(
        overpotentials, np.maximum.accumulate(magnitudes)
    )
