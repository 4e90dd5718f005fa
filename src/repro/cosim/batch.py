"""Transient co-simulation: step responses marched together.

:func:`batched_step_responses` is the one implementation of the
step-response march; :meth:`~repro.cosim.transient.TransientCosim.
run_step_response` runs a single case as a batch of one. A transient
*sweep* runs dozens of trajectories whose thermal systems are nearly
identical — the ``transient`` preset varies utilization pairs and step
sizes far more often than it varies the matrix-defining knobs (flow,
inlet, raster) — and the march exploits that structure:

- scenarios sharing ``(flow, inlet, nx, ny)`` share one
  :class:`~repro.thermal.model.ThermalModel` — one sparse assembly, one
  steady LU for the initial conditions, one backward-Euler LU per distinct
  half step size;
- scenarios additionally sharing ``(duration, dt)`` march in *lockstep*:
  their states ride as stacked columns through
  :class:`~repro.thermal.batch.AnchoredTransientSolver`, so each time step
  costs one multi-RHS triangular solve instead of one solve per scenario;
- sampling reads each column's channel-group temperatures off the shared
  :class:`~repro.cosim.surface.PolarizationSurface` — but first
  *prefills* the surface: the group temperatures of all columns at each
  sample time go through
  :meth:`~repro.cosim.surface.PolarizationSurface.warm_nodes`, so missing
  node curves are marched as one batch per sample time instead of one
  per column's query.

Equivalence: a case's trajectory — temperatures and currents — is
*bit-exact* whatever batch it rides in: SuperLU solves a multi-column
right-hand side column by column, every column is copied contiguous
before sampling so reductions see the same memory layout, and the
porous march builds each node curve independently of the rest of its
batch — a prefilled node equals one built by a query bit for bit, so
warming changes cost, never results. That matters because the temperatures feed
discontinuous decisions downstream (settling-band exits here, control
branches in the runtime layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cosim.coupling import CosimConfig, group_coolant_temperatures
from repro.cosim.surface import surface_for, warm_surfaces
from repro.cosim.transient import TransientSample
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StepResponseCase:
    """One utilization-step scenario of a batched transient run."""

    config: CosimConfig
    utilization_before: float
    utilization_after: float
    duration_s: float
    dt_s: float


def batched_step_responses(
    cases: "Sequence[StepResponseCase]",
) -> "list[list[TransientSample]]":
    """Step-response trajectories for every case, batch-marched.

    Returns one sample list per case, in input order. Each case starts
    at the steady state of ``utilization_before``, switches to
    ``utilization_after`` at t = 0, and is sampled every ``dt_s`` for
    ``duration_s``; when ``duration_s`` is not an integer multiple of
    ``dt_s``, a final partial step lands the last sample exactly at
    ``duration_s``.
    """
    from repro.casestudy.power7plus import (
        build_thermal_model,
        full_load_power_map,
    )
    from repro.thermal.batch import AnchoredTransientSolver

    for case in cases:
        if (
            case.duration_s <= 0.0
            or case.dt_s <= 0.0
            or case.dt_s > case.duration_s
        ):
            raise ConfigurationError("need 0 < dt <= duration")

    # Model families: cases sharing the matrix-defining knobs. Within a
    # family, (duration, dt) sub-groups march in lockstep.
    families: "dict[tuple, dict[tuple, list[int]]]" = {}
    for index, case in enumerate(cases):
        config = case.config
        family = families.setdefault(
            (
                config.total_flow_ml_min,
                config.inlet_temperature_k,
                config.nx,
                config.ny,
            ),
            {},
        )
        family.setdefault((case.duration_s, case.dt_s), []).append(index)

    results: "list[list[TransientSample] | None]" = [None] * len(cases)
    for (flow, inlet, nx, ny), marches in sorted(families.items()):
        # One model for the whole family: utilization only scales the
        # right-hand side, so the assembly and factorizations are shared.
        model = build_thermal_model(
            nx=nx, ny=ny,
            total_flow_ml_min=flow,
            inlet_temperature_k=inlet,
        )
        solver = AnchoredTransientSolver(model)
        model._build_system()  # materialize the source-free base RHS
        _, base_rhs = model._structure
        offset = model._field("active_si").offset
        span = slice(offset, offset + nx * ny)
        for (duration_s, dt_s), indices in sorted(marches.items()):
            columns_before = np.repeat(
                base_rhs[:, None], len(indices), axis=1
            )
            columns_after = columns_before.copy()
            configs = []
            for k, index in enumerate(indices):
                case = cases[index]
                columns_before[span, k] += full_load_power_map(
                    nx, ny, utilization=case.utilization_before
                ).ravel()
                columns_after[span, k] += full_load_power_map(
                    nx, ny, utilization=case.utilization_after
                ).ravel()
                configs.append(case.config)
            states = solver.solve_steady_columns(columns_before)

            trajectories: "list[list[TransientSample]]" = [
                [] for _ in configs
            ]
            _sample_columns(configs, model, states, 0.0, trajectories)
            for step_s, time_s in _step_schedule(duration_s, dt_s):
                for _ in range(2):  # each sample interval as two half steps
                    states = solver.step_columns(
                        states, columns_after, step_s / 2.0
                    )
                _sample_columns(configs, model, states, time_s, trajectories)
            for k, index in enumerate(indices):
                results[index] = trajectories[k]
    return [samples for samples in results if samples is not None]


def _step_schedule(
    duration_s: float, dt_s: float
) -> "list[tuple[float, float]]":
    """``(step, sample time)`` pairs of one march.

    Full ``dt_s`` steps (the step size is passed *exactly*, so every full
    step shares one cached factorization), then one partial step landing
    exactly at ``duration_s``. The float guard keeps an exact multiple
    (e.g. 0.5 / 0.05) at exactly ``duration_s / dt_s`` full steps rather
    than growing a sliver step.
    """
    n_full = int(duration_s / dt_s + 1e-9)
    remainder = duration_s - n_full * dt_s
    schedule = [(dt_s, dt_s * i) for i in range(1, n_full + 1)]
    if remainder > 1e-9 * dt_s:
        schedule.append((remainder, duration_s))
    else:
        schedule[-1] = (dt_s, duration_s)
    return schedule


def _sample_columns(
    configs: "list[CosimConfig]",
    model,
    states: np.ndarray,
    time_s: float,
    trajectories: "list[list[TransientSample]]",
) -> None:
    """Append every column's sample at one time to its trajectory."""
    for k, values in enumerate(sample_columns(model, states, configs)):
        trajectories[k].append(TransientSample(time_s, *values))


def sample_columns(
    model, states: np.ndarray, configs: "Sequence[CosimConfig]"
) -> "list[tuple[float, float, float]]":
    """Peak junction [degC], mean coolant [degC] and array current [A]
    of every thermal state column, column ``k`` under ``configs[k]``.

    The one sampling step of the dynamic layers (step responses and the
    runtime engine). All columns' channel-group temperatures go through
    :meth:`~repro.cosim.surface.PolarizationSurface.warm_nodes` before
    any current lookup, so missing node curves are marched as one batch
    instead of one batch per first-touching column's query (the curves
    are the same either way). Each column is
    copied contiguous first: numpy's pairwise reductions can round
    differently on strided views, and a column must sample
    bit-identically whatever batch it rides in.
    """
    from repro.thermal.solver import ThermalSolution

    solutions = [
        ThermalSolution(
            temperatures_k=np.ascontiguousarray(states[:, k]), model=model
        )
        for k in range(len(configs))
    ]
    group_temps = [
        group_coolant_temperatures(solution, config)
        for solution, config in zip(solutions, configs)
    ]
    surfaces = [surface_for(config) for config in configs]
    warm_surfaces(zip(surfaces, group_temps))
    samples = []
    for solution, config, surface, temps in zip(
        solutions, configs, surfaces, group_temps
    ):
        current = surface.currents_at(temps, config.operating_voltage_v)
        fluid = solution.field("channels", "fluid")
        samples.append((
            solution.peak_celsius,
            float(fluid.mean()) - 273.15,
            float(current.sum()),
        ))
    return samples
