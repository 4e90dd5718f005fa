"""Per-layer timing for the traced benchmark run.

The benchmark times the program's layers from the outside: it wraps a
fixed list of public functions and methods (``LAYER_TARGETS``) with a
timer, and reads the deterministic counters the program already keeps
in :mod:`repro.obs`. Nothing here edits the program; :func:`install`
returns a handle whose :meth:`Installed.restore` puts every original
object back.

Every ``<layer>_s`` figure is *self* time: the time spent inside the
wrapped calls of that layer minus the time spent in wrapped calls of any
layer nested inside them. Self times of different layers therefore never
overlap and can be ranked against each other.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: ``(layer, "module:qualname", item counter)``. The counter maps
#: ``(args, result)`` to the work items one call did; ``None`` counts one
#: per call and ``False`` counts none (a call that only adds time).
LAYER_TARGETS: "tuple[tuple[str, str, Any], ...]" = (
    ("flowcell.scalar_curve",
     "repro.flowcell.porous:FlowThroughPorousCell.polarization_curve", None),
    ("flowcell.batched_curve",
     "repro.flowcell.batch:batched_polarization_curves",
     lambda args, result: len(result)),
    ("cosim.run", "repro.cosim.coupling:ElectroThermalCosim.run", None),
    ("cosim.run", "repro.cosim.transient:TransientCosim.run_step_response",
     None),
    ("cosim.run", "repro.cosim.batch:batched_step_responses", None),
    ("thermal.build", "repro.thermal.model:ThermalModel.__init__", None),
    ("thermal.build", "repro.thermal.model:ThermalModel._build_system", False),
    ("thermal.solve", "repro.thermal.model:ThermalModel.warm", None),
    ("thermal.solve", "repro.thermal.model:ThermalModel.solve_steady", None),
    ("thermal.solve", "repro.thermal.model:ThermalModel.solve_transient",
     None),
    ("thermal.solve", "repro.thermal.batch:AnchoredSteadySolver.solve", None),
    ("thermal.solve",
     "repro.thermal.batch:AnchoredSteadySolver.solve_columns", None),
    ("thermal.solve",
     "repro.thermal.batch:AnchoredTransientSolver.solve_steady_columns",
     None),
    ("thermal.solve",
     "repro.thermal.batch:AnchoredTransientSolver.step_columns", None),
    ("runtime.run", "repro.runtime.engine:RuntimeEngine.run", None),
    ("runtime.run", "repro.runtime.engine:BatchedRuntimeEngine.run", None),
    ("fleet.table", "repro.fleet.chip:ChipTable.build", None),
    ("fleet.allocate", "repro.fleet.supply:allocate", None),
    ("sweep.runner", "repro.sweep.runner:SweepRunner.run", None),
    ("sweep.backend", "repro.sweep.backends:SerialBackend.evaluate", None),
    ("sweep.backend", "repro.sweep.backends:ProcessBackend.evaluate", None),
    ("sweep.backend", "repro.sweep.backends:VectorizedBackend.evaluate",
     None),
    ("store.get", "repro.store.core:ResultStore.get", None),
    ("store.hit", "repro.store.core:ResultStore.get",
     lambda args, result: int(result is not None)),
    ("store.put", "repro.store.core:ResultStore.put", None),
    ("io.encode", "repro.io:csv_dumps", None),
    ("io.encode", "repro.io:dumps", None),
)

#: Per-layer metrics read from the program's own ``repro.obs`` counters:
#: ``metric -> counter names summed`` (``warm.`` prefix: the snapshot's
#: warmth-dependent section).
OBS_COUNTERS: "dict[str, tuple[str, ...]]" = {
    "cosim.surface_node_builds": (
        "warm.surface.node_builds", "warm.surface.nodes_warmed",
    ),
    "cosim.interpolations": ("surface.interpolations",),
    "thermal.factorizations": ("thermal.steady.factorizations",),
    "thermal.anchored_solves": ("thermal.steady.anchored_solves",),
    "thermal.gmres_iterations": ("thermal.gmres.iterations",),
    "thermal.transient_column_steps": ("thermal.transient.column_steps",),
    "runtime.steps": ("runtime.steps",),
    "fleet.allocation_iterations": ("fleet.allocation.iterations",),
    "fleet.steps": ("fleet.steps",),
    "sweep.evaluations": ("sweep.evaluations",),
    "store.evictions": ("sweep.cache.evictions",),
}


#: Modules whose by-name bindings of a wrapped function are rebound too.
_REBIND_PREFIX = "repro"


def _resolve(path: str) -> "tuple[Any, str]":
    """``module:Outer.name`` -> (owner object, attribute name)."""
    module_name, qualname = path.split(":")
    owner: Any = importlib.import_module(module_name)
    *outer, name = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


@dataclass
class LayerStats:
    """Calls, work items and self time of one layer."""

    calls: int = 0
    items: int = 0
    self_s: float = 0.0


class LayerClock:
    """Self-time accounting shared by every wrapper of one run.

    A per-thread stack of open calls: when a wrapped call ends, its
    duration is charged to its own layer minus whatever nested wrapped
    calls already took, and the whole duration is handed to the caller's
    frame as child time.
    """

    def __init__(self) -> None:
        self.stats: "dict[str, LayerStats]" = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def timed(
        self, layers: "list[tuple[str, Any]]", fn: Callable
    ) -> Callable:
        """``fn`` wrapped to charge its calls to ``layers``.

        The first layer takes the self time; every layer takes the item
        count its counter gives.
        """

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    for position, (layer, counter) in enumerate(layers):
                        stats = self.stats.setdefault(layer, LayerStats())
                        if position == 0:
                            stats.self_s += elapsed - frame[0]
                        if counter is None:
                            stats.calls += 1
                        elif counter is not False:
                            stats.items += counter(args, result)

        return wrapper


@dataclass
class Installed:
    """Handle of one :func:`install`; :meth:`restore` undoes it."""

    clock: LayerClock
    patches: "list[tuple[Any, str, Any]]" = field(default_factory=list)
    missing: "list[str]" = field(default_factory=list)

    def restore(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def install(targets=LAYER_TARGETS) -> Installed:
    """Wrap every target (all ``repro`` modules get the wrapped object).

    A module-level function is also replaced wherever another loaded
    ``repro`` module bound it by name (``from repro.io import dumps``).
    A target that no longer exists is skipped and listed in
    :attr:`Installed.missing`, so the report shows which layers went
    unmeasured instead of failing the run.
    """
    clock = LayerClock()
    handle = Installed(clock)
    grouped: "dict[str, list[tuple[str, Any]]]" = {}
    for layer, path, counter in targets:
        grouped.setdefault(path, []).append((layer, counter))
    for path, layers in grouped.items():
        try:
            owner, name = _resolve(path)
            raw = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError):
            handle.missing.append(path)
            continue
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(clock.timed(layers, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(clock.timed(layers, raw.__func__))
        else:
            replacement = clock.timed(layers, raw)
        handle.patches.append((owner, name, raw))
        setattr(owner, name, replacement)
        if inspect.ismodule(owner):
            for module_name, module in list(sys.modules.items()):
                if module is owner or not module_name.startswith(
                    _REBIND_PREFIX
                ):
                    continue
                if getattr(module, name, None) is raw:
                    handle.patches.append((module, name, raw))
                    setattr(module, name, replacement)
    return handle


def _obs_value(snapshot: "dict[str, Any]", name: str) -> int:
    if name.startswith("warm."):
        return int(snapshot["warm"]["counters"].get(name[5:], 0))
    return int(snapshot["counters"].get(name, 0))


def obs_counts(snapshot: "dict[str, Any]") -> "dict[str, int]":
    """The ``OBS_COUNTERS`` metrics from one ``repro.obs`` snapshot."""
    return {
        metric: sum(_obs_value(snapshot, name) for name in names)
        for metric, names in OBS_COUNTERS.items()
    }


def clock_counts(stats: "dict[str, LayerStats]") -> "dict[str, float]":
    """The wrapper-derived per-layer metrics (counts and self times)."""

    def get(layer: str) -> LayerStats:
        return stats.get(layer, LayerStats())

    gets = get("store.get").calls
    return {
        "flowcell.scalar_curves": get("flowcell.scalar_curve").calls,
        "flowcell.scalar_curve_s": get("flowcell.scalar_curve").self_s,
        "flowcell.batched_curves": get("flowcell.batched_curve").items,
        "flowcell.batched_curve_s": get("flowcell.batched_curve").self_s,
        "cosim.run_s": get("cosim.run").self_s,
        "thermal.model_builds": get("thermal.build").calls,
        "thermal.build_s": get("thermal.build").self_s,
        "thermal.solve_s": get("thermal.solve").self_s,
        "runtime.run_s": get("runtime.run").self_s,
        "fleet.table_s": get("fleet.table").self_s,
        "fleet.allocate_s": get("fleet.allocate").self_s,
        "sweep.backend_s": get("sweep.backend").self_s,
        "sweep.runner_self_s": get("sweep.runner").self_s,
        "store.gets": gets,
        "store.hit_ratio": get("store.hit").items / gets if gets else 0.0,
        "store.get_s": get("store.get").self_s,
        "store.puts": get("store.put").calls,
        "store.put_s": get("store.put").self_s,
        "io.encode_s": get("io.encode").self_s,
    }


def stats_to_json(stats: "dict[str, LayerStats]") -> "dict[str, list]":
    return {
        layer: [entry.calls, entry.items, entry.self_s]
        for layer, entry in stats.items()
    }


def stats_from_json(payload: "dict[str, list]") -> "dict[str, LayerStats]":
    return {
        layer: LayerStats(int(calls), int(items), float(self_s))
        for layer, (calls, items, self_s) in payload.items()
    }
