"""Regenerate the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes ``perfbench/reference/sweeps.json`` (each sweep preset's records
at its default points, serial backend) and ``perfbench/reference/
fleet.json`` (the reduced cold fleet job and every fleet what-if of the
``sweep-batched`` workload). Run it only for a change that is meant to
alter the program's outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import schedule  # noqa: E402
from worker import REFERENCE_DIR, fleet_spec, reset_caches, run_preset  # noqa: E402


def main() -> int:
    from repro.fleet import FleetEngine
    from repro.store import ResultStore
    from repro.sweep import SweepRunner

    sweeps = {}
    for name in schedule.SERIAL_PRESETS:
        reset_caches()
        sweeps[name] = run_preset(name, "serial")
    reset_caches()
    runner = SweepRunner(backend="vectorized", cache=ResultStore())
    result = FleetEngine(fleet_spec(), runner=runner).run()
    fleet = {
        "cold": {"kpis": result.kpis(), "records": result.records()},
        "what_if": {},
    }
    for params in schedule.all_what_ifs():
        spec = fleet_spec(
            policy=params["policy"],
            supply_per_chip_ml_min=params["supply"],
            trace_seed=params["trace_seed"],
            skew=params["skew"],
        )
        key = schedule.what_if_key(**params)
        fleet["what_if"][key] = FleetEngine(spec, runner=runner).run().kpis()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, payload in (("sweeps", sweeps), ("fleet", fleet)):
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
