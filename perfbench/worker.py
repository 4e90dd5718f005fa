"""One benchmark process: set up a workload, run it, check its outputs.

Started by ``run.py`` in a fresh interpreter with the BLAS/OpenMP thread
pools pinned to one thread (set in the environment before numpy loads)::

    python3 perfbench/worker.py --workload sweep-serial --seed 1 \
        --seconds 24 --mode timed --out result.json --tmp DIR

It prints ``READY`` on its own line when set-up is over and the first
timed job is about to start; ``run.py`` times set-up up to that line.

Modes:

- ``setup`` — set up, print ``READY``, tear down (repeated set-up samples);
- ``timed`` — the untraced rounds ``--seconds`` buys
  (``schedule.rounds_for``), then the output checks; writes latencies,
  round times and peak RSS;
- ``trace`` — a fixed number of rounds untraced and the same rounds with
  the layer wrappers and ``repro.obs`` recording (sweeps: the first
  traced round first, see :func:`traced_sweep`); writes the per-layer
  metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import probe  # noqa: E402
import schedule  # noqa: E402

#: Sweep rounds of a trace run, run once untraced and once traced
#: (``serve-warm`` traces the rounds of a timed run).
TRACE_SWEEP_ROUNDS = 3
#: Relative tolerance of every record check (the program's own
#: batched-vs-scalar contract, ``repro.sweep.vectorized.EQUIVALENCE_RTOL``).
RTOL = 1e-6
REFERENCE_DIR = HERE / "reference"


# -- output checks --------------------------------------------------------------------


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def mismatch(got: Any, ref: Any, rtol: float = RTOL, where: str = "") -> str:
    """Empty when ``got`` matches ``ref`` (numbers within ``rtol``,
    relative or absolute), else a description of the first difference."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or list(got) != list(ref):
            return f"{where}: keys {list(got)[:6]} != {list(ref)[:6]}"
        for key in ref:
            found = mismatch(got[key], ref[key], rtol, f"{where}.{key}")
            if found:
                return found
        return ""
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: length differs"
        for index, (g, r) in enumerate(zip(got, ref)):
            found = mismatch(g, r, rtol, f"{where}[{index}]")
            if found:
                return found
        return ""
    if _is_number(ref) and _is_number(got):
        if abs(got - ref) <= max(rtol * abs(ref), rtol):
            return ""
        return f"{where}: {got!r} != {ref!r}"
    if type(got) is type(ref) and got == ref:
        return ""
    return f"{where}: {got!r} != {ref!r}"


def load_reference(name: str) -> Any:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- in-process sweep jobs --------------------------------------------------------------


def reset_caches() -> None:
    """Drop every process-wide memo cache, as a fresh process starts.

    Each cache is reset through its own function. A function that the
    program no longer has raises, so a renamed cache cannot quietly turn
    cold jobs warm.
    """
    from repro.cosim import surface
    from repro.fleet import fleet
    from repro.runtime import engine
    from repro.sweep import evaluators, vectorized

    clears = [
        (fleet, "clear_shared_runner"),
        (engine, "clear_model_store"),
        (vectorized, "clear_caches"),
        (getattr(surface, "PolarizationSurface", None), "clear_shared"),
        (getattr(evaluators, "_peak_temperature_c", None), "cache_clear"),
        (getattr(evaluators, "_array", None), "cache_clear"),
    ]
    for owner, name in clears:
        clear = getattr(owner, name, None)
        if clear is None:
            raise RuntimeError(
                f"cannot reset a cache: {getattr(owner, '__name__', owner)}"
                f".{name} is gone"
            )
        clear()
    gc.collect()


def fleet_spec(**overrides: Any):
    from repro.fleet import FleetSpec

    return FleetSpec(**{**schedule.FLEET_BASE, **overrides})


def run_preset(name: str, backend: str) -> "list[dict[str, Any]]":
    from repro.store import ResultStore
    from repro.sweep import SweepRunner, get_preset

    runner = SweepRunner(backend=backend, cache=ResultStore())
    return runner.run(get_preset(name).expand()).records()


class SweepWorkload:
    """``sweep-serial`` / ``sweep-batched``: closed loop, one caller."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.backend = "serial" if name == "sweep-serial" else "vectorized"
        self.references = load_reference("sweeps")
        self.fleet_reference = load_reference("fleet")
        self.fleet_runner: Any = None
        self.failures: "list[str]" = []

    def setup(self) -> None:
        """Import what the jobs use (so no job pays for an import)."""
        import repro.casestudy.power7plus  # noqa: F401
        import repro.cosim.batch  # noqa: F401
        import repro.cosim.transient  # noqa: F401
        import repro.flowcell.batch  # noqa: F401
        import repro.store  # noqa: F401

        reset_caches()

    def _check(self, job: "dict[str, Any]", got: Any, ref: Any) -> bool:
        # Through JSON, as the references were stored (tuples -> lists).
        got = json.loads(json.dumps(got))
        found = mismatch(got, ref, where=job_label(job))
        if found:
            self.failures.append(found)
        return not found

    def run_job(self, job: "dict[str, Any]") -> "tuple[float, bool]":
        """Run one job; returns (latency [s], output correct)."""
        from repro.fleet import FleetEngine
        from repro.store import ResultStore
        from repro.sweep import SweepRunner

        kind = job["kind"]
        if kind == "what-if":
            spec = fleet_spec(
                policy=job["policy"],
                supply_per_chip_ml_min=job["supply"],
                trace_seed=job["trace_seed"],
                skew=job["skew"],
            )
            start = time.perf_counter()
            kpis = FleetEngine(spec, runner=self.fleet_runner).run().kpis()
            elapsed = time.perf_counter() - start
            key = schedule.what_if_key(
                job["policy"], job["supply"], job["trace_seed"], job["skew"]
            )
            return elapsed, self._check(
                job, kpis, self.fleet_reference["what_if"][key]
            )
        reset_caches()
        if kind == "fleet-cold":
            self.fleet_runner = SweepRunner(
                backend="vectorized", cache=ResultStore()
            )
            start = time.perf_counter()
            result = FleetEngine(fleet_spec(), runner=self.fleet_runner).run()
            got = {"kpis": result.kpis(), "records": result.records()}
            elapsed = time.perf_counter() - start
            return elapsed, self._check(job, got, self.fleet_reference["cold"])
        start = time.perf_counter()
        records = run_preset(job["name"], self.backend)
        elapsed = time.perf_counter() - start
        return elapsed, self._check(
            job, records, self.references[job["name"]]
        )


def job_label(job: "dict[str, Any]") -> str:
    if job["kind"] == "preset":
        return f"preset:{job['name']}"
    if job["kind"] == "what-if":
        return "what-if:" + schedule.what_if_key(
            job["policy"], job["supply"], job["trace_seed"], job["skew"]
        )
    return job["kind"]


# -- timed and traced sweep phases ---------------------------------------------------------


def sweep_phase(
    workload: SweepWorkload,
    n_rounds: int,
    on_job: "Callable[[dict, float], None] | None" = None,
    first_round: int = 0,
) -> "dict[str, Any]":
    """Run ``n_rounds`` rounds from ``first_round``; a round's time is the
    sum of its job latencies (the cache resets between jobs are not
    timed).

    The speed probe runs before every cold job and at the end of each
    round; a cold job and the what-ifs after it are converted to
    reference seconds with the two probes around them.
    """
    latencies: "list[float]" = []
    round_s: "list[float]" = []
    round_ref_s: "list[float]" = []
    what_if_s = 0.0
    attempted = failed = 0
    for index in range(first_round, first_round + n_rounds):
        jobs = schedule.sweep_round(workload.name, workload.seed, index)
        total = reference = segment = 0.0
        before = probe.probe_s()
        for job in jobs:
            if job["kind"] != "what-if" and segment:
                after = probe.probe_s()
                reference += probe.to_reference(segment, [before, after])
                before, segment = after, 0.0
            attempted += 1
            try:
                elapsed, ok = workload.run_job(job)
            except Exception as error:  # noqa: BLE001 - a job failure is counted
                workload.failures.append(
                    f"{job_label(job)}: {type(error).__name__}: {error}"
                )
                failed += 1
                continue
            failed += not ok
            latencies.append(elapsed)
            total += elapsed
            segment += elapsed
            if job["kind"] == "what-if":
                what_if_s += elapsed
            if on_job is not None:
                on_job(job, elapsed)
        reference += probe.to_reference(segment, [before, probe.probe_s()])
        round_s.append(total)
        round_ref_s.append(reference)
    return {
        "latencies_s": latencies,
        "round_s": round_s,
        "round_ref_s": round_ref_s,
        "what_if_s": what_if_s,
        "attempted": attempted,
        "failed": failed,
    }


def traced_sweep(workload: SweepWorkload) -> "dict[str, Any]":
    """``TRACE_SWEEP_ROUNDS`` rounds traced and the same rounds untraced.

    Traced round 0 is the first thing the process runs, so there every
    cold job's counters are those of its first run. The later traced
    rounds run after the untraced ones: a process-wide cache that
    :func:`reset_caches` misses is full by then, the job's counters
    differ from round 0, and the job counts as failed. The tracing
    overhead compares the rounds after round 0, which both modes run
    after the process's first-run costs.
    """
    first = _traced_sweep_phase(workload, 0, 1)
    untraced = sweep_phase(workload, TRACE_SWEEP_ROUNDS)
    later = _traced_sweep_phase(workload, 1, TRACE_SWEEP_ROUNDS - 1)
    signatures: "dict[str, list[dict[str, int]]]" = {}
    for phase in (first, later):
        for label, signature in phase["signatures"]:
            signatures.setdefault(label, []).append(signature)
    cold_failures = []
    for label, rounds in signatures.items():
        if any(signature != rounds[0] for signature in rounds[1:]):
            keys = set().union(*rounds)
            diff = sorted(
                key for key in keys
                if len({r.get(key, 0) for r in rounds}) > 1
            )
            cold_failures.append(f"{label}: counters differ from its "
                                 f"first run: {diff}")
    workload.failures.extend(cold_failures)
    stats: "dict[str, layers.LayerStats]" = {}
    for phase in (first, later):
        for layer, entry in phase["stats"].items():
            total = stats.setdefault(layer, layers.LayerStats())
            total.calls += entry.calls
            total.items += entry.items
            total.self_s += entry.self_s
    counts = [layers.obs_counts(phase["snapshot"]) for phase in (first, later)]
    metrics = {
        **layers.clock_counts(stats),
        **{key: sum(c[key] for c in counts) for key in counts[0]},
        "serve.queue_wait_ms": 0.0,
        "serve.service_ms": 0.0,
    }
    phases = (first["phase"], untraced, later["phase"])
    return {
        "traced_rounds": TRACE_SWEEP_ROUNDS,
        "untraced_ref_s": sum(untraced["round_ref_s"][1:]),
        "traced_ref_s": sum(later["phase"]["round_ref_s"]),
        "attempted": sum(phase["attempted"] for phase in phases),
        "failed": sum(phase["failed"] for phase in phases),
        "layers": metrics,
        "self_s": _self_times(stats),
        "cold_checked_jobs": len(signatures),
        "check_failures": len(cold_failures),
        "missing_targets": first["missing"],
    }


def _traced_sweep_phase(
    workload: SweepWorkload, first_round: int, n_rounds: int
) -> "dict[str, Any]":
    """Rounds with the layer wrappers and a ``repro.obs`` session on;
    every cold job's deterministic counts are kept as its signature."""
    from repro import obs

    handle = layers.install()
    session = obs.start()
    signatures: "list[tuple[str, dict[str, int]]]" = []
    previous = _counts(session, handle.clock)

    def on_job(job: "dict[str, Any]", elapsed: float) -> None:
        nonlocal previous
        current = _counts(session, handle.clock)
        if job["kind"] != "what-if":
            signatures.append((job_label(job), {
                key: value - previous.get(key, 0)
                for key, value in current.items()
                if value != previous.get(key, 0)
            }))
        previous = current

    try:
        phase = sweep_phase(workload, n_rounds, on_job, first_round)
    finally:
        obs.stop()
        handle.restore()
    return {
        "phase": phase,
        "signatures": signatures,
        "stats": handle.clock.stats,
        "snapshot": session.snapshot(),
        "missing": handle.missing,
    }


def _counts(session: Any, clock: "layers.LayerClock") -> "dict[str, int]":
    """Every deterministic count so far: obs counters (both sections)
    and wrapper call/item counts."""
    snapshot = session.snapshot()
    counts = dict(snapshot["counters"])
    counts.update(
        {f"warm.{k}": v for k, v in snapshot["warm"]["counters"].items()}
    )
    for layer, stats in clock.stats.items():
        counts[f"{layer}.calls"] = stats.calls
        counts[f"{layer}.items"] = stats.items
    return counts


def _self_times(stats: "dict[str, layers.LayerStats]") -> "dict[str, float]":
    return {layer: entry.self_s for layer, entry in stats.items()}


# -- serve-warm ----------------------------------------------------------------------------


class ServeWorkload:
    """``serve-warm``: a ``repro serve`` subprocess, two closed-loop
    connections from this process."""

    def __init__(self, seed: int, tmp: Path, traced: bool = False) -> None:
        self.seed = seed
        self.tmp = tmp
        self.traced = traced
        self.proc: "subprocess.Popen | None" = None
        self.port = 0
        self.stats_path = tmp / "server-stats.json"
        self.mark_path = tmp / "server-mark.json"
        #: (preset, points) -> every distinct (csv, json) reply seen
        self.replies: "dict[tuple[str, int], set]" = {}
        self.failures: "list[str]" = []

    def setup(self) -> None:
        from repro.serve import ServeClient

        store = self.tmp / "store"
        store.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable, str(HERE / "serve_main.py"),
            "--store", str(store), "--stats-out", str(self.stats_path),
            "--mark-out", str(self.mark_path),
        ]
        if self.traced:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on ", 1)[1].split()[0]
                        .rsplit(":", 1)[1])
        client = ServeClient(port=self.port)
        for preset, points in schedule.REPLAY_SET:
            result = client.submit(
                "sweep", preset=preset, points=points
            ).require()
            self._remember(preset, points, result)
        if self.traced:
            self.mark_path.unlink(missing_ok=True)
            self.proc.send_signal(signal.SIGUSR1)
            _wait_for(self.mark_path)

    def _remember(self, preset: str, points: int, result: dict) -> None:
        self.replies.setdefault((preset, points), set()).add(
            (result["csv"], result["json"])
        )

    def close(self) -> "dict[str, Any]":
        """Stop the server; returns what it wrote on exit."""
        if self.proc is None:
            return {}
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None
        if not self.stats_path.exists():
            return {}
        return json.loads(self.stats_path.read_text(encoding="utf-8"))

    def phase(self, n_rounds: int) -> "dict[str, Any]":
        """``n_rounds`` rounds of requests over two connections; a round
        ends when both connections have drained its requests."""
        from repro.serve import ServeClient

        samples: "list[tuple[float, float, float, bool]]" = []
        round_s: "list[float]" = []
        round_ref_s: "list[float]" = []
        attempted = failed = 0
        lock = threading.Lock()
        before = probe.probe_s()
        for index in range(n_rounds):
            queue = list(reversed(
                schedule.serve_round(self.seed, index, n_rounds)
            ))

            def loop() -> None:
                nonlocal attempted, failed
                client = ServeClient(port=self.port)
                while True:
                    with lock:
                        if not queue:
                            return
                        job = queue.pop()
                        attempted += 1
                    try:
                        outcome = _submit(client, job)
                    except OSError:
                        outcome = None
                    with lock:
                        if outcome is None:
                            failed += 1
                            self.failures.append(
                                f"serve {job['preset']}@{job['points']} failed"
                            )
                            continue
                        submitted, started, done, result = outcome
                        samples.append(
                            (done - submitted, started - submitted,
                             done - started, job["miss"])
                        )
                        self._remember(job["preset"], job["points"], result)

            round_start = time.perf_counter()
            threads = [threading.Thread(target=loop) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            round_s.append(time.perf_counter() - round_start)
            after = probe.probe_s()
            round_ref_s.append(probe.to_reference(round_s[-1], [before, after]))
            before = after
        return {
            "latencies_s": [s[0] for s in samples],
            "queue_wait_s": [s[1] for s in samples],
            "service_s": [s[2] for s in samples],
            "miss_service_s": sum(s[2] for s in samples if s[3]),
            "round_s": round_s,
            "round_ref_s": round_ref_s,
            "attempted": attempted,
            "failed": failed,
        }

    def check(self) -> int:
        """Compare every reply with the in-process export of the same job
        (byte for byte) and the replay set with the references; returns
        the number of mismatching jobs."""
        from repro.io import csv_dumps, dumps
        from repro.store import ResultStore
        from repro.sweep import SweepRunner, get_preset

        references = load_reference("sweeps")
        bad = 0
        for (preset, points), seen in sorted(self.replies.items()):
            runner = SweepRunner(backend="vectorized", cache=ResultStore())
            records = runner.run(get_preset(preset).expand(points)).records()
            expected = (csv_dumps(records), dumps(records) + "\n")
            label = f"serve {preset}@{points}"
            if seen != {expected}:
                bad += 1
                self.failures.append(f"{label}: reply bytes differ "
                                     "from the in-process export")
            if (preset, points) in schedule.REPLAY_SET:
                found = mismatch(records, references[preset], where=label)
                if found:
                    bad += 1
                    self.failures.append(found)
        return bad


def _submit(client: Any, job: "dict[str, Any]"):
    """One request; (submitted, started, done, result) or ``None``."""
    submitted = time.perf_counter()
    started = submitted
    for event in client.stream("sweep", preset=job["preset"],
                               points=job["points"]):
        kind = event.get("event")
        if kind == "started":
            started = time.perf_counter()
        elif kind == "done":
            return submitted, started, time.perf_counter(), event["result"]
        elif kind == "error":
            return None
    return None


def _wait_for(path: Path, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not path.exists():
        if time.monotonic() > deadline:
            raise RuntimeError(f"server wrote no {path.name}")
        time.sleep(0.005)


def traced_serve(seed: int, tmp: Path, rounds: int) -> "dict[str, Any]":
    """The timed run's ``rounds`` twice, each on a fresh server: untraced,
    then traced."""
    untraced_load = ServeWorkload(seed, tmp / "untraced")
    try:
        untraced_load.setup()
        untraced = untraced_load.phase(rounds)
    finally:
        untraced_load.close()
    load = ServeWorkload(seed, tmp / "traced", traced=True)
    try:
        load.setup()
        traced = load.phase(rounds)
    finally:
        server = load.close()
    check_failures = untraced_load.check() + load.check()
    failures = untraced_load.failures + load.failures
    mark = json.loads(load.mark_path.read_text(encoding="utf-8"))
    after = layers.stats_from_json(server.get("layers", {}))
    before = layers.stats_from_json(mark.get("layers", {}))
    stats = {
        layer: layers.LayerStats(
            entry.calls - before.get(layer, layers.LayerStats()).calls,
            entry.items - before.get(layer, layers.LayerStats()).items,
            entry.self_s - before.get(layer, layers.LayerStats()).self_s,
        )
        for layer, entry in after.items()
    }
    obs_after = server.get("obs", {})
    obs_before = mark.get("obs", {})
    metrics = {
        **layers.clock_counts(stats),
        **{k: v - obs_before.get(k, 0) for k, v in obs_after.items()},
        "serve.queue_wait_ms": 1000.0 * statistics.median(traced["queue_wait_s"]),
        "serve.service_ms": 1000.0 * statistics.median(traced["service_s"]),
    }
    return {
        "traced_rounds": rounds,
        "untraced_ref_s": sum(untraced["round_ref_s"]),
        "traced_ref_s": sum(traced["round_ref_s"]),
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "miss_service_share": (
            traced["miss_service_s"] / sum(traced["service_s"])
        ),
        "layers": metrics,
        "self_s": _self_times(stats),
        "cold_checked_jobs": 0,
        "check_failures": check_failures,
        "missing_targets": server.get("missing_targets", []),
        "failures": failures,
    }


# -- entry point ----------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ready() -> None:
    print("READY", flush=True)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=schedule.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "trace"))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)

    rounds = schedule.rounds_for(args.workload, args.seconds)
    result: "dict[str, Any]"
    if args.workload == "serve-warm":
        if args.mode == "trace":
            ready()
            result = traced_serve(args.seed, args.tmp, rounds)
        else:
            load = ServeWorkload(args.seed, args.tmp)
            try:
                load.setup()
                ready()
                if args.mode == "setup":
                    result = {}
                else:
                    result = load.phase(rounds)
            finally:
                server = load.close()
            if args.mode == "timed":
                result["failed"] += load.check()
                result["peak_rss_mb"] = server["peak_rss_mb"]
                result["failures"] = load.failures
    else:
        workload = SweepWorkload(args.workload, args.seed)
        workload.setup()
        ready()
        if args.mode == "setup":
            result = {}
        elif args.mode == "timed":
            result = sweep_phase(workload, rounds)
            result["peak_rss_mb"] = peak_rss_mb()
            result["failures"] = workload.failures
        else:
            result = traced_sweep(workload)
            result["failures"] = workload.failures
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
