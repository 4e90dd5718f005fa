"""The repository's benchmark: cold sweeps, batched sweeps + fleet, warm serve.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 24 --trace 0

Workloads (inputs generated from ``--seed``; see ``schedule.py``):

- ``sweep-serial``  — closed loop, one caller: the seven non-fleet sweep
  presets through ``SweepRunner(backend="serial")``, each cold (fresh
  store, every process-wide memo cache reset), in a seeded order.
- ``sweep-batched`` — closed loop, one caller: the six batch-kernel
  presets through the vectorized backend plus one cold reduced fleet
  job (8 chips, 4 flows x 9 utilizations), each cold, and a seeded burst
  of warm fleet what-ifs over that chip table.
- ``serve-warm``    — a ``repro serve --backend vectorized`` subprocess
  over a disk store; two closed-loop connections replay a pre-warmed
  set of sweep jobs, with a seeded share of fresh ``vrm`` sweeps that
  miss the store.

``--trace 0`` times the fixed amount of work ``--seconds`` buys and prints
the end-to-end metrics: ``setup_s`` (fresh interpreter to first timed
job, median of several set-ups), ``wall_ref_s`` (how long the timed jobs
took) and ``peak_rss_mb`` (the server process on ``serve-warm``), then
the measured times, the throughput, the latency percentiles and the
error rate. Gated times are in reference seconds (``probe.py``).
``--trace 1`` runs a fixed number of rounds untraced and traced, and
prints the per-layer table and the tracing overhead. Every job's
output is checked (``worker.py``); the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``README.md`` for the metric definitions and why each was chosen.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import schedule  # noqa: E402

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A worker process that runs longer than this is killed.
WORKER_TIMEOUT_S = 150.0

#: The gated metrics; times are in reference seconds (``probe.py``).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Per-layer metrics of the traced run, in report order.
PER_LAYER = (
    ("flowcell.scalar_curves", "count"),
    ("flowcell.scalar_curve_s", "s"),
    ("flowcell.batched_curves", "count"),
    ("flowcell.batched_curve_s", "s"),
    ("cosim.surface_node_builds", "count"),
    ("cosim.interpolations", "count"),
    ("cosim.run_s", "s"),
    ("thermal.model_builds", "count"),
    ("thermal.build_s", "s"),
    ("thermal.factorizations", "count"),
    ("thermal.anchored_solves", "count"),
    ("thermal.gmres_iterations", "count"),
    ("thermal.transient_column_steps", "count"),
    ("thermal.solve_s", "s"),
    ("runtime.steps", "count"),
    ("runtime.run_s", "s"),
    ("fleet.table_s", "s"),
    ("fleet.allocate_s", "s"),
    ("fleet.allocation_iterations", "count"),
    ("fleet.steps", "count"),
    ("sweep.evaluations", "count"),
    ("sweep.backend_s", "s"),
    ("sweep.runner_self_s", "s"),
    ("store.gets", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.get_s", "s"),
    ("store.puts", "count"),
    ("store.put_s", "s"),
    ("store.evictions", "count"),
    ("io.encode_s", "s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("trace.untraced_ref_s", "s"),
    ("trace.traced_ref_s", "s"),
    ("trace.overhead_pct", "%"),
)
#: The base each ratio in the per-layer table is taken over.
RATIO_BASES = {
    "store.hit_ratio": "store.gets",
    "trace.overhead_pct": "trace.untraced_ref_s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> "dict[str, str]":
    """The program on ``PYTHONPATH``; one BLAS/OpenMP thread, so the
    numpy-heavy layers do not contend with the second connection or the
    server for the two cores."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: argparse.Namespace, mode: str, tmp: Path) -> "tuple[float, dict]":
    """One worker process; returns (set-up seconds, its result)."""
    work = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=tmp))
    out = work / "result.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--out", str(out), "--tmp", str(work),
    ]
    start = time.perf_counter()
    # Own process group, so a timeout also stops the worker's server.
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=worker_env(),
        cwd=ROOT, start_new_session=True,
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(WORKER_TIMEOUT_S, kill_group)
    timer.start()
    try:
        assert proc.stdout is not None
        setup_s = None
        for line in proc.stdout:
            if line.strip() == "READY" and setup_s is None:
                setup_s = time.perf_counter() - start
            else:
                print(line, end="", file=sys.stderr)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
    if code != 0 or setup_s is None or not out.exists():
        raise BenchError(f"{mode} worker failed (exit code {code})")
    return setup_s, json.loads(out.read_text(encoding="utf-8"))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def timed_run(args: argparse.Namespace, tmp: Path) -> dict:
    setups, setups_ref = [], []
    for sample in range(SETUP_SAMPLES):
        before = probe.probe_s()
        mode = "timed" if sample == SETUP_SAMPLES - 1 else "setup"
        setup_s, result = run_worker(args, mode, tmp)
        # The timed worker keeps running after set-up: probe before only.
        around = [before] if mode == "timed" else [before, probe.probe_s()]
        setups.append(setup_s)
        setups_ref.append(probe.to_reference(setup_s, around))
    latencies = result["latencies_s"]
    wall_s = sum(result["round_s"])
    wall_ref_s = sum(result["round_ref_s"])
    metrics = {
        "setup_s": statistics.median(setups_ref),
        "wall_ref_s": wall_ref_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(result['round_s'])}  jobs {len(latencies)}  "
          "(times in reference seconds: see probe.py)")
    for name, unit in END_TO_END:
        print(f"  {name:<22} {_fmt(metrics[name]):>12} {unit}")
    print(f"  {'measured setup_s':<22} {_fmt(statistics.median(setups)):>12} s"
          "    (samples: " + " ".join(_fmt(x) for x in setups) + ")")
    print(f"  {'measured wall_s':<22} {_fmt(wall_s):>12} s")
    # The job count is fixed by --seconds, so the throughput carries the
    # same information as the wall time: shown, not gated.
    print(f"  {'throughput_ref_jobs_s':<22} "
          f"{_fmt(len(latencies) / wall_ref_s):>12} 1/s")
    print(f"  {'measured jobs/s':<22} {_fmt(len(latencies) / wall_s):>12} 1/s")
    if result.get("what_if_s"):
        print(f"  {'what-if share':<22} {_fmt(result['what_if_s'] / wall_s):>12}"
              "    (timed-phase time spent on warm fleet what-ifs)")
    if "miss_service_s" in result:
        share = result["miss_service_s"] / sum(result["service_s"])
        print(f"  {'miss service share':<22} {_fmt(share):>12}"
              "    (server time spent on store misses)")
    # Latency percentiles are reported, not gated: see README.md.
    for q in (50, 99):
        value = schedule.percentile(latencies, q)
        shown = (f"{_fmt(1000.0 * value):>12} ms" if value is not None
                 else f"{'n/a':>12}    (fewer than "
                      f"{schedule.MIN_SAMPLES_BEYOND} samples beyond it)")
        print(f"  {f'latency_p{q}_ms':<22} {shown}  [n={len(latencies)}]")
    print(f"  {'error_rate':<22} {_fmt(failed / attempted):>12}"
          f"    ({failed} of {attempted} jobs failed or wrong)")
    return {
        "correct": failed == 0 and not result["failures"],
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END
        },
    }


def trace_run(args: argparse.Namespace, tmp: Path) -> dict:
    _, result = run_worker(args, "trace", tmp)
    layer = dict(result["layers"])
    untraced_s = result["untraced_ref_s"]
    traced_s = result["traced_ref_s"]
    layer["trace.untraced_ref_s"] = untraced_s
    layer["trace.traced_ref_s"] = traced_s
    layer["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    attempted = result["attempted"]
    failed = result["failed"] + result["check_failures"]
    print(f"workload {args.workload}  seed {args.seed}  traced run: "
          f"{result['traced_rounds']} rounds untraced and the same rounds "
          "traced")
    print(f"  {'layer metric':<32} {'value':>14}  unit")
    for name, unit in PER_LAYER:
        base = RATIO_BASES.get(name)
        note = f"  (base: {base} = {_fmt(layer[base])})" if base else ""
        print(f"  {name:<32} {_fmt(layer[name]):>14}  {unit}{note}")
    ranked = sorted(result["self_s"].items(), key=lambda kv: -kv[1])
    print("  largest layer self-times: " + ", ".join(
        f"{name} {value:.3f} s" for name, value in ranked[:4]))
    if result["missing_targets"]:
        print("  unmeasured (target not found): "
              + ", ".join(result["missing_targets"]))
    if "miss_service_share" in result:
        print(f"  miss service share: {_fmt(result['miss_service_share'])}"
              " of the traced requests' server time")
    print(f"  cold check: {result['cold_checked_jobs']} job(s) compared "
          f"with their first run; {result['check_failures']} check(s) "
          "failed")
    return {
        "correct": failed == 0 and not result["failures"],
        "attempted": attempted,
        "failed": failed,
        "failures": result["failures"],
        "metrics": {
            name: {"value": layer[name], "unit": unit}
            for name, unit in PER_LAYER
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=schedule.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The build step: byte-compile once, so no measured import compiles.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        report = (trace_run if args.trace else timed_run)(args, tmp)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for failure in report.pop("failures")[:20]:
        print(f"  FAILED: {failure}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
