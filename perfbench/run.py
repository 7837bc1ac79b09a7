"""Run the repository benchmark on one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload eval-light --seed 7 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every job matched its reference,
1 when any job failed, and 2 when the benchmark could not run at all
(no result is printed then).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench_out"
#: Fresh-interpreter set-ups at the run's seed; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Seconds one speed_probe() takes on the reference host (2.1 GHz Xeon
#: vCPU, Python 3.11) when that host runs at full speed.
PROBE_REF_S = 3.3e-3
#: In the host's slow episodes the workloads slowed down by about the
#: probe's slowdown to this power.  The best power differs by workload
#: and episode (0.6 to 0.9 on the reference host); 0.7 gave the smallest
#: worst-case spread over two sets of ten seeds of every workload.
PROBE_EXPONENT = 0.7

#: Environment that holds BLAS/OpenMP to one thread (set before numpy loads).
ONE_THREAD = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_us_p50": "us",
    "job_us_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_energy_norm": "ratio",
    "sim_deadline_met_pct": "%",
}

PER_LAYER_UNITS = {
    "pipeline.builds": "count",
    "pipeline.build_s": "s",
    "models.fit_s": "s",
    "features.profile_s": "s",
    "features.encode_s": "s",
    "programs.instrument_s": "s",
    "programs.slicer_s": "s",
    "programs.certify_s": "s",
    "platform.switch_bench_s": "s",
    "workloads.inputs_s": "s",
    "programs.task_runs_per_job": "count/job",
    "programs.task_us": "us/job",
    "programs.slice_runs_per_job": "count/job",
    "programs.slice_us": "us/job",
    "governors.decide_self_us": "us/job",
    "models.predict_us": "us/job",
    "models.ladder_us": "us/job",
    "governors.feedback_us": "us/job",
    "governors.timer_calls_per_job": "count/job",
    "platform.board_calls_per_job": "count/job",
    "platform.board_us": "us/job",
    "runtime.step_self_us": "us/job",
    "runtime.unattributed_pct": "%",
    "fleet.session_init_us": "us/session",
    "fleet.session_result_us": "us/session",
    "fleet.loop_self_us": "us/job",
    "fleet.aggregate_s": "s",
    "telemetry.slo_observe_us": "us/job",
    "telemetry.energy_observe_us": "us/job",
    "telemetry.energy_segments_per_job": "count/job",
    "trace_overhead_pct": "%",
}


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def speed_probe(repeat: int = 1) -> float:
    """Seconds a fixed stdlib-only loop takes now (the best of ``repeat``).

    The loop does what the simulator does most (small objects, dict
    access, float arithmetic) and nothing from ``repro``, so only the
    host's momentary speed moves it, never a change to the program.
    """
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            cells, acc = {}, 0.0
            for i in range(8000):
                cells[i & 63] = _Cell(i, i * 0.5)
                cell = cells.get((i * 7) & 63)
                if cell is not None:
                    acc += cell.b * 1.0001 - cell.a * 0.5
                acc += len(cells) * 0.1
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def host_scale(before: float, after: float) -> float:
    """Factor that takes host time measured between two probes to the
    reference host's full speed."""
    return (PROBE_REF_S / ((before + after) / 2)) ** PROBE_EXPONENT


class Window:
    """What one timed window did: rounds, per-job step times, checks."""

    def __init__(self):
        self.rounds = []
        self.latencies_ns: list[array] = []
        self.attempted = 0
        self.failed = 0

    @property
    def first(self):
        return self.rounds[0]

    @property
    def jobs(self) -> int:
        return sum(r.jobs for r in self.rounds)

    def jobs_per_s(self, scaled: bool = True) -> float:
        """Jobs per host second over all rounds (at reference speed)."""
        seconds = sum(
            r.host_ns * (r.scale if scaled else 1.0) for r in self.rounds
        ) / 1e9
        return self.jobs / seconds

    def scale(self) -> float:
        """Time-weighted host scale over all rounds."""
        total = sum(r.host_ns for r in self.rounds)
        return sum(r.host_ns * r.scale for r in self.rounds) / total

    def percentiles_us(self) -> tuple[float, float]:
        """p50 and p99 of the per-job step times (at reference speed)."""
        pooled = []
        for r, latencies in zip(self.rounds, self.latencies_ns):
            scale = r.scale / 1e3
            pooled.extend(ns * scale for ns in latencies)
        pooled.sort()
        cuts = statistics.quantiles(pooled, n=100, method="inclusive")
        return cuts[49], cuts[98]


def run_window(workload, seconds: float, expected: dict) -> Window:
    """Replay rounds until ``seconds`` of host time have passed.

    Every round is checked against ``expected``: the digests of the same
    seed's first round, simulated in a fresh interpreter by
    :func:`spawn_probe`.
    """
    from bench import check_outputs

    window = Window()
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        latencies = array("q")
        before = speed_probe()
        t0 = time.perf_counter_ns()
        result = workload.run_round(latencies)
        result.host_ns = time.perf_counter_ns() - t0
        result.scale = host_scale(before, speed_probe())
        attempted, failed = check_outputs(
            result.outputs, expected, workload.unit_jobs
        )
        window.attempted += attempted
        window.failed += failed
        result.outputs = None
        window.rounds.append(result)
        window.latencies_ns.append(latencies)
        if time.perf_counter() >= deadline:
            return window


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", "not loaded"),
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn_probe(args, seed: int, mode: str) -> dict:
    """Set the workload up in a fresh interpreter; with mode ``outputs``,
    also replay one round.

    The child installs no wrappers.  It reports its set-up time (imports
    included) and, with ``outputs``, the digests of its round's outputs,
    against which every round of the measuring process is checked.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), **ONE_THREAD)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(seed),
        "--size", args.size, "--probe", mode,
    ]
    probe = subprocess.run(
        command, capture_output=True, text=True, env=env, cwd=ROOT, timeout=170
    )
    if probe.returncode != 0:
        sys.stderr.write(probe.stderr)
        raise RuntimeError(f"probe {' '.join(command[1:])} exited {probe.returncode}")
    return json.loads(probe.stdout.strip().splitlines()[-1])


def probe(args) -> int:
    """Child side of :func:`spawn_probe`."""
    from bench import SIZES, digests

    workload, setup_s = timed_setup(args.workload, SIZES[args.size], args.seed)
    report = {"setup_s": setup_s}
    if args.probe == "outputs":
        report["outputs"] = digests(workload.run_round(array("q")).outputs)
    print(json.dumps(report))
    return 0


def reference_check(args) -> dict:
    """Replay the reference seed in a fresh interpreter and compare every
    output with the recorded reference; adds ``attempted`` and ``failed``
    to the probe's report."""
    from bench import REFERENCE_SEED, SIZES, check_outputs, make_workload

    report = spawn_probe(args, REFERENCE_SEED, "outputs")
    recorded = json.loads(Path(args.reference).read_text())
    unit_jobs = make_workload(args.workload, SIZES[args.size], REFERENCE_SEED).unit_jobs
    report["attempted"], report["failed"] = check_outputs(
        report["outputs"], recorded["sizes"][args.size][args.workload], unit_jobs
    )
    return report


def timed_setup(name: str, size, seed: int):
    """Set a workload up; return it and its set-up seconds at reference speed."""
    from bench import make_workload

    before = speed_probe(repeat=3)
    t0 = time.perf_counter()
    workload = make_workload(name, size, seed)
    workload.setup()
    elapsed = time.perf_counter() - t0
    return workload, elapsed * host_scale(before, speed_probe(repeat=3))


def end_to_end(args, size) -> tuple[dict, int, int]:
    from bench import make_workload, sim_metrics

    reference = reference_check(args)
    own = spawn_probe(args, args.seed, "outputs")
    samples = [own["setup_s"]] + [
        spawn_probe(args, args.seed, "setup")["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    workload = make_workload(args.workload, size, args.seed)
    workload.setup()
    baseline = workload.baseline_energy()
    window = run_window(workload, args.seconds, own["outputs"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50, p99 = window.percentiles_us()
    sim = sim_metrics(window.first, baseline)
    metrics = {
        "jobs_per_s": window.jobs_per_s(),
        "job_us_p50": p50,
        "job_us_p99": p99,
        "setup_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb,
        "sim_energy_norm": sim["sim_energy_norm"],
        "sim_deadline_met_pct": sim["sim_deadline_met_pct"],
    }
    print(
        f"window: {len(window.rounds)} rounds, {window.jobs} jobs; "
        f"host scale {window.scale():.3f}, unscaled {window.jobs_per_s(False):.6g} jobs/s"
    )
    print(f"setup samples (s, reference speed): {', '.join(f'{s:.4f}' for s in samples)}")
    print(f"sim_miss_pct: {sim['sim_miss_pct']:.6g} % (first round, {window.first.jobs} jobs)")
    print(
        f"reference seed check: {reference['attempted']} jobs, {reference['failed']} failed; "
        f"window vs a fresh interpreter: {window.attempted} jobs, {window.failed} failed"
    )
    attempted = window.attempted + reference["attempted"]
    return metrics, attempted, window.failed + reference["failed"]


def per_layer(args, size) -> tuple[dict, int, int]:
    from bench import make_workload
    from tracing import BUILD_TARGETS, WINDOW, Tracer, span_totals

    reference = reference_check(args)
    own = spawn_probe(args, args.seed, "outputs")
    tracer = Tracer()
    tracer.install(BUILD_TARGETS)
    try:
        before = speed_probe(repeat=3)
        workload = make_workload(args.workload, size, args.seed)
        workload.setup()
        setup_scale = host_scale(before, speed_probe(repeat=3))
    finally:
        tracer.uninstall()
    tracer.task_programs, tracer.slice_programs = workload.programs()

    # Both halves are checked against the untraced fresh interpreter, so
    # a wrapper that changed what it wraps, during set-up or in the
    # window, fails jobs.
    half = args.seconds / 2
    plain = run_window(workload, half, own["outputs"])
    tracer.current_phase = WINDOW
    tracer.install(BUILD_TARGETS)
    tracer.install_run()
    try:
        traced = run_window(workload, half, own["outputs"])
    finally:
        tracer.recording = False
        tracer.uninstall()
    overhead_pct = 100.0 * (plain.jobs_per_s() / traced.jobs_per_s() - 1.0)
    totals = span_totals(tracer)
    metrics = layer_metrics(
        totals, traced.jobs, overhead_pct, setup_scale, traced.scale()
    )
    print_layer_table(totals, traced.jobs)
    print(
        f"host scale: set-up {setup_scale:.3f}, traced window {traced.scale():.3f} "
        "(the table above is unscaled; the metrics below are scaled)"
    )
    path = OUT / f"{args.workload}.spans"
    tracer.write(path)
    print(
        f"spans: {len(tracer)} written to {path.relative_to(ROOT)}; "
        f"untraced {plain.jobs_per_s():.1f} jobs/s, "
        f"traced {traced.jobs_per_s():.1f} jobs/s"
    )
    print(
        f"reference seed check: {reference['attempted']} jobs, {reference['failed']} failed; "
        f"vs a fresh interpreter: untraced {plain.attempted} jobs, {plain.failed} failed, "
        f"traced {traced.attempted} jobs, {traced.failed} failed"
    )
    attempted = plain.attempted + traced.attempted + reference["attempted"]
    return metrics, attempted, plain.failed + traced.failed + reference["failed"]


def layer_metrics(
    totals: dict, jobs: int, overhead_pct: float, setup_scale: float,
    window_scale: float,
) -> dict:
    """Per-layer metrics; times are taken to reference host speed."""
    from tracing import SETUP, WINDOW

    def get(phase, name, key):
        return totals.get((phase, name), {}).get(key, 0)

    def setup_s(name):
        return get(SETUP, name, "ns") * setup_scale / 1e9

    def per_job_us(name, key="ns"):
        return get(WINDOW, name, key) * window_scale / jobs / 1e3

    def per_job(name):
        return get(WINDOW, name, "calls") / jobs

    sessions = get(WINDOW, "fleet.session_init", "calls")
    aggregates = get(WINDOW, "fleet.aggregate", "calls")
    step_ns = get(WINDOW, "runtime.step", "ns")
    return {
        "pipeline.builds": get(SETUP, "pipeline.build", "calls"),
        "pipeline.build_s": setup_s("pipeline.build"),
        "models.fit_s": setup_s("models.fit"),
        "features.profile_s": setup_s("features.profile"),
        "features.encode_s": setup_s("features.encode"),
        "programs.instrument_s": setup_s("programs.instrument"),
        "programs.slicer_s": setup_s("programs.slicer"),
        "programs.certify_s": setup_s("programs.certify"),
        "platform.switch_bench_s": setup_s("platform.switch_bench"),
        "workloads.inputs_s": setup_s("workloads.inputs"),
        "programs.task_runs_per_job": per_job("programs.task"),
        "programs.task_us": per_job_us("programs.task"),
        "programs.slice_runs_per_job": per_job("programs.slice"),
        "programs.slice_us": per_job_us("programs.slice"),
        "governors.decide_self_us": per_job_us("governors.decide", "self_ns"),
        "models.predict_us": per_job_us("models.predict"),
        "models.ladder_us": per_job_us("models.ladder"),
        "governors.feedback_us": per_job_us("governors.feedback"),
        "governors.timer_calls_per_job": per_job("governors.timer"),
        "platform.board_calls_per_job": per_job("platform.board"),
        "platform.board_us": per_job_us("platform.board"),
        "runtime.step_self_us": per_job_us("runtime.step", "self_ns"),
        "runtime.unattributed_pct": (
            100.0 * get(WINDOW, "runtime.step", "self_ns") / step_ns
            if step_ns else 0.0
        ),
        "fleet.session_init_us": (
            get(WINDOW, "fleet.session_init", "ns") * window_scale / sessions / 1e3
            if sessions else 0.0
        ),
        "fleet.session_result_us": (
            get(WINDOW, "fleet.session_result", "ns") * window_scale / sessions / 1e3
            if sessions else 0.0
        ),
        "fleet.loop_self_us": per_job_us("fleet.shard", "self_ns"),
        "fleet.aggregate_s": (
            get(WINDOW, "fleet.aggregate", "ns") * window_scale / aggregates / 1e9
            if aggregates else 0.0
        ),
        "telemetry.slo_observe_us": per_job_us("telemetry.slo_observe"),
        "telemetry.energy_observe_us": per_job_us("telemetry.energy_observe"),
        "telemetry.energy_segments_per_job": per_job("telemetry.energy_observe"),
        "trace_overhead_pct": overhead_pct,
    }


def print_layer_table(totals: dict, jobs: int) -> None:
    """Self-time table: set-up layers in seconds, window layers per job."""
    from tracing import SETUP, WINDOW

    print(f"{'set-up layer':<28}{'calls':>8}{'incl s':>12}{'self s':>12}")
    for (phase, name), t in sorted(totals.items()):
        if phase == SETUP:
            print(f"{name:<28}{t['calls']:>8}{t['ns'] / 1e9:>12.4f}{t['self_ns'] / 1e9:>12.4f}")
    print(f"{'window layer':<28}{'calls/job':>10}{'incl us/job':>13}{'self us/job':>13}")
    for (phase, name), t in sorted(totals.items(), key=lambda kv: -kv[1]["self_ns"]):
        if phase == WINDOW:
            print(
                f"{name:<28}{t['calls'] / jobs:>10.4f}"
                f"{t['ns'] / jobs / 1e3:>13.3f}{t['self_ns'] / jobs / 1e3:>13.3f}"
            )


def record_reference(args) -> int:
    """Write the outputs of every workload and size at the reference seed."""
    from bench import REFERENCE_SEED, SIZES, WORKLOADS, digests, make_workload

    recorded = {}
    for size in SIZES:
        recorded[size] = {}
        for name in WORKLOADS:
            workload = make_workload(name, SIZES[size], REFERENCE_SEED)
            workload.setup()
            first = workload.run_round(array("q"))
            recorded[size][name] = digests(first.outputs)
            print(f"{size} {name}: {first.jobs} jobs recorded")
    document = {"seed": REFERENCE_SEED, "sizes": recorded}
    Path(args.reference).write_text(json.dumps(document, indent=1) + "\n")
    return 0


def parse_args(argv):
    from bench import WORKLOADS, SIZES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="eval-light")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' shrinks every round (self-tests only)")
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="reference outputs to check against")
    parser.add_argument("--record", action="store_true",
                        help="record the reference outputs and exit")
    parser.add_argument("--probe", choices=("setup", "outputs"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    os.environ.update(ONE_THREAD)
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args)
    if args.record:
        return record_reference(args)

    from bench import SIZES

    size = SIZES[args.size]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} size={args.size}"
    )
    load_before = os.getloadavg()[0]
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(args, size)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed = end_to_end(args, size)
            units = END_TO_END_UNITS
    except subprocess.SubprocessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - a raising run fails its jobs
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    machine = machine_info()
    machine["loadavg_1m_start"] = load_before
    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    print(f"attempted={attempted} failed={failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
