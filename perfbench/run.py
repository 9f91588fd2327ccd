"""Benchmark of the mmlab CLI: end-to-end timings and a traced layer ledger.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload goe_verify --seed 1 --seconds 30 --trace 0

``--trace 0`` runs ``python -m mmlab.cli verify`` as a closed loop (one
client, one run at a time) until ``--seconds`` have passed, at least
MIN_SAMPLES times, and reports wall time, path-steps per second, set-up
time and peak memory.  The host's speed drifts by tens of percent over
minutes, so every run of the program is paired with a run of a frozen
copy of it (``baseline/``, mmlab as of this benchmark's first version)
and timings are reported as program/baseline ratios times the baseline's
reference time (see NOTES.md); raw medians are printed alongside.
``--trace 1`` runs the same verify inside this process, alternating
untraced and traced runs, and reports per-layer busy time and counts
(see tracer.py).  ``--workload all`` runs every
workload untraced.  Every run's reports are checked; the last line of
stdout is one JSON object, and the exit code is 1 when a check missed.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy is imported here, in the
# CLI runs and in their spawned workers
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = HERE / "baseline"

SETUP_WARMUP = 1  # fills the bytecode and file caches; not timed
SETUP_RUNS = 3
MIN_SAMPLES = 2
# Raw median seconds of the baseline's set-up and verify runs on the
# reference machine of NOTES.md; the reported timings are these times the
# measured program/baseline ratio.
BASELINE_SETUP_S = 0.56
BASELINE_WALL_S = {
    "goe_verify": 1.69,
    "scalar_verify": 1.24,
    "feedback_verify": 1.31,
    "goe_verify_w2": 1.98,
}
MIN_TRACED = 2
TAIL_BEYOND = 10
GROUP_GRACE_S = 10.0  # how long a finished CLI run's helpers may linger

SETUP_CODE = """\
import os, sys
import mmlab.cli
from mmlab.config import parse_settings
overrides = dict(s.split("=", 1) for s in sys.argv[3:])
overrides["master_seed"] = sys.argv[2]
with open(sys.argv[1]) as f:
    parse_settings(f.read(), overrides=overrides, environ=os.environ)
"""


@dataclass(frozen=True)
class Workload:
    """One CLI verify invocation; ``reference`` names the workload whose
    reports this one must reproduce byte for byte at the same seed."""

    config: str
    workers: int
    sets: tuple[str, ...] = ()
    reference: str | None = None

    @property
    def baseline_config(self) -> Path:
        """The frozen copy of the config that the baseline runs."""
        return BASELINE / "configs" / Path(self.config).name


# The shipped GOE config at 1280 paths in blocks of 256: five blocks, as
# the shipped 20000/4096, so two workers still get an uneven 3/2 split,
# while one run takes about 1.5 s rather than the shipped 13-19 s, and a
# run of the benchmark gets enough program/baseline pairs for a steady
# median.
GOE_SETS = ("paths=1280", "block_size=256")

WORKLOADS = {
    "goe_verify": Workload("configs/verify_goe.cfg", 1, GOE_SETS),
    "scalar_verify": Workload("configs/verify_scalar.cfg", 1, ("paths=5000",)),
    "feedback_verify": Workload("perfbench/configs/feedback_verify.cfg", 1),
    "goe_verify_w2": Workload("configs/verify_goe.cfg", 2, GOE_SETS, reference="goe_verify"),
}

E2E_UNITS = {"wall_s": "s", "path_steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Gate:
    """Counts attempted and failed runs and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def child_env(src: Path) -> dict[str, str]:
    """The caller's environment without MMLAB_ overrides, with the mmlab
    package under ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MMLAB_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


def spawn(argv: list[str], log: Path, src: Path = SRC) -> tuple[float, int, float]:
    """Run argv to completion; (seconds from spawn to exit, exit code, peak RSS in MB).

    The RSS comes from wait4, which on Linux reports the larger of the
    child's own peak and that of every descendant it waited for, so a
    pool's workers are included.  The child leads a process group of its
    own, and spawn returns only when every process in that group has
    ended: a spawned pool leaves a resource tracker that outlives the CLI
    for a moment.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(src), stdout=sink, stderr=sink, process_group=0
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            wait_for_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def wait_for_group(pgid: int, grace: float = GROUP_GRACE_S) -> None:
    """Wait until no process of group ``pgid`` is left; kill what is left
    after ``grace`` seconds."""
    deadline = time.monotonic() + grace
    while True:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-pgid, os.WNOHANG)[0] > 0:  # reap any that are ours
                pass
        try:
            os.killpg(pgid, signal.SIGKILL if time.monotonic() > deadline else 0)
        except ProcessLookupError:
            return
        time.sleep(0.005)


def stop_helpers() -> None:
    """Stop the resource tracker that an in-process spawn pool leaves
    running in this process (the pool itself joins its workers)."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        with contextlib.suppress(ChildProcessError):
            tracker._resource_tracker._stop()


def verify_args(wl: Workload, seed: int, out: Path, config: Path | None = None) -> list[str]:
    args = ["verify", "--config", str(config or ROOT / wl.config), "--out", str(out)]
    args += ["--workers", str(wl.workers), "--seed", str(seed)]
    for s in wl.sets:
        args += ["--set", s]
    return args


def check_reports(out: Path, code: int, expected: tuple[bytes, bytes] | None):
    """Problems with one verify run, and its (report.csv, report.json) bytes.

    A run fails when it exits non-zero, a check does not hold, a path was
    excluded, a stored verdict disagrees with checks.recompute_holds, or
    its reports differ from ``expected``.
    """
    from mmlab.checks import recompute_holds
    from mmlab.report import parse_report_json

    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        reports = ((out / "report.csv").read_bytes(), (out / "report.json").read_bytes())
    except OSError as exc:
        return problems + [f"missing report: {exc}"], None
    report = parse_report_json(reports[1].decode())
    problems += [f"check {r.name} does not hold" for r in report.results if not r.holds]
    if report.failed and not problems:
        problems.append("report marked failed")
    if report.excluded > 0:
        problems.append(f"{report.excluded} paths excluded")
    problems += [
        f"check {r.name}: holds={r.holds} but recompute_holds={not r.holds}"
        for r in report.results
        if recompute_holds(r) != r.holds
    ]
    if expected is not None and reports != expected:
        problems.append("reports differ byte-wise from the reference run")
    return problems, reports


def experiment_size(wl: Workload, seed: int) -> tuple[int, int]:
    """(paths, steps) of the workload's effective config."""
    from mmlab.config import parse_settings

    overrides = dict(s.split("=", 1) for s in wl.sets)
    overrides["master_seed"] = str(seed)
    exp = parse_settings((ROOT / wl.config).read_text(), overrides=overrides).experiment
    return exp.paths, exp.grid.steps


def tail_note(samples: list[float]) -> str:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= 2 * TAIL_BEYOND:
        return f"median of {n} samples; no tail percentile with {TAIL_BEYOND} samples beyond it"
    q = 100.0 * (n - TAIL_BEYOND) / n
    return f"median of {n} samples; p{q:.0f} = {sorted(samples)[n - TAIL_BEYOND - 1]:.6g} s"


def paired_ratios(times: list[float], baseline: list[float]) -> list[float]:
    """times[i] over the mean of the baseline runs just before and after it
    (``baseline`` has one more entry)."""
    return [t * 2.0 / (baseline[i] + baseline[i + 1]) for i, t in enumerate(times)]


def run_untraced(name: str, seed: int, deadline: float, work: Path, gate: Gate):
    wl = WORKLOADS[name]
    paths, steps = experiment_size(wl, seed)

    def timed(label: str, argv: list[str], src: Path) -> float:
        elapsed, code, _ = spawn(argv, work / f"{label}.log", src)
        gate.record(label, [] if code == 0 else [f"exit code {code}"])
        return elapsed

    def setup_argv(config: Path) -> list[str]:
        return [sys.executable, "-c", SETUP_CODE, str(config), str(seed), *wl.sets]

    # set-up runs alternate with baseline set-up runs: b c b c ... b
    for i in range(SETUP_WARMUP):
        timed(f"set-up warm-up {i}", setup_argv(ROOT / wl.config), SRC)
        timed(f"baseline set-up warm-up {i}", setup_argv(wl.baseline_config), BASELINE)
    base_setups = [timed("baseline set-up 0", setup_argv(wl.baseline_config), BASELINE)]
    setups = []
    for i in range(SETUP_RUNS):
        setups.append(timed(f"set-up {i}", setup_argv(ROOT / wl.config), SRC))
        base_setups.append(timed(f"baseline set-up {i + 1}", setup_argv(wl.baseline_config), BASELINE))

    def cli_run(w: Workload, label: str, expected):
        out = work / label
        argv = [sys.executable, "-m", "mmlab.cli", *verify_args(w, seed, out)]
        elapsed, code, rss = spawn(argv, work / f"{label}.log")
        problems, reports = check_reports(out, code, expected)
        gate.record(label, problems)
        return elapsed, rss, reports

    def baseline_run(label: str) -> float:
        out = work / label
        argv = [sys.executable, "-m", "mmlab.cli", *verify_args(wl, seed, out, wl.baseline_config)]
        return timed(label, argv, BASELINE)

    expected = None
    if wl.reference:
        expected = cli_run(WORKLOADS[wl.reference], "reference", None)[2]
    # samples alternate with baseline runs: b c b c ... b
    walls, rss, base = [], [], [baseline_run("baseline-0")]
    while len(walls) < MIN_SAMPLES or (
        time.perf_counter() + statistics.median(walls) + statistics.median(base) <= deadline
    ):
        elapsed, peak, reports = cli_run(wl, f"sample-{len(walls)}", expected)
        # without a reference, every run must repeat the first one's bytes
        expected = expected or reports
        walls.append(elapsed)
        rss.append(peak)
        base.append(baseline_run(f"baseline-{len(base)}"))
    wall = BASELINE_WALL_S[name] * statistics.median(paired_ratios(walls, base))
    metrics = {
        "wall_s": wall,
        "path_steps_per_s": paths * steps / wall,
        "setup_s": BASELINE_SETUP_S * statistics.median(paired_ratios(setups, base_setups)),
        "peak_rss_mb": statistics.median(rss),
    }
    notes = {
        "wall_s": f"{BASELINE_WALL_S[name]} s x median program/baseline ratio; {tail_note(walls)}; "
        f"raw median {statistics.median(walls):.6g} s, baseline {statistics.median(base):.6g} s",
        "path_steps_per_s": f"{paths} paths x {steps} steps / wall_s",
        "setup_s": f"{BASELINE_SETUP_S} s x median ratio of {len(setups)} paired runs; "
        f"raw median {statistics.median(setups):.6g} s, baseline {statistics.median(base_setups):.6g} s",
        "peak_rss_mb": f"median of {len(rss)} samples, largest over parent and workers",
    }
    samples = {
        "wall_s": walls,
        "baseline_wall_s": base,
        "setup_s": setups,
        "baseline_setup_s": base_setups,
        "peak_rss_mb": rss,
    }
    return metrics, E2E_UNITS, notes, samples


def run_in_process(args: list[str]) -> tuple[float, int]:
    """Call the CLI in this process; (seconds, exit code)."""
    import mmlab.cli

    code, crash = 0, None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            mmlab.cli.main(args, prog_name="mmlab")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crash is a failed run, not the end of the benchmark
            code, crash = 1, traceback.format_exc()
        elapsed = time.perf_counter() - start
    if crash:
        print(crash, file=sys.stderr)
    return elapsed, code


def run_traced(name: str, seed: int, deadline: float, work: Path, gate: Gate):
    from tracer import BINDINGS, EXACT_COUNTS, LAYER_UNITS, WORKER_LAYERS, Tracer, layer_metrics

    wl = WORKLOADS[name]
    paths, steps = experiment_size(wl, seed)

    def checked_run(w: Workload, label: str, expected, tracer=None):
        out = work / label
        if tracer is None:
            elapsed, code = run_in_process(verify_args(w, seed, out))
        else:
            with tracer.install(BINDINGS):
                elapsed, code = run_in_process(verify_args(w, seed, out))
        problems, reports = check_reports(out, code, expected)
        gate.record(label, problems)
        return elapsed, reports

    expected = reference = None
    if wl.reference:
        tracer = Tracer()
        elapsed, expected = checked_run(WORKLOADS[wl.reference], "reference", None, tracer)
        # pool workers do not inherit the wrappers, so the worker-side
        # layers come from this one-worker run of the same batch
        reference = layer_metrics(tracer.spans, elapsed, paths * steps)
    plain, traced = [], []
    while len(traced) < MIN_TRACED or time.perf_counter() + plain[-1] + traced[-1][0] <= deadline:
        elapsed, reports = checked_run(wl, f"plain-{len(plain)}", expected)
        expected = expected or reports
        plain.append(elapsed)
        tracer = Tracer()
        elapsed, _ = checked_run(wl, f"traced-{len(traced)}", expected, tracer)
        traced.append((elapsed, layer_metrics(tracer.spans, elapsed, paths * steps)))
    for key in EXACT_COUNTS:
        seen = {m[key] for _, m in traced}
        if len(seen) > 1:
            gate.record(f"{key} repeat", [f"{key} differs between traced runs: {sorted(seen)}"])
    metrics, notes = {}, {}
    for key in LAYER_UNITS:
        if reference is not None and key.startswith(WORKER_LAYERS):
            metrics[key] = reference[key]
            notes[key] = f"traced one-worker {wl.reference} run"
        elif key != "trace.overhead_s":
            values = [m[key] for _, m in traced]
            # a count stays a whole number
            median = statistics.median_low if isinstance(values[0], int) else statistics.median
            metrics[key] = median(values)
            notes[key] = f"median of {len(traced)} traced runs"
    metrics["trace.overhead_s"] = statistics.median(t for t, _ in traced) - statistics.median(plain)
    notes["trace.overhead_s"] = (
        f"median traced wall minus median untraced wall, {len(traced)}+{len(plain)} in-process runs"
    )
    samples = {"traced_wall_s": [t for t, _ in traced], "untraced_wall_s": plain}
    return metrics, LAYER_UNITS, notes, samples


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    """sha256 over src/ file names and bytes: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, gate: Gate):
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        deadline = time.perf_counter() + seconds
        runner = run_traced if trace else run_untraced
        return runner(name, seed, deadline, work, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that every started process is stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs untraced only")
    if not (SRC / "mmlab" / "cli.py").is_file():
        print(f"perfbench: no mmlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    gate = Gate()
    results = {}
    metrics = {}
    for name in names:
        try:
            values, units, notes, samples = run_workload(name, args.seed, args.seconds, bool(args.trace), gate)
        finally:
            stop_helpers()
        print(f"== {name} (workers={WORKLOADS[name].workers}, seed={args.seed}, trace={args.trace})")
        for key, value in values.items():
            print(f"{name} {key} = {value:.6g} {units[key]}  ({notes[key]})")
            label = key if len(names) == 1 else f"{name}.{key}"
            metrics[label] = {"value": value, "unit": units[key]}
        results[name] = {"metrics": values, "samples": samples}
    share = gate.failed / gate.attempted
    print(f"failed_share = {share:.6g} share  ({gate.failed} of {gate.attempted} runs)")
    for problem in gate.problems:
        print(f"FAILED {problem}")
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps({"env": env, "failed_share": share, "problems": gate.problems, **results}, indent=2)
    )
    correct = gate.failed == 0
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
