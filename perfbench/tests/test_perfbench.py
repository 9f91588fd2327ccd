"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The traced-workload tests run each workload's real traced loop once
(two untraced and two traced verify runs), about a minute in total.
"""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from tracer import BINDINGS, Span, Tracer, layer_metrics, self_times  # noqa: E402

sys.path.insert(0, str(run.SRC))


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_synthetic_nested_call():
    clock = ManualClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        tracer.call("leaf", "leaf", leaf, (), {})
        clock.now += 0.5

    def root():
        clock.now += 3.0
        tracer.call("mid", "mid", mid, (), {})
        tracer.call("leaf", "leaf", leaf, (), {})
        clock.now += 1.0

    tracer.call("root", "root", root, (), {})
    by_name = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        by_name.setdefault(span.name, []).append((span.duration, own))
    assert by_name["root"] == [(9.5, 4.0)]
    assert by_name["mid"] == [(3.5, 1.5)]
    assert by_name["leaf"] == [(2.0, 2.0), (2.0, 2.0)]
    assert sum(self_times(tracer.spans)) == 9.5
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("p", "p", 0.0, 10.0),
        Span("c", "c", 1.0, 4.0, parent=0),
        Span("c", "c", 3.0, 6.0, parent=0),
        Span("c", "c", 9.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_group_busy_self_and_counts():
    spans = [
        Span("engine", "simulate_block", 0.0, 4.0),
        Span("eigen", "stacked_eigenvalues", 1.0, 2.0, parent=0, counts={"matrices": 6}),
        Span("eigen", "stacked_eigenvalues", 2.0, 2.5, parent=0, counts={"matrices": 6}),
    ]
    m = layer_metrics(spans, wall=5.0, path_steps=4)
    assert m["eigen.calls"] == 2 and m["eigen.matrices"] == 12
    assert m["eigen.matrices_per_path_step"] == 3.0
    assert m["eigen.busy_s"] == 1.5 and m["engine.self_s"] == 2.5
    assert m["trace.coverage"] == pytest.approx(4.0 / 5.0)


def test_wrapping_the_defining_module_records_nothing():
    import mmlab.linalg
    import mmlab.simulate
    from mmlab.integrands import goe_like_spec
    from mmlab.simulate import TimeGrid

    spec, grid = goe_like_spec(3, 2, 1), TimeGrid(steps=4)
    original = mmlab.simulate.stacked_eigenvalues
    with Tracer() as tracer:
        tracer.wrap(mmlab.linalg, "stacked_eigenvalues", "eigen")
        mmlab.simulate.simulate_block(spec, grid, [1, 2, 3])
    assert tracer.spans == []
    with Tracer().install(BINDINGS) as tracer:
        mmlab.simulate.simulate_block(spec, grid, [1, 2, 3])
    assert sum(s.group == "eigen" for s in tracer.spans) >= grid.steps
    assert mmlab.simulate.stacked_eigenvalues is original


def small_scalar(tmp_path):
    wl = run.Workload("configs/verify_scalar.cfg", 1, ("paths=200",))
    _, code = run.run_in_process(run.verify_args(wl, 3, tmp_path))
    return code


def test_gate_passes_a_good_run_and_catches_tampering(tmp_path):
    code = small_scalar(tmp_path)
    problems, reports = run.check_reports(tmp_path, code, None)
    assert problems == []
    assert run.check_reports(tmp_path, code, reports)[0] == []

    obj = json.loads(reports[1])
    obj["results"][0]["holds"] = False
    (tmp_path / "report.json").write_text(json.dumps(obj, indent=2) + "\n")
    problems, _ = run.check_reports(tmp_path, code, reports)
    assert any("recompute_holds" in p for p in problems)
    assert any("does not hold" in p for p in problems)
    assert any("differ byte-wise" in p for p in problems)
    assert run.check_reports(tmp_path, 1, None)[0][0] == "exit code 1"


def test_ratios_pair_each_time_with_the_baseline_runs_around_it():
    assert run.paired_ratios([2.0, 3.0], [1.0, 3.0, 3.0]) == pytest.approx([1.0, 1.0])


def test_baseline_copy_runs_the_workload_configs(tmp_path):
    for name, wl in run.WORKLOADS.items():
        small = run.Workload(wl.config, 1, (*wl.sets, "paths=200", "block_size=100"))
        argv = [sys.executable, "-m", "mmlab.cli", *run.verify_args(small, 3, tmp_path / name, wl.baseline_config)]
        _, code, _ = run.spawn(argv, tmp_path / f"{name}.log", run.BASELINE)
        assert code == 0, (tmp_path / f"{name}.log").read_text()


LEAVE_A_HELPER = """\
import subprocess, sys
helper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.5)"])
print(helper.pid)
"""


def test_spawn_waits_for_what_the_run_leaves_behind(tmp_path):
    elapsed, code, _ = run.spawn([sys.executable, "-c", LEAVE_A_HELPER], tmp_path / "log")
    assert code == 0
    helper = int((tmp_path / "log").read_text())
    with pytest.raises(ProcessLookupError):
        os.kill(helper, 0)


def test_wait_for_group_kills_what_outlives_the_grace():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"], process_group=0)
    start = time.monotonic()
    run.wait_for_group(proc.pid, grace=0.2)
    assert time.monotonic() - start < 10
    with pytest.raises(ProcessLookupError):
        os.kill(proc.pid, 0)


def test_tail_note_needs_ten_samples_beyond():
    assert "no tail percentile" in run.tail_note([1.0] * 20)
    note = run.tail_note([float(i) for i in range(25)])
    assert "p60 = 14" in note


# layers each traced workload must reach; the worker-side layers of
# goe_verify_w2 come from its traced one-worker reference run
MUST_HIT = {
    "goe_verify": ("eigen", "interval", "rng", "engine"),
    "scalar_verify": ("eigen", "interval", "rng", "engine"),
    "feedback_verify": ("eigen", "interval", "integrand", "collectors"),
    "goe_verify_w2": ("eigen", "interval", "rng", "batch"),
}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_workload_hits_its_layers(name, tmp_path):
    gate = run.Gate()
    metrics, units, _, _ = run.run_traced(name, 5, 0.0, tmp_path, gate)
    assert gate.problems == []
    assert set(metrics) == set(units)
    for layer in MUST_HIT[name]:
        calls = metrics.get(f"{layer}.calls", metrics.get(f"{layer}.blocks"))
        busy = metrics.get(f"{layer}.busy_s", metrics.get(f"{layer}.self_s"))
        assert (calls is None or calls > 0) and busy > 0, layer
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["interval.resamples"] > 0
    run.stop_helpers()
    assert multiprocessing.active_children() == []
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    assert tracker is None or tracker._resource_tracker._pid is None


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "goe_verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_metric_tables():
    from tracer import LAYER_UNITS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
