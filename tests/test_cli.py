"""Command-line interface: subcommands, exit codes, artifacts."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from mmlab import montecarlo
from mmlab.cli import main
from mmlab.config import parse_settings
from mmlab.errors import PathBlowupError
from mmlab.montecarlo import derive_path_seed

from .oracles import reference_path

SRC = Path(__file__).resolve().parent.parent / "src"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN_HEADER = "name,n,N,family,p,u,sigma2,t,lhs,lhs_ci,rhs,rhs_ci,ratio,holds,paths,seed"

VERIFY_CFG = """\
integrand.family = constant
integrand.matrix.1 = 1
grid.steps = 16
paths = 300
master_seed = 11
check.1.kind = freedman
check.1.u = 2.0
check.1.sigma2 = 1.0
check.2.kind = bdg
check.2.p = 1
"""

ZERO_CFG = """\
integrand.family = constant
integrand.matrix.1 = 0 0; 0 0
grid.steps = 16
paths = 150
master_seed = 4
check.1.kind = freedman
check.1.u = 1.0
check.1.sigma2 = 1.0
check.2.kind = bdg
check.2.p = 1
"""

# several blocks, so that --workers 2 runs the batch in pool workers
POOLED = "block_size = 64\n"


@pytest.fixture
def runner():
    return CliRunner()


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestVerify:
    def test_happy_path_writes_both_formats(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        csv_text = (out / "report.csv").read_text()
        assert csv_text.splitlines()[0] == GOLDEN_HEADER
        assert len(csv_text.splitlines()) == 3
        obj = json.loads((out / "report.json").read_text())
        assert obj["schema_version"] == 1
        assert obj["failed"] is False
        assert "wall time" in result.output

    def test_zero_integrand_all_lhs_zero(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, ZERO_CFG)
        out = tmp_path / "out"
        result = runner.invoke(main, ["verify", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        obj = json.loads((out / "report.json").read_text())
        assert all(r["lhs"] == 0.0 for r in obj["results"])

    def test_falsified_rhs_exits_one(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG.replace("paths = 300", "paths = 3000"))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["verify", "--config", cfg, "--out", str(out), "--set", "test_hooks.rhs_multiplier=0"],
        )
        assert result.exit_code == 1
        assert "FAILED" in result.output
        assert json.loads((out / "report.json").read_text())["failed"] is True

    def test_unknown_set_key_exits_two(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        result = runner.invoke(
            main, ["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--set", "bogus=1"]
        )
        assert result.exit_code == 2
        assert "config error" in result.output
        assert "unknown key" in result.output

    def test_missing_config_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", "--config", str(tmp_path / "nope.cfg")])
        assert result.exit_code == 2

    def test_format_json_only(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["verify", "--config", cfg, "--out", str(out), "--format", "json"]
        )
        assert result.exit_code == 0
        assert not (out / "report.csv").exists()
        assert (out / "report.json").exists()

    def test_seed_flag_overrides_master_seed(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["verify", "--config", cfg, "--out", str(out), "--seed", "99"]
        )
        assert result.exit_code == 0
        assert json.loads((out / "report.json").read_text())["master_seed"] == 99

    def test_env_override_applies(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["verify", "--config", cfg, "--out", str(out)],
            env={"MMLAB_PATHS": "150"},
        )
        assert result.exit_code == 0, result.output
        assert json.loads((out / "report.json").read_text())["paths"] == 150

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_zero_workers_is_a_usage_error(self, runner, tmp_path, command):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        result = runner.invoke(
            main, [command, "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "0"]
        )
        assert result.exit_code == 2
        assert "--workers" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args, option",
        [
            pytest.param(["lemmas", "--count", "0"], "--count", id="lemmas-count"),
            pytest.param(["lemmas", "--seed", "-1"], "--seed", id="lemmas-seed"),
            pytest.param(["verify", "--seed", str(2**64)], "--seed", id="verify-seed"),
        ],
    )
    def test_out_of_range_option_is_a_usage_error(self, runner, tmp_path, args, option):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        result = runner.invoke(main, args + ["--config", cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_non_finite_statistic_writes_failed_report(self, runner, tmp_path, workers):
        # no tail check: the engine itself excludes every path whose qv
        # norm overflowed, silently, and the batch fails the exclusion rate
        text = VERIFY_CFG.split("check.1.kind")[0] + "check.1.kind = bdg\ncheck.1.p = 1\n"
        cfg = write_cfg(tmp_path, text + POOLED)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args = ["verify", "--config", cfg, "--out", str(out), "--workers", workers]
            result = runner.invoke(main, args + ["--set", "integrand.matrix.1=1e200"])
        assert result.exit_code == 1
        assert "run failed: 300 of 300 paths excluded" in result.output
        assert "exclusion rate exceeds 0.1%" in result.output
        assert "FAILED" in result.output
        assert [w.message for w in caught] == []
        assert "Warning" not in result.stderr
        obj = json.loads((out / "report.json").read_text())
        assert obj["failed"] is True and obj["results"] == [] and obj["excluded"] == 300
        assert (out / "report.csv").read_text() == GOLDEN_HEADER + "\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_overflowing_deterministic_qv_writes_failed_report(self, runner, tmp_path, workers):
        # n = 3 takes LAPACK, which must never see the non-finite shared qv
        text = VERIFY_CFG.replace("paths = 300", "paths = 200").replace(
            "integrand.matrix.1 = 1", "integrand.matrix.1 = 1 0 0; 0 2 1; 0 1 3"
        )
        cfg = write_cfg(tmp_path, text + POOLED)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(
                main,
                ["verify", "--config", cfg, "--out", str(out), "--workers", workers]
                + ["--set", "integrand.matrix.1=1e160 1e160 0; 1e160 2 1; 0 1 3"],
            )
        assert result.exit_code == 1, result.output
        assert "run failed: 200 of 200 paths excluded" in result.output
        assert [w.message for w in caught] == []
        obj = json.loads((out / "report.json").read_text())
        assert obj["failed"] is True and obj["results"] == [] and obj["excluded"] == 200

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_overflowing_supermartingale_exponent_writes_failed_report(self, tmp_path, workers):
        # x and qv stay finite, but beta * x - (beta^2 / 2) * qv does not;
        # n = 3 takes LAPACK, which must never see that matrix
        cfg = write_cfg(
            tmp_path,
            "integrand.family = constant\n"
            "integrand.matrix.1 = 1 0 0; 0 2 1; 0 1 3\n"
            "grid.steps = 16\npaths = 200\nmaster_seed = 11\n"
            "check.1.kind = supermartingale\ncheck.1.beta = 100\n" + POOLED,
        )
        out = tmp_path / "out"
        env = {k: v for k, v in os.environ.items() if not k.startswith("MMLAB_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mmlab.cli", "verify", "--config", cfg, "--out", str(out)]
            + ["--workers", workers]
            + ["--set", "integrand.matrix.1=1e153 1e153 0; 1e153 2 1; 0 1 3"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert "run failed: 200 of 200 paths excluded" in proc.stdout + proc.stderr
        obj = json.loads((out / "report.json").read_text())
        assert obj["failed"] is True and obj["results"] == [] and obj["excluded"] == 200

    def test_worker_counts_emit_identical_bytes(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG + "block_size = 64\n")
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        r1 = runner.invoke(main, ["verify", "--config", cfg, "--out", str(out1), "--workers", "1"])
        r2 = runner.invoke(main, ["verify", "--config", cfg, "--out", str(out2), "--workers", "2"])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestSimulate:
    def test_writes_trajectories(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG + "dump.paths = 0 1\ndump.beta = 0.5\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        header = (out / "trajectory_0.csv").read_text().splitlines()[0]
        assert header == "step,time,lambda_max,spectral_norm,qv_norm,supermart_beta0.5"
        assert (out / "trajectory_1.csv").exists()

    @pytest.mark.parametrize("config", ["minimal.cfg", "simulate_dump.cfg"])
    def test_takes_a_config_without_checks(self, runner, tmp_path, config):
        out = tmp_path / "out"
        args = ["simulate", "--config", str(CONFIGS / config), "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert (out / "trajectory_0.csv").exists()

    def test_overflow_names_the_oracle_step(self, runner, tmp_path):
        # gamma^2 overflows; the blow-up must be reported where the
        # per-matrix Euler first leaves float64 range, not at X = 0
        cfg = str(CONFIGS / "simulate_dump.cfg")
        overrides = {"integrand.gamma": "1e200"}
        exp = parse_settings(Path(cfg).read_text(), overrides=overrides).experiment
        with pytest.raises(PathBlowupError) as oracle:
            reference_path(exp.spec, exp.grid, derive_path_seed(exp.master_seed, 0))
        args = ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
        result = runner.invoke(main, args + ["--set", "integrand.gamma=1e200"])
        assert result.exit_code == 1
        assert f"run failed: {oracle.value}" in result.output
        assert str(oracle.value).endswith("at step 2")

    def test_overflowing_dump_supermartingale_fails_cleanly(self, tmp_path):
        # beta^2 / 2 overflows, and inf * qv[0] = inf * 0 is nan: n = 3
        # takes LAPACK, which must never see that exponent
        cfg = write_cfg(
            tmp_path,
            "integrand.family = constant\n"
            "integrand.matrix.1 = 1 0 0; 0 2 1; 0 1 3\n"
            "grid.steps = 16\npaths = 10\nmaster_seed = 1\n"
            "dump.paths = 0\ndump.beta = 1e160\n",
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith("MMLAB_")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        base = [sys.executable, "-m", "mmlab.cli", "simulate", "--config", cfg]
        base += ["--out", str(tmp_path / "out")]
        proc = subprocess.run(base, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert "run failed: supermartingale exponent at beta = 1e+160 overflows" in proc.stderr
        for beta in ("inf", "nan"):
            proc = subprocess.run(
                base + ["--set", f"dump.beta={beta}"], capture_output=True, text=True, env=env, timeout=120
            )
            assert proc.returncode == 2, proc.stdout + proc.stderr
            assert f"config error: dump.beta must be finite, got '{beta}'" in proc.stderr


NON_FINITE = [
    *(("verify", [f"slack_factor={v}"], "slack_factor") for v in ("inf", "nan")),
    *(("verify", [f"test_hooks.rhs_multiplier={v}"], "rhs_multiplier") for v in ("inf", "nan")),
    *(("verify", [f"check.3.beta={v}"], "'check.3'") for v in ("inf", "nan")),
    *(
        ("sweep", [f"sweep.parameter={p}", f"sweep.values=2 {v}"], "'sweep.values'")
        for p in ("n", "p", "u", "steps")
        for v in ("inf", "nan")
    ),
]


@pytest.mark.parametrize("command, sets, named", NON_FINITE)
def test_non_finite_value_is_a_config_error(runner, tmp_path, command, sets, named):
    cfg = write_cfg(tmp_path, VERIFY_CFG + "check.3.kind = supermartingale\ncheck.3.beta = 0.5\n")
    args = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    for pair in sets:
        args += ["--set", pair]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "config error:" in result.output and named in result.output
    assert not (tmp_path / "o").exists()


def _never_simulated(*args, **kwargs):
    raise AssertionError("a refused config simulated a path")


# configs that cannot run, refused before any path is simulated, with the
# message and the key each error names: values ExperimentConfig rejects,
# and checks that cannot apply to the configured run
REFUSED = [
    ("verify", None, ["block_size=0"], "block_size must be >= 1", "block_size"),
    ("verify", None, ["confidence=1.5"], "confidence must be in (0, 1)", "confidence"),
    (
        "verify",
        None,
        ["bootstrap.resamples=10"],
        "bootstrap_resamples must be >= 100",
        "bootstrap.resamples",
    ),
    ("verify", None, ["master_seed=-1"], "master_seed must fit in 64 bits", "master_seed"),
    ("verify", None, ["paths=50"], "paths must be >= 100 for probabilistic checks", "paths"),
    ("verify", None, ["slack_factor=-1"], "slack_factor must be finite and >= 0", "slack_factor"),
    (
        "verify",
        None,
        ["test_hooks.rhs_multiplier=nan"],
        "rhs_multiplier must be finite, got nan",
        "test_hooks.rhs_multiplier",
    ),
    ("verify", None, ["check.2.t=2"], "check time 2.0 must equal the grid horizon 1.0", "check.2"),
    (
        "verify",
        "verify_goe.cfg",
        ["check.9.kind=schatten_rect", "check.9.p=1"],
        "schatten_rect check requires integrand.family rect_constant",
        "check.9",
    ),
    (
        "verify",
        "simulate_dump.cfg",
        ["check.1.kind=khintchine"],
        "khintchine check requires a constant-in-time integrand",
        "check.1",
    ),
    ("verify", "khintchine_diag.cfg", ["paths=50"], "paths must be >= 100", "paths"),
    ("sweep", "sweep_khintchine_n.cfg", ["paths=50"], "paths must be >= 100", "paths"),
    # a run that checks nothing would read as one where every check held
    ("verify", "minimal.cfg", [], "config has no checks", "check.1.kind"),
    ("verify", "simulate_dump.cfg", [], "config has no checks", "check.1.kind"),
    (
        "sweep",
        "minimal.cfg",
        ["sweep.parameter=steps", "sweep.values=4 8"],
        "config has no checks",
        "check.1.kind",
    ),
]


@pytest.mark.parametrize("command, config, sets, message, key", REFUSED)
def test_refused_config_names_its_key(
    runner, tmp_path, monkeypatch, command, config, sets, message, key
):
    monkeypatch.setattr(montecarlo, "simulate_block", _never_simulated)
    cfg = str(CONFIGS / config) if config else write_cfg(tmp_path, VERIFY_CFG)
    args = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    for pair in sets:
        args += ["--set", pair]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"config error: {message}" in result.output
    assert f"(key '{key}')" in result.output
    assert not (tmp_path / "o").exists()


class TestKhintchine:
    def test_ratio_reported(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "integrand.family = diag_basis\nintegrand.n = 2\npaths = 5000\nmaster_seed = 3\n",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["khintchine", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 2
        ratio = float(lines[1].split(",")[12])
        assert 1.0 < ratio < 1.3


KHINTCHINE_CFG = """\
integrand.family = constant
integrand.matrix.1 = 1
paths = 200
master_seed = 42
check.1.kind = khintchine
"""


@pytest.mark.parametrize("command", ["verify", "khintchine"])
@pytest.mark.parametrize(
    "matrix, message",
    [
        # samples leave float64 range on the LAPACK route (3x3, not diagonal)
        pytest.param(
            "1e308 1e308 0; 1e308 1e308 0; 0 0 1",
            r"khintchine lhs: \d+ of 200 values are not finite",
            id="lapack",
        ),
        # ... and on the diagonal route
        pytest.param("1e308", r"khintchine lhs: 19 of 200 values are not finite", id="diagonal"),
        # every sample is finite, ||sum_i H_i^2|| = 1e308 + 1e308 is not
        pytest.param("1e154", r"khintchine rhs: \|\|sum_i H_i\^2\|\| is not finite", id="rhs"),
    ],
)
def test_khintchine_overflow_writes_failed_report(runner, tmp_path, command, matrix, message):
    out = tmp_path / "out"
    args = [command, "--config", write_cfg(tmp_path, KHINTCHINE_CFG), "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args + ["--set", f"integrand.matrix.1={matrix}"])
    assert result.exit_code == 1, result.output
    assert re.search(f"run failed: {message}", result.stderr)
    assert "result: FAILED" in result.output
    assert [w.message for w in caught] == []
    assert "Warning" not in result.stderr
    obj = json.loads((out / "report.json").read_text())
    assert obj["failed"] is True and obj["results"] == []
    assert (out / "report.csv").read_text() == GOLDEN_HEADER + "\n"


# p = 4 overflows sup ||X||^p and ||<X>_T||^(p/2) on every path; p = 2 does not
BDG_OVERFLOW_CFG = """\
integrand.family = constant
integrand.matrix.1 = 1e100
grid.steps = 8
paths = 200
master_seed = 42
check.1.kind = bdg
check.1.p = 4
"""


def test_bdg_moment_overflow_writes_failed_report(runner, tmp_path):
    out = tmp_path / "out"
    args = ["verify", "--config", write_cfg(tmp_path, BDG_OVERFLOW_CFG), "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert "run failed: bdg lhs: 200 of 200 values are not finite" in result.stderr
    assert [w.message for w in caught] == []
    assert "Warning" not in result.stderr
    obj = json.loads((out / "report.json").read_text())
    assert obj["failed"] is True and obj["results"] == [] and obj["excluded"] == 0


class TestSweep:
    def test_every_value_failing_writes_a_failed_sweep(self, runner, tmp_path):
        text = KHINTCHINE_CFG.replace("integrand.matrix.1 = 1", "integrand.matrix.1 = 1e154")
        cfg = write_cfg(tmp_path, text + "sweep.parameter = steps\nsweep.values = 4 8\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 1, result.output
        for value in (4, 8):
            message = f"run failed at steps = {value}: khintchine rhs: ||sum_i H_i^2|| is not finite"
            assert message in result.stderr
        assert "result: FAILED" in result.output
        assert (out / "sweep.csv").read_text() == "parameter,value," + GOLDEN_HEADER + "\n"
        obj = json.loads((out / "sweep.json").read_text())
        assert obj["failed"] is True and obj["results"] == []

    def test_failing_value_keeps_the_others(self, runner, tmp_path):
        text = BDG_OVERFLOW_CFG + "sweep.parameter = p\nsweep.values = 2 4\n"
        args = ["sweep", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "run failed at p = 4: bdg lhs: 200 of 200 values are not finite" in result.stderr
        assert "p = 2" not in result.stderr
        assert [w.message for w in caught] == []
        assert "Warning" not in result.stderr
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("p,2.0,bdg,1,1,constant,2,")
        obj = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert obj["failed"] is True
        assert [(r["value"], r["p"], r["holds"]) for r in obj["results"]] == [(2.0, 2, True)]

    def test_long_format_csv(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "integrand.family = diag_basis\nintegrand.n = 2\npaths = 2000\nmaster_seed = 3\n"
            "check.1.kind = khintchine\nsweep.parameter = n\nsweep.values = 2 4\n",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "parameter,value," + GOLDEN_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("n,2.0,khintchine")
        obj = json.loads((out / "sweep.json").read_text())
        assert obj["sweep_parameter"] == "n"

    def test_worker_counts_emit_identical_bytes(self, runner, tmp_path):
        cfg = write_cfg(
            tmp_path, VERIFY_CFG + POOLED + "sweep.parameter = u\nsweep.values = 1.5 2.5\n"
        )
        outs = [tmp_path / "w1", tmp_path / "w3"]
        for out, workers in zip(outs, ["1", "3"]):
            args = ["sweep", "--config", cfg, "--out", str(out), "--workers", workers]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
        for name in ("sweep.csv", "sweep.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert len((outs[0] / "sweep.csv").read_text().splitlines()) == 5

    def test_without_sweep_section_exits_two(self, runner, tmp_path):
        cfg = write_cfg(tmp_path, VERIFY_CFG)
        result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "no sweep section" in result.output


class TestLemmas:
    def test_deterministic_suite(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["lemmas", "--out", str(out), "--seed", "42", "--count", "150"]
        )
        assert result.exit_code == 0, result.output
        assert "300/300 checks hold" in result.output
        lines = (out / "report.csv").read_text().splitlines()
        assert len(lines) == 301
        assert lines[0] == GOLDEN_HEADER
        assert json.loads((out / "report.json").read_text())["master_seed"] == 42

    def test_rerun_identical(self, runner, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            result = runner.invoke(
                main, ["lemmas", "--out", str(out), "--seed", "7", "--count", "50"]
            )
            assert result.exit_code == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
