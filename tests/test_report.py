"""Report serialization: golden columns, round trips, reproducibility."""

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mmlab.checks import CheckResult
from mmlab.config import parse_settings, sweep_configs
from mmlab.errors import ConfigError, InputDomainError
from mmlab.montecarlo import derive_path_seed
from mmlab.report import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    Report,
    assemble_report,
    emit_report,
    emit_sweep,
    parse_report_json,
    render_csv,
    render_json,
    result_row,
    run_khintchine,
    run_lemmas,
    run_simulate,
    run_sweep,
    run_verify,
    trajectory_csv,
)
from mmlab.simulate import TimeGrid, simulate_path, supermartingale_series

from .oracles import reference_path, summarize

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_HEADER = "name,n,N,family,p,u,sigma2,t,lhs,lhs_ci,rhs,rhs_ci,ratio,holds,paths,seed"

SMALL_VERIFY = """\
integrand.family = constant
integrand.matrix.1 = 1
grid.steps = 16
paths = 200
master_seed = 11
check.1.kind = freedman
check.1.u = 2.0
check.1.sigma2 = 1.0
check.2.kind = schatten
check.2.p = 1
"""


@pytest.fixture(scope="module")
def small_report():
    return run_verify(parse_settings(SMALL_VERIFY).experiment)


class TestRows:
    def test_column_order_is_golden(self):
        assert ",".join(CSV_COLUMNS) == GOLDEN_HEADER

    def test_row_fields(self):
        res = CheckResult(
            "freedman",
            0.04,
            0.135,
            0.005,
            0.0,
            True,
            {"n": 1, "N": 1, "family": "constant", "u": 2.0, "sigma2": 1.0, "t": 1.0, "paths": 100},
        )
        row = result_row(res, seed=42)
        assert list(row) == list(CSV_COLUMNS)
        assert row["name"] == "freedman"
        assert row["u"] == 2.0 and row["sigma2"] == 1.0
        assert row["p"] is None
        assert row["ratio"] == pytest.approx(0.04 / 0.135)
        assert row["seed"] == 42

    def test_metadata_ratio_overrides(self):
        res = CheckResult("khintchine", 1.1, 0.8, 0.0, 0.0, True, {"ratio": 1.13})
        assert result_row(res, 0)["ratio"] == 1.13

    def test_nonfinite_ratio_blanked(self):
        res = CheckResult("bdg", 1.0, 0.0, 0.0, 0.0, False, {})
        assert result_row(res, 0)["ratio"] is None


class TestCsv:
    def test_header_only_when_empty(self):
        report = assemble_report((), master_seed=1, paths=0, excluded=0, config={})
        assert render_csv(report) == GOLDEN_HEADER + "\n"

    def test_freedman_row_serializes_values(self, small_report):
        text = render_csv(small_report)
        rows = list(csv.DictReader(io.StringIO(text)))
        freedman = next(r for r in rows if r["name"] == "freedman")
        res = next(r for r in small_report.results if r.name == "freedman")
        assert float(freedman["lhs"]) == res.lhs
        assert float(freedman["rhs"]) == res.rhs
        assert freedman["holds"] == ("true" if res.holds else "false")
        assert freedman["u"] == "2.0"
        assert freedman["family"] == "constant"
        assert int(freedman["paths"]) == 200
        assert int(freedman["seed"]) == 11

    def test_rerun_is_byte_identical(self):
        a = render_csv(run_verify(parse_settings(SMALL_VERIFY).experiment))
        b = render_csv(run_verify(parse_settings(SMALL_VERIFY).experiment))
        assert a == b


class TestJson:
    def test_schema_version_and_fields(self, small_report):
        import json

        obj = json.loads(render_json(small_report))
        assert obj["schema_version"] == SCHEMA_VERSION == 1
        assert obj["failed"] is False
        assert obj["paths"] == 200
        assert obj["config"]["checks"][0]["kind"] == "freedman"
        assert {r["name"] for r in obj["results"]} == {"freedman", "schatten"}

    def test_round_trip_identity(self, small_report):
        assert parse_report_json(render_json(small_report)) == small_report

    def test_keys_are_the_dataclass_fields(self, small_report):
        # a field added to Report (compared) or to CheckResult reaches the file
        obj = json.loads(render_json(small_report))
        assert list(obj) == [f.name for f in dataclasses.fields(Report) if f.compare]
        for r in obj["results"]:
            assert list(r) == [f.name for f in dataclasses.fields(CheckResult)]

    def test_golden_round_trip(self):
        report = run_verify(parse_settings((GOLDEN / "goe_kinds.cfg").read_text()).experiment)
        assert parse_report_json(render_json(report)) == report
        golden = (GOLDEN / "goe_kinds_report.json").read_text()
        assert render_json(parse_report_json(golden)) == golden

    def test_rerun_is_byte_identical(self):
        a = render_json(run_verify(parse_settings(SMALL_VERIFY).experiment))
        b = render_json(run_verify(parse_settings(SMALL_VERIFY).experiment))
        assert a == b


class TestEmit:
    def test_writes_requested_formats(self, small_report, tmp_path):
        files = emit_report(small_report, "both", tmp_path)
        assert [f.name for f in files] == ["report.csv", "report.json"]
        only_csv = emit_report(small_report, "csv", tmp_path / "c")
        assert [f.name for f in only_csv] == ["report.csv"]
        assert (tmp_path / "report.csv").read_text().startswith(GOLDEN_HEADER)

    def test_invalid_format(self, small_report, tmp_path):
        with pytest.raises(InputDomainError):
            emit_report(small_report, "yaml", tmp_path)

    def test_failed_flag_from_exclusions(self):
        # every path's qv norm overflows: run_batch refuses the batch over
        # the 0.1% exclusion limit, and the report records it without results
        text = SMALL_VERIFY.replace("integrand.matrix.1 = 1", "integrand.matrix.1 = 1e200")
        report = run_verify(parse_settings(text).experiment)
        assert report.failed and report.results == ()
        assert report.excluded == report.paths == 200
        assert report.error.startswith("200 of 200 paths excluded")


class TestTrajectoryDump:
    def test_columns_and_values(self):
        settings = parse_settings(SMALL_VERIFY)
        exp = settings.experiment
        grid, seed = TimeGrid(1.0, 8), derive_path_seed(exp.master_seed, 0)
        text = trajectory_csv(simulate_path(exp.spec, grid, seed))
        lines = text.splitlines()
        assert lines[0] == "step,time,lambda_max,spectral_norm,qv_norm"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0
        assert float(first[2]) == 0.0 and float(first[3]) == 0.0
        summary = summarize(reference_path(exp.spec, grid, seed))
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed[:, 2], summary.lambda_max_series)
        assert np.array_equal(parsed[:, 4], summary.qv_norm_series)
        assert np.all(np.diff(parsed[:, 4]) >= 0.0)

    def test_supermartingale_column(self):
        settings = parse_settings(SMALL_VERIFY)
        exp = settings.experiment
        grid, seed = TimeGrid(1.0, 8), derive_path_seed(exp.master_seed, 0)
        text = trajectory_csv(simulate_path(exp.spec, grid, seed), beta=0.5)
        lines = text.splitlines()
        assert lines[0].endswith(",supermart_beta0.5")
        series = supermartingale_series(reference_path(exp.spec, grid, seed), 0.5)
        assert float(lines[1].split(",")[5]) == series[0] == 1.0
        parsed = [float(line.split(",")[5]) for line in lines[1:]]
        assert np.array_equal(parsed, series)

    def test_run_simulate_writes_files(self, tmp_path):
        text = SMALL_VERIFY + "dump.paths = 0 3\ndump.beta = 1.0\n"
        files = run_simulate(parse_settings(text), tmp_path)
        assert [f.name for f in files] == ["trajectory_0.csv", "trajectory_3.csv"]
        for f in files:
            assert f.read_text().splitlines()[0].endswith("supermart_beta1")

    def test_default_dump_is_first_path(self, tmp_path):
        files = run_simulate(parse_settings(SMALL_VERIFY), tmp_path)
        assert [f.name for f in files] == ["trajectory_0.csv"]


class TestDrivers:
    def test_run_lemmas_report(self):
        report = run_lemmas(seed=5, count=30)
        assert report.paths == 0 and report.excluded == 0
        assert len(report.results) == 60
        assert not report.failed
        assert len(render_csv(report).splitlines()) == 61

    def test_run_khintchine_synthesizes_check(self):
        text = "integrand.family = diag_basis\nintegrand.n = 2\npaths = 5000\nmaster_seed = 3\n"
        report = run_khintchine(parse_settings(text).experiment)
        assert [r.name for r in report.results] == ["khintchine"]
        assert abs(report.results[0].metadata["ratio"] - 2.0 / math.sqrt(math.pi)) < 0.05
        assert not report.failed

    def test_run_khintchine_filters_other_checks(self):
        text = (
            "integrand.family = diag_basis\nintegrand.n = 2\npaths = 5000\nmaster_seed = 3\n"
            "check.1.kind = bdg\ncheck.1.p = 1\ncheck.2.kind = khintchine\n"
        )
        report = run_khintchine(parse_settings(text).experiment)
        assert [r.name for r in report.results] == ["khintchine"]

    def test_run_khintchine_rejects_time_dependence(self):
        text = (
            "integrand.family = time_poly\nintegrand.matrix.1 = 1\n"
            "integrand.slope.1 = 1\npaths = 5000\nmaster_seed = 3\n"
        )
        with pytest.raises(ConfigError, match="constant-in-time"):
            run_khintchine(parse_settings(text).experiment)

    def test_run_khintchine_needs_samples(self):
        text = "integrand.family = diag_basis\nintegrand.n = 2\npaths = 50\nmaster_seed = 3\n"
        with pytest.raises(ConfigError, match="paths"):
            run_khintchine(parse_settings(text).experiment)

    def test_run_sweep_long_format(self, tmp_path):
        text = (
            "integrand.family = diag_basis\nintegrand.n = 2\npaths = 2000\nmaster_seed = 3\n"
            "check.1.kind = khintchine\nsweep.parameter = n\nsweep.values = 2 4\n"
        )
        settings = parse_settings(text)
        reports = run_sweep(settings)
        # each value's report is the one verify gives for its own config
        for (value, report), (_, cfg) in zip(reports, sweep_configs(settings)):
            assert render_json(report) == render_json(run_verify(cfg))
        emit_sweep("n", reports, "json", tmp_path)
        obj = json.loads((tmp_path / "sweep.json").read_text())
        rows = obj["results"]
        assert [r["value"] for r in rows] == [2.0, 4.0]
        assert [r["n"] for r in rows] == [2, 4]
        assert obj["failed"] is False
        # ratio grows with n
        assert rows[1]["ratio"] > rows[0]["ratio"]

    def test_verify_failed_report_on_falsified_rhs(self):
        text = SMALL_VERIFY.replace("paths = 200", "paths = 3000") + "test_hooks.rhs_multiplier = 0\n"
        report = run_verify(parse_settings(text).experiment)
        assert report.failed
        assert any(not r.holds for r in report.results)
