"""Report assembly, CSV/JSON serialization, and subcommand drivers.

Serialized artifacts are a pure function of (config, master seed):
wall-clock time is carried on the Report for console display but never
written to files, so reruns and different worker counts emit identical
bytes.  ``report.json`` is written and read from the dataclasses: its
keys are the compared fields of :class:`Report` and the fields of
:class:`CheckResult`, in declaration order.  ``khintchine`` is
:func:`run_verify` on its own checks, and a sweep is one
:func:`run_verify` report per value, so a value whose run fails gets a
failed report and the other values still run.  A run with no checks is
refused.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .checks import CheckRequest, CheckResult, run_experiment_checks, run_lemma_suite
from .config import DumpSettings, RunSettings, sweep_configs
from .errors import BatchError, ConfigError, InputDomainError, NumericError
from .linalg import stacked_eigenvalues
from .montecarlo import ExperimentConfig, derive_path_seed
from .simulate import Trajectory, simulate_path, supermartingale_series

SCHEMA_VERSION = 1
CSV_COLUMNS = tuple(
    "name,n,N,family,p,u,sigma2,t,lhs,lhs_ci,rhs,rhs_ci,ratio,holds,paths,seed".split(",")
)


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"value of type {type(value).__name__} is not serializable")


def _normalize(r: CheckResult) -> CheckResult:
    values = (float(r.lhs), float(r.rhs), float(r.lhs_ci), float(r.rhs_ci))
    return CheckResult(r.name, *values, bool(r.holds), _json_safe(r.metadata))


@dataclass(frozen=True)
class Report:
    """One run's results plus the facts needed to reproduce it.

    ``wall_time`` and ``error`` (why a run ended without results) are for
    console display and are never written to files.
    """

    schema_version: int
    version: str
    failed: bool
    master_seed: int
    paths: int
    excluded: int
    config: dict
    results: tuple[CheckResult, ...]
    wall_time: float | None = field(default=None, compare=False)
    error: str | None = field(default=None, compare=False)


def config_echo(config: ExperimentConfig) -> dict:
    return _json_safe(
        {
            "family": config.spec.family,
            "n": config.spec.n,
            "drivers": config.spec.drivers,
            "rect_shape": config.spec.rect_shape,
            "horizon": config.grid.horizon,
            "steps": config.grid.steps,
            "paths": config.paths,
            "master_seed": config.master_seed,
            "block_size": config.block_size,
            "confidence": config.confidence,
            "slack_factor": config.slack_factor,
            "bootstrap_resamples": config.bootstrap_resamples,
            "rhs_multiplier": config.rhs_multiplier,
            "checks": [dataclasses.asdict(c) for c in config.checks],
        }
    )


def assemble_report(
    results,
    *,
    master_seed: int,
    paths: int,
    excluded: int,
    config: dict,
    wall_time: float | None = None,
    error: str | None = None,
) -> Report:
    """A run's report; it is failed when ``error`` says why the run ended
    without results or a check fails."""
    normalized = tuple(_normalize(r) for r in results)
    return Report(
        schema_version=SCHEMA_VERSION,
        version=__version__,
        failed=error is not None or any(not r.holds for r in normalized),
        master_seed=int(master_seed),
        paths=int(paths),
        excluded=int(excluded),
        config=config,
        results=normalized,
        wall_time=wall_time,
        error=error,
    )


def result_row(result: CheckResult, seed: int) -> dict:
    """One CSV row: the result's own values, the rest from its metadata."""
    md = result.metadata
    row = {c: md.get(c) for c in CSV_COLUMNS}
    ratio = md.get("ratio", result.ratio)
    row.update(
        name=result.name,
        lhs=result.lhs,
        lhs_ci=result.lhs_ci,
        rhs=result.rhs,
        rhs_ci=result.rhs_ci,
        ratio=ratio if ratio is not None and math.isfinite(ratio) else None,
        holds=result.holds,
        seed=seed,
    )
    return row


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_lines(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def render_csv(report: Report) -> str:
    rows = [result_row(r, report.master_seed) for r in report.results]
    return _csv_lines(CSV_COLUMNS, rows)


def _compared(obj) -> dict:
    """A dataclass instance's compared fields, in declaration order."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare}


def render_json(report: Report) -> str:
    obj = _compared(report)
    obj["results"] = [_compared(r) for r in report.results]
    return json.dumps(obj, indent=2) + "\n"


def parse_report_json(text: str) -> Report:
    obj = json.loads(text)
    obj["results"] = tuple(CheckResult(**r) for r in obj["results"])
    return Report(**obj)


def _write_files(out_dir, fmt: str, stem: str, **renders) -> list[Path]:
    """Write ``<stem>.<ext>`` for each format `fmt` names (csv, json, both).

    ``renders`` maps each extension to a function returning its text.
    """
    if fmt not in ("csv", "json", "both"):
        raise InputDomainError(f"format must be csv, json, or both, got '{fmt}'")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for ext, render in renders.items():
        if fmt in (ext, "both"):
            path = out / f"{stem}.{ext}"
            path.write_text(render())
            written.append(path)
    return written


def emit_report(report: Report, fmt: str, out_dir) -> list[Path]:
    """Write report.csv / report.json per `fmt` (csv, json, both)."""
    return _write_files(
        out_dir, fmt, "report", csv=lambda: render_csv(report), json=lambda: render_json(report)
    )


def run_verify(exp: ExperimentConfig, workers: int = 1) -> Report:
    """Simulate the configured batch and evaluate every check.

    A batch over the exclusion limit or a non-finite check statistic ends
    in a failed report without results.  A run that checks nothing would
    read as a run where every check held, so it is refused.
    """
    if not exp.checks:
        raise ConfigError("config has no checks", key="check.1.kind")
    started = time.perf_counter()
    results, error = (), None
    try:
        batch, results = run_experiment_checks(exp, workers=workers)
    except (BatchError, NumericError) as exc:
        excluded, error = getattr(exc, "excluded", 0), str(exc)
    else:
        excluded = batch.excluded_count if batch is not None else 0
    return assemble_report(
        results,
        master_seed=exp.master_seed,
        paths=exp.paths,
        excluded=excluded,
        config=config_echo(exp),
        wall_time=time.perf_counter() - started,
        error=error,
    )


def run_khintchine(exp: ExperimentConfig) -> Report:
    """:func:`run_verify` on the Gaussian-series checks alone (no path
    simulation); a config without one checks ``khintchine``."""
    kchecks = tuple(c for c in exp.checks if not c.needs_batch)
    if not kchecks:
        kchecks = (CheckRequest("khintchine"),)
    try:
        cfg = dataclasses.replace(exp, checks=kchecks)
    except InputDomainError as exc:
        key = "paths" if exc.field == "paths" else "integrand.family"
        raise ConfigError(str(exc), key=key) from exc
    return run_verify(cfg)


def run_lemmas(seed: int = 0, count: int = 10_000) -> Report:
    """Random deterministic-lemma sweep packaged as a report."""
    started = time.perf_counter()
    results = run_lemma_suite(count=count, seed=seed)
    return assemble_report(
        results,
        master_seed=seed,
        paths=0,
        excluded=0,
        config={"subcommand": "lemmas", "count": count, "seed": seed},
        wall_time=time.perf_counter() - started,
    )


def run_sweep(settings: RunSettings, workers: int = 1) -> list[tuple[float, Report]]:
    """One :func:`run_verify` report per swept value, in sweep order.

    Every value is expanded before the first one runs, so a config error
    in any of them stops the sweep before anything is simulated.
    """
    return [(value, run_verify(cfg, workers)) for value, cfg in sweep_configs(settings)]


def emit_sweep(
    parameter: str, reports: list[tuple[float, Report]], fmt: str, out_dir
) -> list[Path]:
    """Write sweep.csv / sweep.json per `fmt` (csv, json, both): each
    report's rows, prefixed by (parameter, value); failed if any report is."""
    rows = [
        {"parameter": parameter, "value": value, **result_row(r, report.master_seed)}
        for value, report in reports
        for r in report.results
    ]
    obj = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "failed": any(report.failed for _, report in reports),
        "sweep_parameter": parameter,
        "results": rows,
    }
    return _write_files(
        out_dir,
        fmt,
        "sweep",
        csv=lambda: _csv_lines(("parameter", "value") + CSV_COLUMNS, rows),
        json=lambda: json.dumps(obj, indent=2) + "\n",
    )


def trajectory_csv(traj: Trajectory, beta: float | None = None) -> str:
    """Per-step trajectory table (step, time, norms, optional supermartingale)."""
    eig_x = stacked_eigenvalues(traj.x)
    eig_qv = stacked_eigenvalues(traj.qv)
    columns = {
        "step": np.arange(len(traj.x)),
        "time": traj.times,
        "lambda_max": eig_x[:, -1],
        "spectral_norm": np.maximum(np.abs(eig_x[:, 0]), np.abs(eig_x[:, -1])),
        "qv_norm": np.maximum(np.abs(eig_qv[:, 0]), np.abs(eig_qv[:, -1])),
    }
    if beta is not None:
        columns[f"supermart_beta{beta:g}"] = supermartingale_series(traj, beta)
    values = zip(*(c.tolist() for c in columns.values()))
    return _csv_lines(columns, [dict(zip(columns, row)) for row in values])


def run_simulate(settings: RunSettings, out_dir) -> list[Path]:
    """Dump the requested trajectories, one CSV per path index."""
    exp = settings.experiment
    dump = settings.dump or DumpSettings(paths=(0,), beta=None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for index in dump.paths:
        traj = simulate_path(exp.spec, exp.grid, derive_path_seed(exp.master_seed, index))
        path = out / f"trajectory_{index}.csv"
        path.write_text(trajectory_csv(traj, dump.beta))
        written.append(path)
    return written
