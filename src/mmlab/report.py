"""Report assembly, CSV/JSON serialization, and subcommand drivers.

Serialized artifacts are a pure function of (config, master seed):
wall-clock time is carried on the Report for console display but never
written to files, so reruns and different worker counts emit identical
bytes.
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
from .checks import (
    CheckRequest,
    CheckResult,
    evaluate_checks,
    run_experiment_checks,
    run_lemma_suite,
)
from .config import DumpSettings, RunSettings, sweep_configs
from .errors import BatchError, ConfigError, InputDomainError, NumericError
from .linalg import stacked_eigenvalues
from .montecarlo import ExperimentConfig, derive_path_seed
from .simulate import Trajectory, simulate_path, supermartingale_series

SCHEMA_VERSION = 1
CSV_COLUMNS = (
    "name",
    "n",
    "N",
    "family",
    "p",
    "u",
    "sigma2",
    "t",
    "lhs",
    "lhs_ci",
    "rhs",
    "rhs_ci",
    "ratio",
    "holds",
    "paths",
    "seed",
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


def _normalize(result: CheckResult) -> CheckResult:
    return CheckResult(
        name=result.name,
        lhs=float(result.lhs),
        rhs=float(result.rhs),
        lhs_ci=float(result.lhs_ci),
        rhs_ci=float(result.rhs_ci),
        holds=bool(result.holds),
        metadata=_json_safe(result.metadata),
    )


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
    force_failed: bool = False,
    error: str | None = None,
) -> Report:
    normalized = tuple(_normalize(r) for r in results)
    failed = (
        force_failed
        or any(not r.holds for r in normalized)
        or (paths > 0 and excluded > 0.001 * paths)
    )
    return Report(
        schema_version=SCHEMA_VERSION,
        version=__version__,
        failed=failed,
        master_seed=int(master_seed),
        paths=int(paths),
        excluded=int(excluded),
        config=config,
        results=normalized,
        wall_time=wall_time,
        error=error,
    )


def result_row(result: CheckResult, seed: int) -> dict:
    md = result.metadata
    ratio = md.get("ratio", result.ratio)
    if ratio is not None and not math.isfinite(ratio):
        ratio = None
    return {
        "name": result.name,
        "n": md.get("n"),
        "N": md.get("N"),
        "family": md.get("family"),
        "p": md.get("p"),
        "u": md.get("u"),
        "sigma2": md.get("sigma2"),
        "t": md.get("t"),
        "lhs": result.lhs,
        "lhs_ci": result.lhs_ci,
        "rhs": result.rhs,
        "rhs_ci": result.rhs_ci,
        "ratio": ratio,
        "holds": result.holds,
        "paths": md.get("paths"),
        "seed": seed,
    }


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


def render_json(report: Report) -> str:
    obj = {
        "schema_version": report.schema_version,
        "version": report.version,
        "failed": report.failed,
        "master_seed": report.master_seed,
        "paths": report.paths,
        "excluded": report.excluded,
        "config": report.config,
        "results": [
            {
                "name": r.name,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "lhs_ci": r.lhs_ci,
                "rhs_ci": r.rhs_ci,
                "holds": r.holds,
                "metadata": r.metadata,
            }
            for r in report.results
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def parse_report_json(text: str) -> Report:
    obj = json.loads(text)
    return Report(
        schema_version=obj["schema_version"],
        version=obj["version"],
        failed=obj["failed"],
        master_seed=obj["master_seed"],
        paths=obj["paths"],
        excluded=obj["excluded"],
        config=obj["config"],
        results=tuple(
            CheckResult(
                name=r["name"],
                lhs=r["lhs"],
                rhs=r["rhs"],
                lhs_ci=r["lhs_ci"],
                rhs_ci=r["rhs_ci"],
                holds=r["holds"],
                metadata=r["metadata"],
            )
            for r in obj["results"]
        ),
    )


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


def run_verify(settings: RunSettings, workers: int = 1) -> Report:
    """Simulate the configured batch and evaluate every check.

    A batch over the exclusion limit or a non-finite check statistic ends
    in a failed report without results.
    """
    exp = settings.experiment
    started = time.perf_counter()
    try:
        batch, results = run_experiment_checks(exp, workers=workers)
    except (BatchError, NumericError) as exc:
        return assemble_report(
            (),
            master_seed=exp.master_seed,
            paths=exp.paths,
            excluded=getattr(exc, "excluded", 0),
            config=config_echo(exp),
            wall_time=time.perf_counter() - started,
            force_failed=True,
            error=str(exc),
        )
    return assemble_report(
        results,
        master_seed=exp.master_seed,
        paths=exp.paths,
        excluded=batch.excluded_count if batch is not None else 0,
        config=config_echo(exp),
        wall_time=time.perf_counter() - started,
    )


def run_khintchine(settings: RunSettings) -> Report:
    """Evaluate only the Gaussian-series checks (no path simulation)."""
    exp = settings.experiment
    kchecks = tuple(c for c in exp.checks if not c.needs_batch)
    if not kchecks:
        kchecks = (CheckRequest("khintchine"),)
    try:
        cfg = dataclasses.replace(exp, checks=kchecks)
    except InputDomainError as exc:
        key = "paths" if exc.field == "paths" else "integrand.family"
        raise ConfigError(str(exc), key=key) from exc
    started = time.perf_counter()
    results = evaluate_checks(cfg, None)
    return assemble_report(
        results,
        master_seed=cfg.master_seed,
        paths=cfg.paths,
        excluded=0,
        config=config_echo(cfg),
        wall_time=time.perf_counter() - started,
    )


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


def run_sweep(settings: RunSettings, workers: int = 1) -> tuple[str, list[dict], bool]:
    """Run the configured sweep; returns (parameter, long-format rows, failed)."""
    rows = []
    failed = False
    parameter = settings.sweep.parameter
    for value, cfg in sweep_configs(settings):
        _, results = run_experiment_checks(cfg, workers=workers)
        for result in results:
            normalized = _normalize(result)
            failed = failed or not normalized.holds
            rows.append(
                {
                    "parameter": parameter,
                    "value": value,
                    **result_row(normalized, cfg.master_seed),
                }
            )
    return parameter, rows, failed


def emit_sweep(parameter: str, rows: list[dict], failed: bool, fmt: str, out_dir) -> list[Path]:
    """Write sweep.csv / sweep.json per `fmt` (csv, json, both)."""
    obj = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "failed": failed,
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
    lam = eig_x[:, -1]
    spectral = np.maximum(np.abs(eig_x[:, 0]), np.abs(eig_x[:, -1]))
    qv_norm = np.maximum(np.abs(eig_qv[:, 0]), np.abs(eig_qv[:, -1]))
    columns = ["step", "time", "lambda_max", "spectral_norm", "qv_norm"]
    series = None
    if beta is not None:
        columns.append(f"supermart_beta{beta:g}")
        series = supermartingale_series(traj, beta)
    lines = [",".join(columns)]
    for k in range(traj.x.shape[0]):
        row = [
            str(k),
            repr(float(traj.times[k])),
            repr(float(lam[k])),
            repr(float(spectral[k])),
            repr(float(qv_norm[k])),
        ]
        if series is not None:
            row.append(repr(float(series[k])))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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
