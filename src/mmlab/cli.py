"""Command-line surface: verify, simulate, khintchine, sweep, lemmas.

Exit codes: 0 all checks hold, 1 any check failed (or runtime failure),
2 configuration, usage or I/O error, a config with no checks among them.
verify, khintchine and lemmas end in :func:`_finish`, which writes the
report, failed ones included; a sweep writes every value's report and
names on stderr each value whose run failed.  Config values come from
the file, then MMLAB_-prefixed environment variables, then --set pairs,
then --seed.
"""

from __future__ import annotations

import os
from pathlib import Path

import click

from . import __version__
from .config import parse_settings
from .errors import ConfigError, MmlabError
from .report import (
    emit_report,
    emit_sweep,
    run_khintchine,
    run_lemmas,
    run_simulate,
    run_sweep,
    run_verify,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _load_settings(config_path, sets, seed):
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    overrides = {}
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if seed is not None:
        overrides["master_seed"] = str(seed)
    return parse_settings(text, overrides=overrides, environ=os.environ)


def _execute(body):
    try:
        code = body()
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        code = EXIT_CONFIG
    except OSError as exc:
        click.echo(f"io error: {exc}", err=True)
        code = EXIT_CONFIG
    except MmlabError as exc:
        click.echo(f"run failed: {exc}", err=True)
        code = EXIT_CHECK_FAILED
    raise SystemExit(code)


def _finish(report, fmt, out_dir) -> int:
    """Write the report, print its summary, and return the exit code."""
    files = emit_report(report, fmt, out_dir)
    if report.error is not None:
        click.echo(f"run failed: {report.error}", err=True)
    if len(report.results) > 20:
        held = sum(r.holds for r in report.results)
        click.echo(f"{held}/{len(report.results)} checks hold")
    else:
        for r in report.results:
            status = "holds" if r.holds else "FAILED"
            click.echo(f"{r.name}: lhs={r.lhs:.6g} rhs={r.rhs:.6g} {status}")
    if report.excluded:
        click.echo(f"excluded paths: {report.excluded}/{report.paths}")
    if report.wall_time is not None:
        click.echo(f"wall time: {report.wall_time:.2f}s")
    return _close(files, report.failed)


def _close(files, failed: bool) -> int:
    """Name the written files and return the exit code."""
    for path in files:
        click.echo(f"wrote {path}")
    if failed:
        click.echo("result: FAILED")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _config_option(required=True):
    return click.option(
        "--config",
        "config_path",
        type=click.Path(exists=True, dir_okay=False),
        required=required,
        help="Experiment config file.",
    )


_out_option = click.option("--out", "out_dir", default="out", help="Output directory.")
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json", "both"]),
    default="both",
    help="Report formats to write.",
)
_seed_option = click.option(
    "--seed", type=click.IntRange(0, 2**64 - 1), default=None, help="Master seed override."
)
_workers_option = click.option(
    "--workers", type=click.IntRange(min=1), default=1, help="Worker processes."
)
_set_option = click.option(
    "--set",
    "sets",
    multiple=True,
    metavar="KEY=VALUE",
    help="Config override (repeatable).",
)


@click.group()
@click.version_option(__version__, prog_name="mmlab")
def main():
    """Monte Carlo checks for matrix stochastic-integral inequalities."""


@main.command()
@_config_option()
@_out_option
@_format_option
@_seed_option
@_workers_option
@_set_option
def verify(config_path, out_dir, fmt, seed, workers, sets):
    """Run all configured inequality checks and write a report."""

    def body():
        settings = _load_settings(config_path, sets, seed)
        return _finish(run_verify(settings.experiment, workers=workers), fmt, out_dir)

    _execute(body)


@main.command()
@_config_option()
@_out_option
@_seed_option
@_set_option
def simulate(config_path, out_dir, seed, sets):
    """Dump the configured trajectories, one CSV per path index."""

    def body():
        settings = _load_settings(config_path, sets, seed)
        return _close(run_simulate(settings, out_dir), failed=False)

    _execute(body)


@main.command()
@_config_option()
@_out_option
@_format_option
@_seed_option
@_set_option
def khintchine(config_path, out_dir, fmt, seed, sets):
    """Check the Gaussian matrix series against the log-dimension shape."""

    def body():
        settings = _load_settings(config_path, sets, seed)
        return _finish(run_khintchine(settings.experiment), fmt, out_dir)

    _execute(body)


@main.command()
@_config_option()
@_out_option
@_format_option
@_seed_option
@_workers_option
@_set_option
def sweep(config_path, out_dir, fmt, seed, workers, sets):
    """Vary one parameter over a list and emit a long-format table."""

    def body():
        settings = _load_settings(config_path, sets, seed)
        if settings.sweep is None:
            raise ConfigError("config has no sweep section", key="sweep.parameter")
        parameter = settings.sweep.parameter
        reports = run_sweep(settings, workers=workers)
        files = emit_sweep(parameter, reports, fmt, out_dir)
        click.echo(f"swept {parameter} over {len(reports)} values")
        for value, report in reports:
            if report.error is not None:
                click.echo(f"run failed at {parameter} = {value:g}: {report.error}", err=True)
        return _close(files, any(report.failed for _, report in reports))

    _execute(body)


@main.command()
@_config_option(required=False)
@_out_option
@_format_option
@_seed_option
@click.option("--count", type=click.IntRange(min=1), default=10_000, help="Instances per lemma.")
def lemmas(config_path, out_dir, fmt, seed, count):
    """Random sweep of the deterministic trace and Hessian lemmas."""

    def body():
        master = 0
        if config_path is not None:
            master = _load_settings(config_path, (), None).experiment.master_seed
        if seed is not None:
            master = seed
        return _finish(run_lemmas(seed=master, count=count), fmt, out_dir)

    _execute(body)


if __name__ == "__main__":
    main()
