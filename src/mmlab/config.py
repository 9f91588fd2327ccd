"""Plain-text experiment configuration.

Format: one ``key = value`` pair per line, ``#`` starts a full-line
comment, keys use dotted sections.  Matrix values are row-major with
rows separated by ``;`` and entries by whitespace, e.g. ``1 0; 0 1``.
Unknown keys are errors.  Overrides (environment variables with the
``MMLAB_`` prefix, then ``--set`` pairs) replace file values before any
typed validation runs; in environment names ``__`` stands for a dot.

Documented schema (defaults in parentheses):

    integrand.family            constant | time_poly | path_feedback |
                                diag_basis | goe_like | rect_constant
    integrand.matrix.<j>        payload matrices, 1-based contiguous
    integrand.slope.<j>         time_poly slopes, same count as matrices
    integrand.gamma             path_feedback coupling
    integrand.n                 dimension (diag_basis, goe_like)
    integrand.drivers           driver count (goe_like)
    integrand.seed              draw seed (goe_like, default 0)
    grid.horizon (1.0)          time horizon
    grid.steps (256)            grid steps
    paths                       simulated paths / sample count
    master_seed                 64-bit seed
    block_size (4096)           most paths per engine call
    confidence (0.99)           interval confidence level
    slack_factor (3.0)          verdict slack in combined half-widths
    bootstrap.resamples (1000)  bootstrap resample count
    check.<i>.kind              a kind in checks.CHECK_REGISTRY
    check.<i>.<param>           the parameters that kind takes, and no
                                others (t defaults to grid.horizon):
                                freedman, good_lambda    u, sigma2
                                bdg, schatten,
                                schatten_rect            p (integer), t
                                biane_speicher           t
                                supermartingale          beta
                                khintchine               none
    sweep.parameter             n | p | u | steps (p and u: the checks
                                that take them)
    sweep.values                whitespace-separated numbers
    dump.paths (0)              path indices to dump as trajectories
    dump.beta                   adds a supermartingale dump column
    test_hooks.rhs_multiplier (1.0)    rhs falsification hook
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputDomainError
from .integrands import (
    constant_spec,
    diag_basis_spec,
    goe_like_spec,
    path_feedback_spec,
    rect_constant_spec,
    time_poly_spec,
)
from .checks import CHECK_REGISTRY, CheckRequest
from .montecarlo import ExperimentConfig
from .simulate import TimeGrid

ENV_PREFIX = "MMLAB_"

CONFIG_FAMILIES = (
    "constant",
    "time_poly",
    "path_feedback",
    "diag_basis",
    "goe_like",
    "rect_constant",
)
SWEEP_PARAMETERS = ("n", "p", "u", "steps")

# every parameter some check kind takes, by name
_CHECK_PARAMS = {p.name: p for kind in CHECK_REGISTRY.values() for p in kind.params}

_INDEXED = r"[1-9][0-9]*"
_KNOWN_KEYS = (
    re.compile(rf"integrand\.(family|gamma|n|drivers|seed|(matrix|slope)\.{_INDEXED})\Z"),
    re.compile(r"grid\.(horizon|steps)\Z"),
    re.compile(r"(paths|master_seed|block_size|confidence|slack_factor)\Z"),
    re.compile(r"bootstrap\.resamples\Z"),
    re.compile(rf"check\.{_INDEXED}\.(kind|{'|'.join(_CHECK_PARAMS)})\Z"),
    re.compile(r"sweep\.(parameter|values)\Z"),
    re.compile(r"dump\.(paths|beta)\Z"),
    re.compile(r"test_hooks\.rhs_multiplier\Z"),
)


@dataclass(frozen=True)
class SweepSettings:
    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class DumpSettings:
    paths: tuple[int, ...]
    beta: float | None


@dataclass(frozen=True)
class RunSettings:
    """Everything a CLI run needs: the experiment plus optional extras."""

    experiment: ExperimentConfig
    sweep: SweepSettings | None = None
    dump: DumpSettings | None = None


class _Entry:
    __slots__ = ("value", "line", "source")

    def __init__(self, value: str, line: int | None, source: str | None):
        self.value = value
        self.line = line
        self.source = source


def _err(message: str, key: str | None, entry: _Entry | None = None) -> ConfigError:
    if entry is not None and entry.source is not None:
        message = f"{message} (from {entry.source})"
    return ConfigError(message, key=key, line=entry.line if entry else None)


def _check_known(key: str, entry: _Entry) -> None:
    if not any(pattern.match(key) for pattern in _KNOWN_KEYS):
        raise _err(f"unknown key '{key}'", key, entry)


def _parse_pairs(text: str) -> dict[str, _Entry]:
    entries: dict[str, _Entry] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        entry = _Entry(value, lineno, None)
        if not key:
            raise ConfigError("empty key", line=lineno)
        _check_known(key, entry)
        if not value:
            raise _err("empty value", key, entry)
        if key in entries:
            raise _err(f"duplicate key '{key}'", key, entry)
        entries[key] = entry
    return entries


def env_overrides(environ) -> dict[str, str]:
    """Extract config overrides from MMLAB_-prefixed variables."""
    out = {}
    for name, value in environ.items():
        if name.startswith(ENV_PREFIX):
            out[name[len(ENV_PREFIX):].lower().replace("__", ".")] = value
    return out


def _apply_overrides(entries, pairs: dict[str, str], source_prefix: str):
    for key, value in pairs.items():
        entry = _Entry(value.strip(), None, f"{source_prefix} {key}")
        _check_known(key, entry)
        if not entry.value:
            raise _err("empty value", key, entry)
        entries[key] = entry


def _to_int(key: str, entry: _Entry) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise _err(f"expected an integer, got '{entry.value}'", key, entry) from None


def _to_float(key: str, entry: _Entry) -> float:
    try:
        return float(entry.value)
    except ValueError:
        raise _err(f"expected a number, got '{entry.value}'", key, entry) from None


def _to_matrix(key: str, entry: _Entry) -> np.ndarray:
    rows = []
    for row_text in entry.value.split(";"):
        try:
            row = [float(tok) for tok in row_text.split()]
        except ValueError:
            raise _err(f"matrix entry is not a number in '{row_text.strip()}'", key, entry) from None
        if not row:
            raise _err("matrix has an empty row", key, entry)
        rows.append(row)
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise _err("matrix rows have unequal lengths", key, entry)
    return np.array(rows, dtype=np.float64)


def _to_numbers(key: str, entry: _Entry) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in entry.value.split())
    except ValueError:
        raise _err(f"expected whitespace-separated numbers, got '{entry.value}'", key, entry) from None
    if not values:
        raise _err("expected at least one value", key, entry)
    return values


def _to_ints(key: str, entry: _Entry) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in entry.value.split())
    except ValueError:
        raise _err(f"expected whitespace-separated integers, got '{entry.value}'", key, entry) from None


def _take_indexed(entries, prefix: str) -> list[tuple[int, str, _Entry]]:
    found = []
    for key in list(entries):
        if key.startswith(prefix):
            found.append((int(key[len(prefix):]), key, entries.pop(key)))
    found.sort()
    return found


def _indexed_matrices(entries, prefix: str, label: str) -> np.ndarray | None:
    found = _take_indexed(entries, prefix)
    if not found:
        return None
    expected = list(range(1, len(found) + 1))
    if [i for i, _, _ in found] != expected:
        raise ConfigError(
            f"{label} indices must be 1..{len(found)} without gaps",
            key=found[0][1],
        )
    return np.stack([_to_matrix(key, entry) for _, key, entry in found])


def _build_spec(entries):
    fam_entry = entries.pop("integrand.family", None)
    if fam_entry is None:
        raise ConfigError("missing required key", key="integrand.family")
    family = fam_entry.value
    if family not in CONFIG_FAMILIES:
        raise _err(
            f"unknown family '{family}'; expected one of {CONFIG_FAMILIES}",
            "integrand.family",
            fam_entry,
        )
    matrices = _indexed_matrices(entries, "integrand.matrix.", "matrix")
    slopes = _indexed_matrices(entries, "integrand.slope.", "slope")
    scalars = {}
    for name in ("gamma", "n", "drivers", "seed"):
        key = f"integrand.{name}"
        if key in entries:
            entry = entries.pop(key)
            scalars[name] = (
                _to_float(key, entry) if name == "gamma" else _to_int(key, entry)
            )

    def require_matrices():
        if matrices is None:
            raise ConfigError("missing required key", key="integrand.matrix.1")
        return matrices

    def reject(kind, value, label):
        if value is not None:
            raise ConfigError(f"{label} is not valid for family '{family}'", key=kind)

    try:
        if family == "constant":
            reject("integrand.slope.1", slopes, "slope")
            for name in scalars:
                raise ConfigError(
                    f"integrand.{name} is not valid for family 'constant'",
                    key=f"integrand.{name}",
                )
            return constant_spec(require_matrices())
        if family == "rect_constant":
            reject("integrand.slope.1", slopes, "slope")
            for name in scalars:
                raise ConfigError(
                    f"integrand.{name} is not valid for family 'rect_constant'",
                    key=f"integrand.{name}",
                )
            return rect_constant_spec(require_matrices())
        if family == "time_poly":
            for name in scalars:
                raise ConfigError(
                    f"integrand.{name} is not valid for family 'time_poly'",
                    key=f"integrand.{name}",
                )
            if slopes is None:
                raise ConfigError("missing required key", key="integrand.slope.1")
            return time_poly_spec(require_matrices(), slopes)
        if family == "path_feedback":
            reject("integrand.slope.1", slopes, "slope")
            for name in scalars:
                if name != "gamma":
                    raise ConfigError(
                        f"integrand.{name} is not valid for family 'path_feedback'",
                        key=f"integrand.{name}",
                    )
            if "gamma" not in scalars:
                raise ConfigError("missing required key", key="integrand.gamma")
            return path_feedback_spec(require_matrices(), scalars["gamma"])
        if family == "diag_basis":
            reject("integrand.matrix.1", matrices, "matrix")
            reject("integrand.slope.1", slopes, "slope")
            for name in scalars:
                if name != "n":
                    raise ConfigError(
                        f"integrand.{name} is not valid for family 'diag_basis'",
                        key=f"integrand.{name}",
                    )
            if "n" not in scalars:
                raise ConfigError("missing required key", key="integrand.n")
            return diag_basis_spec(scalars["n"])
        # goe_like
        reject("integrand.matrix.1", matrices, "matrix")
        reject("integrand.slope.1", slopes, "slope")
        if "gamma" in scalars:
            raise ConfigError(
                "integrand.gamma is not valid for family 'goe_like'",
                key="integrand.gamma",
            )
        for name in ("n", "drivers"):
            if name not in scalars:
                raise ConfigError("missing required key", key=f"integrand.{name}")
        return goe_like_spec(scalars["n"], scalars["drivers"], scalars.get("seed", 0))
    except InputDomainError as exc:
        raise ConfigError(str(exc), key="integrand") from exc


def _build_checks(entries) -> tuple[CheckRequest, ...]:
    groups: dict[int, dict[str, _Entry]] = {}
    for key in list(entries):
        m = re.match(rf"check\.({_INDEXED})\.(\w+)\Z", key)
        if m:
            groups.setdefault(int(m.group(1)), {})[m.group(2)] = entries.pop(key)
    checks = []
    for index in sorted(groups):
        fields = groups[index]
        if "kind" not in fields:
            raise ConfigError("missing required key", key=f"check.{index}.kind")
        kind = fields.pop("kind").value
        kwargs = {"kind": kind}
        for name, entry in fields.items():
            key = f"check.{index}.{name}"
            if kind in CHECK_REGISTRY and not CHECK_REGISTRY[kind].takes(name):
                raise _err(f"{key} is not valid for check kind '{kind}'", key, entry)
            convert = _to_int if _CHECK_PARAMS[name].integer else _to_float
            kwargs[name] = convert(key, entry)
        try:
            checks.append(CheckRequest(**kwargs))
        except InputDomainError as exc:
            raise ConfigError(str(exc), key=f"check.{index}") from exc
    return tuple(checks)


def _build_sweep(entries, experiment: ExperimentConfig) -> SweepSettings | None:
    param = entries.pop("sweep.parameter", None)
    values = entries.pop("sweep.values", None)
    if param is None and values is None:
        return None
    if param is None:
        raise ConfigError("missing required key", key="sweep.parameter")
    if values is None:
        raise ConfigError("missing required key", key="sweep.values")
    name = param.value
    if name not in SWEEP_PARAMETERS:
        raise _err(
            f"unknown sweep parameter '{name}'; expected one of {SWEEP_PARAMETERS}",
            "sweep.parameter",
            param,
        )
    nums = _to_numbers("sweep.values", values)
    if name in ("n", "p", "steps"):
        if any(v != int(v) or v < 1 for v in nums):
            raise _err(f"sweep over {name} needs integers >= 1", "sweep.values", values)
    elif any(v <= 0.0 for v in nums):
        raise _err("sweep over u needs values > 0", "sweep.values", values)
    if name == "n" and experiment.spec.family not in ("diag_basis", "goe_like"):
        raise _err(
            "sweep over n requires integrand.family diag_basis or goe_like",
            "sweep.parameter",
            param,
        )
    if name in _CHECK_PARAMS:
        takers = [kind.name for kind in CHECK_REGISTRY.values() if kind.takes(name)]
        if not any(c.kind in takers for c in experiment.checks):
            raise _err(
                f"sweep over {name} requires a {' or '.join(takers)} check",
                "sweep.parameter",
                param,
            )
    return SweepSettings(parameter=name, values=nums)


def _build_dump(entries, experiment: ExperimentConfig) -> DumpSettings | None:
    paths_entry = entries.pop("dump.paths", None)
    beta_entry = entries.pop("dump.beta", None)
    if paths_entry is None and beta_entry is None:
        return None
    indices = _to_ints("dump.paths", paths_entry) if paths_entry else (0,)
    for i in indices:
        if not 0 <= i < experiment.paths:
            raise _err(
                f"dump path index {i} outside 0..{experiment.paths - 1}",
                "dump.paths",
                paths_entry,
            )
    beta = _to_float("dump.beta", beta_entry) if beta_entry else None
    if beta is not None and not np.isfinite(beta):
        raise _err(f"dump.beta must be finite, got '{beta_entry.value}'", "dump.beta", beta_entry)
    return DumpSettings(paths=indices, beta=beta)


def parse_settings(
    text: str,
    overrides: dict[str, str] | None = None,
    environ: dict[str, str] | None = None,
) -> RunSettings:
    """Parse config text plus overrides into validated run settings."""
    entries = _parse_pairs(text)
    if environ:
        _apply_overrides(entries, env_overrides(environ), "environment MMLAB_")
    if overrides:
        _apply_overrides(entries, dict(overrides), "--set")

    spec = _build_spec(entries)
    horizon = _to_float("grid.horizon", entries.pop("grid.horizon")) if "grid.horizon" in entries else 1.0
    steps = _to_int("grid.steps", entries.pop("grid.steps")) if "grid.steps" in entries else 256
    required = {}
    for key in ("paths", "master_seed"):
        if key not in entries:
            raise ConfigError("missing required key", key=key)
        required[key] = _to_int(key, entries.pop(key))
    optional = {
        "block_size": ("block_size", _to_int),
        "confidence": ("confidence", _to_float),
        "slack_factor": ("slack_factor", _to_float),
        "bootstrap.resamples": ("bootstrap_resamples", _to_int),
        "test_hooks.rhs_multiplier": ("rhs_multiplier", _to_float),
    }
    extra = {}
    for key, (field_name, convert) in optional.items():
        if key in entries:
            extra[field_name] = convert(key, entries.pop(key))
    checks = _build_checks(entries)
    try:
        grid = TimeGrid(horizon, steps)
    except InputDomainError as exc:
        raise ConfigError(str(exc), key="grid") from exc
    try:
        experiment = ExperimentConfig(
            spec=spec,
            grid=grid,
            paths=required["paths"],
            master_seed=required["master_seed"],
            checks=checks,
            **extra,
        )
    except InputDomainError as exc:
        raise ConfigError(str(exc)) from exc
    sweep = _build_sweep(entries, experiment)
    dump = _build_dump(entries, experiment)
    for key, entry in entries.items():  # pragma: no cover - schema guards earlier
        raise _err(f"unknown key '{key}'", key, entry)
    return RunSettings(experiment=experiment, sweep=sweep, dump=dump)


def sweep_configs(settings: RunSettings) -> list[tuple[float, ExperimentConfig]]:
    """Expand a sweep into one experiment per parameter value.

    All expansions share the master seed, so curves across values use
    common random numbers.
    """
    if settings.sweep is None:
        raise InputDomainError("settings carry no sweep section")
    base = settings.experiment
    out = []
    for v in settings.sweep.values:
        param = settings.sweep.parameter
        if param == "n":
            n = int(v)
            if base.spec.family == "diag_basis":
                spec = diag_basis_spec(n)
            else:
                spec = goe_like_spec(n, base.spec.drivers, base.spec.seed or 0)
            cfg = dataclasses.replace(base, spec=spec)
        elif param == "steps":
            cfg = dataclasses.replace(base, grid=TimeGrid(base.grid.horizon, int(v)))
        else:
            value = int(v) if _CHECK_PARAMS[param].integer else float(v)
            checks = tuple(
                dataclasses.replace(c, **{param: value})
                if CHECK_REGISTRY[c.kind].takes(param)
                else c
                for c in base.checks
            )
            cfg = dataclasses.replace(base, checks=checks)
        out.append((float(v), cfg))
    return out
