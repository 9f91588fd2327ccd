"""Plain-text experiment configuration.

Format: one ``key = value`` pair per line, ``#`` starts a full-line
comment, keys use dotted sections.  Matrix values are row-major with
rows separated by ``;`` and entries by whitespace, e.g. ``1 0; 0 1``.
Unknown keys are errors, and every error names the key that caused it
(``ConfigError.key``).  Overrides (environment variables with the
``MMLAB_`` prefix, then ``--set`` pairs) replace file values before any
typed validation runs; in environment names ``__`` stands for a dot.

Documented schema (defaults in parentheses):

    integrand.family            a family in CONFIG_FAMILIES; its row there
                                declares the integrand keys it takes
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
    slack_factor (3.0)          verdict slack in combined half-widths,
                                finite
    bootstrap.resamples (1000)  bootstrap resample count
    check.<i>.kind              a kind in checks.CHECK_REGISTRY
    check.<i>.<param>           the parameters that kind takes, and no
                                others (t defaults to grid.horizon):
                                freedman, good_lambda    u, sigma2
                                bdg, schatten,
                                schatten_rect            p (integer), t
                                biane_speicher           t
                                supermartingale          beta (finite)
                                khintchine               none
                                schatten_rect needs the rect_constant
                                family and khintchine a constant-in-time
                                one; any check needs paths >= 100
    sweep.parameter             n | p | u | steps: a value sets
                                integrand.n, grid.steps, or the p or u
                                of every check that takes it, as --set
    sweep.values                whitespace-separated finite numbers
    dump.paths (0)              path indices to dump as trajectories
    dump.beta                   adds a supermartingale dump column
    test_hooks.rhs_multiplier (1.0)    rhs falsification hook, finite
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, InputDomainError
from .integrands import (
    IntegrandSpec,
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


@dataclass(frozen=True)
class Family:
    """An integrand family as a config names it.

    ``keys`` are the ``integrand.*`` values the family requires, in the
    order ``build`` takes them; ``optional`` those it may also take,
    passed after them when given.  ``matrix`` and ``slope`` stand for the
    indexed stacks ``integrand.matrix.<j>`` and ``integrand.slope.<j>``.
    A sweep may vary any of these keys that it names: it builds each
    value's spec from the config's entries, as it builds the config's own.
    """

    build: Callable[..., IntegrandSpec]
    keys: tuple[str, ...]
    optional: tuple[str, ...] = ()


# every family a config can name: adding one takes its factory in
# integrands.py and one row here, and its name in integrands.FAMILIES
# when its specs carry a new family name (validate_spec refuses others)
CONFIG_FAMILIES: dict[str, Family] = {
    "constant": Family(constant_spec, ("matrix",)),
    "time_poly": Family(time_poly_spec, ("matrix", "slope")),
    "path_feedback": Family(path_feedback_spec, ("matrix", "gamma")),
    "diag_basis": Family(diag_basis_spec, ("n",)),
    "goe_like": Family(goe_like_spec, ("n", "drivers"), ("seed",)),
    "rect_constant": Family(rect_constant_spec, ("matrix",)),
}
SWEEP_PARAMETERS = ("n", "p", "u", "steps")
# the keys a sweep value sets; p and u set theirs on every check that takes them
_SWEEP_KEYS = {"n": ("integrand.n",), "steps": ("grid.steps",)}

# the integrand values a family may take: indexed matrix stacks, and
# scalars by whether they are integers
_STACKS = ("matrix", "slope")
_INTEGRAND_SCALARS = {"gamma": False, "n": True, "drivers": True, "seed": True}

# top-level scalar keys: key -> (TimeGrid or ExperimentConfig field,
# integer?); an absent key takes the field's default
_SCALARS = {
    "grid.horizon": ("horizon", False),
    "grid.steps": ("steps", True),
    "paths": ("paths", True),
    "master_seed": ("master_seed", True),
    "block_size": ("block_size", True),
    "confidence": ("confidence", False),
    "slack_factor": ("slack_factor", False),
    "bootstrap.resamples": ("bootstrap_resamples", True),
    "test_hooks.rhs_multiplier": ("rhs_multiplier", False),
}
_FIELD_KEYS = {name: key for key, (name, _) in _SCALARS.items()}
_GRID_FIELDS = tuple(f.name for f in dataclasses.fields(TimeGrid))
_REQUIRED = {
    f.name for f in dataclasses.fields(ExperimentConfig) if f.default is dataclasses.MISSING
}

# every parameter some check kind takes, by name
_CHECK_PARAMS = {p.name: p for kind in CHECK_REGISTRY.values() for p in kind.params}

_INDEXED = r"[1-9][0-9]*"
_INTEGRAND_KEYS = "|".join(
    f"{stem}\\.{_INDEXED}" if stem in _STACKS else stem
    for stem in dict.fromkeys(s for f in CONFIG_FAMILIES.values() for s in f.keys + f.optional)
)
_KNOWN_KEYS = (
    re.compile(rf"integrand\.(family|{_INTEGRAND_KEYS})\Z"),
    re.compile(rf"({'|'.join(map(re.escape, _SCALARS))})\Z"),
    re.compile(rf"check\.{_INDEXED}\.(kind|{'|'.join(_CHECK_PARAMS)})\Z"),
    re.compile(r"sweep\.(parameter|values)\Z"),
    re.compile(r"dump\.(paths|beta)\Z"),
)


@dataclass(frozen=True)
class SweepSettings:
    """A sweep over ``parameter``: each value is set on ``keys`` over the
    config's ``entries``, as ``--set`` would set it (:func:`sweep_configs`)."""

    parameter: str
    values: tuple[float, ...]
    keys: tuple[str, ...]
    entries: dict[str, _Entry]


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


def _to_number(key: str, entry: _Entry, integer: bool = False) -> float | int:
    convert, expected = (int, "an integer") if integer else (float, "a number")
    try:
        return convert(entry.value)
    except ValueError:
        raise _err(f"expected {expected}, got '{entry.value}'", key, entry) from None


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


def _indexed_matrices(entries, prefix: str, label: str) -> np.ndarray | None:
    found = sorted((int(key[len(prefix):]), key) for key in entries if key.startswith(prefix))
    if not found:
        return None
    if [i for i, _ in found] != list(range(1, len(found) + 1)):
        raise ConfigError(f"{label} indices must be 1..{len(found)} without gaps", key=found[0][1])
    return np.stack([_to_matrix(key, entries.pop(key)) for _, key in found])


def _first_key(stem: str) -> str:
    return f"integrand.{stem}.1" if stem in _STACKS else f"integrand.{stem}"


def _build_spec(entries):
    fam_entry = entries.pop("integrand.family", None)
    if fam_entry is None:
        raise ConfigError("missing required key", key="integrand.family")
    name = fam_entry.value
    family = CONFIG_FAMILIES.get(name)
    if family is None:
        raise _err(
            f"unknown family '{name}'; expected one of {tuple(CONFIG_FAMILIES)}",
            "integrand.family",
            fam_entry,
        )
    given = {}
    for stack in _STACKS:
        matrices = _indexed_matrices(entries, f"integrand.{stack}.", stack)
        if matrices is not None:
            given[stack] = matrices
    for scalar, integer in _INTEGRAND_SCALARS.items():
        key = f"integrand.{scalar}"
        if key in entries:
            given[scalar] = _to_number(key, entries.pop(key), integer)
    for stem in given:
        if stem not in family.keys + family.optional:
            label = stem if stem in _STACKS else f"integrand.{stem}"
            raise ConfigError(f"{label} is not valid for family '{name}'", key=_first_key(stem))
    for stem in family.keys:
        if stem not in given:
            raise ConfigError("missing required key", key=_first_key(stem))
    try:
        return family.build(*(given[s] for s in family.keys + family.optional if s in given))
    except InputDomainError as exc:
        raise ConfigError(str(exc), key="integrand") from exc
    except (MemoryError, ValueError) as exc:  # numpy's refusal of a shape
        raise ConfigError(f"cannot build the integrand: {exc}", key="integrand") from exc


def _build_checks(entries) -> dict[str, CheckRequest]:
    """The configured checks in index order, by their ``check.<i>`` key."""
    groups: dict[int, dict[str, _Entry]] = {}
    for key in list(entries):
        m = re.match(rf"check\.({_INDEXED})\.(\w+)\Z", key)
        if m:
            groups.setdefault(int(m.group(1)), {})[m.group(2)] = entries.pop(key)
    checks = {}
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
            kwargs[name] = _to_number(key, entry, _CHECK_PARAMS[name].integer)
        try:
            checks[f"check.{index}"] = CheckRequest(**kwargs)
        except InputDomainError as exc:
            raise ConfigError(str(exc), key=f"check.{index}") from exc
    return checks


def _build_sweep(entries, base: dict[str, _Entry]) -> SweepSettings | None:
    """The sweep over the entries ``base`` of a config that has built."""
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
    if not all(map(math.isfinite, nums)):
        raise _err(f"sweep over {name} needs finite values", "sweep.values", values)
    keys = _SWEEP_KEYS.get(name) or tuple(
        key.replace(".kind", f".{name}")
        for key, entry in base.items()
        if re.match(rf"check\.{_INDEXED}\.kind\Z", key) and CHECK_REGISTRY[entry.value].takes(name)
    )
    if not keys:
        takers = [kind.name for kind in CHECK_REGISTRY.values() if kind.takes(name)]
        raise _err(
            f"sweep over {name} requires a {' or '.join(takers)} check", "sweep.parameter", param
        )
    return SweepSettings(name, nums, keys, base)


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
    beta = _to_number("dump.beta", beta_entry) if beta_entry else None
    if beta is not None and not np.isfinite(beta):
        raise _err(f"dump.beta must be finite, got '{beta_entry.value}'", "dump.beta", beta_entry)
    return DumpSettings(paths=indices, beta=beta)


def _build_experiment(entries) -> ExperimentConfig:
    """The experiment that ``entries`` describe; pops every key it reads."""
    spec = _build_spec(entries)
    values = {}
    for key, (name, integer) in _SCALARS.items():
        if key in entries:
            values[name] = _to_number(key, entries.pop(key), integer)
        elif name in _REQUIRED:
            raise ConfigError("missing required key", key=key)
    checks = _build_checks(entries)
    try:
        grid = TimeGrid(**{f: values.pop(f) for f in _GRID_FIELDS if f in values})
    except InputDomainError as exc:
        raise ConfigError(str(exc), key="grid") from exc
    try:
        return ExperimentConfig(spec=spec, grid=grid, checks=tuple(checks.values()), **values)
    except InputDomainError as exc:
        keys = {**_FIELD_KEYS, **{f"checks[{i}]": key for i, key in enumerate(checks)}}
        raise ConfigError(str(exc), key=keys.get(exc.field)) from exc


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

    base = dict(entries)
    experiment = _build_experiment(entries)
    sweep = _build_sweep(entries, base)
    dump = _build_dump(entries, experiment)
    for key, entry in entries.items():  # pragma: no cover - schema guards earlier
        raise _err(f"unknown key '{key}'", key, entry)
    return RunSettings(experiment=experiment, sweep=sweep, dump=dump)


def sweep_configs(settings: RunSettings) -> list[tuple[float, ExperimentConfig]]:
    """Expand a sweep into one experiment per parameter value.

    Each value is set on the sweep's keys as ``--set`` would set it,
    after the file, the environment, ``--set`` and ``--seed``, and the
    experiment is built as the config's own.  All expansions share the
    master seed, so curves across values use common random numbers.  A
    value that does not build is a ConfigError keyed ``sweep.values``.
    """
    sweep = settings.sweep
    if sweep is None:
        raise InputDomainError("settings carry no sweep section")
    out = []
    for v in sweep.values:
        text = str(int(v)) if v == int(v) else repr(v)
        entries = {**sweep.entries, **dict.fromkeys(sweep.keys, _Entry(text, None, None))}
        try:
            out.append((v, _build_experiment(entries)))
        except ConfigError as exc:
            raise ConfigError(
                f"sweep value {sweep.parameter} = {text} fails at {exc.key}: {exc.reason}",
                key="sweep.values",
            ) from exc
    return out
