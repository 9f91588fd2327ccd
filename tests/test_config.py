"""Config text parsing: schema, overrides, and error reporting."""

from pathlib import Path

import numpy as np
import pytest

from mmlab.config import (
    CONFIG_FAMILIES,
    DumpSettings,
    SweepSettings,
    env_overrides,
    parse_settings,
    sweep_configs,
)
from mmlab.errors import ConfigError

MINIMAL = """\
# minimal experiment
integrand.family = constant
integrand.matrix.1 = 1 0; 0 1

paths = 1000
master_seed = 42
"""

CHECKED = """\
integrand.family = constant
integrand.matrix.1 = 1
paths = 500
master_seed = 9
check.1.kind = freedman
check.1.u = 2.0
check.1.sigma2 = 1.0
check.2.kind = bdg
check.2.p = 2
"""


class TestBasicParsing:
    def test_minimal_example(self):
        settings = parse_settings(MINIMAL)
        exp = settings.experiment
        assert exp.spec.family == "constant"
        assert exp.spec.n == 2 and exp.spec.drivers == 1
        assert np.array_equal(exp.spec.matrices[0], np.eye(2))
        assert exp.grid.horizon == 1.0 and exp.grid.steps == 256
        assert exp.paths == 1000 and exp.master_seed == 42
        assert exp.checks == ()
        assert settings.sweep is None and settings.dump is None

    def test_checks_parsed_in_index_order(self):
        exp = parse_settings(CHECKED).experiment
        assert [c.kind for c in exp.checks] == ["freedman", "bdg"]
        assert exp.checks[0].u == 2.0 and exp.checks[0].sigma2 == 1.0
        assert exp.checks[1].p == 2

    def test_comments_and_blank_lines_skipped(self):
        text = "# leading comment\n\n" + CHECKED + "\n# trailing\n"
        assert parse_settings(text).experiment == parse_settings(CHECKED).experiment

    def test_optional_scalars(self):
        text = MINIMAL + (
            "grid.horizon = 2.0\ngrid.steps = 64\nblock_size = 7\n"
            "confidence = 0.95\nslack_factor = 2.0\nbootstrap.resamples = 250\n"
            "test_hooks.rhs_multiplier = 0.5\n"
        )
        exp = parse_settings(text).experiment
        assert exp.grid.horizon == 2.0 and exp.grid.steps == 64
        assert exp.block_size == 7
        assert exp.confidence == 0.95 and exp.slack_factor == 2.0
        assert exp.bootstrap_resamples == 250
        assert exp.rhs_multiplier == 0.5

    def test_shipped_examples_parse(self):
        configs = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))
        assert len(configs) >= 5
        for path in configs:
            settings = parse_settings(path.read_text())
            assert settings.experiment.paths >= 100


class TestErrors:
    def test_unknown_key_names_key_and_line(self):
        text = MINIMAL + "bogus_key = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_settings(text)
        assert err.value.key == "bogus_key"
        assert err.value.line == 7
        assert "unknown key" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_settings(MINIMAL + "paths = 2000\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_settings("paths 1000\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_settings(MINIMAL.replace("paths = 1000", "paths = many"))
        assert err.value.key == "paths"
        assert "expected an integer" in str(err.value)

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_settings(MINIMAL.replace("paths = 1000", "paths ="))

    def test_paths_too_small_for_probabilistic_checks(self):
        with pytest.raises(ConfigError, match="paths must be >= 100 for probabilistic checks"):
            parse_settings(CHECKED.replace("paths = 500", "paths = 0"))

    def test_asymmetric_matrix_surfaces_validation(self):
        bad = MINIMAL.replace("1 0; 0 1", "1 2; 0 1")
        with pytest.raises(ConfigError) as err:
            parse_settings(bad)
        assert err.value.key == "integrand"
        assert "not symmetric" in str(err.value)

    def test_ragged_matrix(self):
        with pytest.raises(ConfigError, match="unequal lengths"):
            parse_settings(MINIMAL.replace("1 0; 0 1", "1 0; 0"))

    def test_non_numeric_matrix_entry(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_settings(MINIMAL.replace("1 0; 0 1", "1 x; 0 1"))

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_settings("integrand.family = constant\nintegrand.matrix.1 = 1\npaths = 200\n")
        assert err.value.key == "master_seed"
        with pytest.raises(ConfigError) as err:
            parse_settings("paths = 200\nmaster_seed = 1\n")
        assert err.value.key == "integrand.family"

    def test_matrix_index_gap(self):
        text = MINIMAL + "integrand.matrix.3 = 1 0; 0 1\n"
        with pytest.raises(ConfigError, match="without gaps"):
            parse_settings(text)

    def test_check_missing_kind(self):
        with pytest.raises(ConfigError) as err:
            parse_settings(MINIMAL + "check.2.u = 1.0\n")
        assert err.value.key == "check.2.kind"

    def test_check_parameter_violation_names_group(self):
        with pytest.raises(ConfigError) as err:
            parse_settings(MINIMAL + "check.1.kind = freedman\n")
        assert err.value.key == "check.1"
        assert "requires u and sigma2" in str(err.value)

    def test_check_parameter_the_kind_does_not_take(self):
        with pytest.raises(ConfigError, match="not valid for check kind 'bdg'") as err:
            parse_settings(MINIMAL + "check.1.kind = bdg\ncheck.1.p = 1\ncheck.1.u = 3\n")
        assert err.value.key == "check.1.u"
        with pytest.raises(ConfigError, match="not valid for check kind 'freedman'") as err:
            parse_settings(CHECKED + "check.1.t = 1.0\n")
        assert err.value.key == "check.1.t"
        # t is taken by the moment checks and biane_speicher
        text = CHECKED + "check.2.t = 1.0\ncheck.3.kind = biane_speicher\ncheck.3.t = 1.0\n"
        assert [c.t for c in parse_settings(text).experiment.checks] == [None, 1.0, 1.0]


class TestFamilies:
    def test_goe_like(self):
        text = (
            "integrand.family = goe_like\nintegrand.n = 4\n"
            "integrand.drivers = 3\nintegrand.seed = 7\n"
            "paths = 200\nmaster_seed = 1\n"
        )
        spec = parse_settings(text).experiment.spec
        assert spec.family == "goe_like"
        assert spec.matrices.shape == (3, 4, 4)
        assert spec.seed == 7

    def test_goe_like_negative_seed(self):
        text = (
            "integrand.family = goe_like\nintegrand.n = 4\n"
            "integrand.drivers = 3\nintegrand.seed = -1\n"
            "paths = 200\nmaster_seed = 1\n"
        )
        with pytest.raises(ConfigError, match="goe_like requires seed >= 0, got -1") as err:
            parse_settings(text)
        assert err.value.key == "integrand"

    def test_diag_basis(self):
        text = "integrand.family = diag_basis\nintegrand.n = 3\npaths = 200\nmaster_seed = 1\n"
        spec = parse_settings(text).experiment.spec
        assert spec.family == "diag_basis" and spec.drivers == 3

    def test_time_poly_requires_slopes(self):
        base = (
            "integrand.family = time_poly\nintegrand.matrix.1 = 1 0; 0 1\n"
            "paths = 200\nmaster_seed = 1\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_settings(base)
        assert err.value.key == "integrand.slope.1"
        spec = parse_settings(base + "integrand.slope.1 = 0 1; 1 0\n").experiment.spec
        assert spec.family == "time_poly"
        assert np.array_equal(spec.slopes[0], np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_path_feedback_requires_gamma(self):
        base = (
            "integrand.family = path_feedback\nintegrand.matrix.1 = 1\n"
            "paths = 200\nmaster_seed = 1\n"
        )
        with pytest.raises(ConfigError) as err:
            parse_settings(base)
        assert err.value.key == "integrand.gamma"
        assert parse_settings(base + "integrand.gamma = 0.2\n").experiment.spec.gamma == 0.2

    def test_rect_constant(self):
        text = (
            "integrand.family = rect_constant\nintegrand.matrix.1 = 1 0\n"
            "paths = 200\nmaster_seed = 1\n"
        )
        spec = parse_settings(text).experiment.spec
        assert spec.rect_shape == (1, 2) and spec.n == 3

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="unknown family"):
            parse_settings(MINIMAL.replace("constant", "wishart"))

    def test_cross_family_keys_rejected(self):
        with pytest.raises(ConfigError, match="not valid for family 'constant'"):
            parse_settings(MINIMAL + "integrand.gamma = 0.5\n")
        with pytest.raises(ConfigError, match="not valid for family 'constant'"):
            parse_settings(MINIMAL + "integrand.slope.1 = 1 0; 0 1\n")
        text = "integrand.family = diag_basis\nintegrand.n = 2\nintegrand.matrix.1 = 1\npaths = 200\nmaster_seed = 1\n"
        with pytest.raises(ConfigError, match="matrix is not valid"):
            parse_settings(text)


# one line per integrand key stem, valid for every family that takes it
INTEGRAND_LINES = {
    "matrix": "integrand.matrix.1 = 1 0; 0 1\n",
    "slope": "integrand.slope.1 = 0 1; 1 0\n",
    "gamma": "integrand.gamma = 0.2\n",
    "n": "integrand.n = 3\n",
    "drivers": "integrand.drivers = 2\n",
    "seed": "integrand.seed = 5\n",
}
SWEEP_N = "check.1.kind = khintchine\nsweep.parameter = n\nsweep.values = 2 5\n"


@pytest.mark.parametrize("name", list(CONFIG_FAMILIES))
def test_family_registry_drives_parsing(name):
    family = CONFIG_FAMILIES[name]
    takes = family.keys + family.optional

    def text(stems, extra=""):
        lines = "".join(INTEGRAND_LINES[s] for s in stems)
        return f"integrand.family = {name}\n{lines}paths = 200\nmaster_seed = 1\n{extra}"

    def key(stem):
        return f"integrand.{stem}.1" if stem in ("matrix", "slope") else f"integrand.{stem}"

    # rect_constant builds a constant spec
    assert parse_settings(text(takes)).experiment.spec.family in (name, "constant")
    for stem in INTEGRAND_LINES.keys() - set(takes):
        with pytest.raises(ConfigError) as err:
            parse_settings(text(takes + (stem,)))
        label = stem if stem in ("matrix", "slope") else key(stem)
        assert str(err.value) == f"{label} is not valid for family '{name}' (key '{key(stem)}')"
        assert err.value.key == key(stem)
    for stem in family.keys:
        with pytest.raises(ConfigError) as err:
            parse_settings(text(tuple(s for s in takes if s != stem)))
        assert str(err.value) == f"missing required key (key '{key(stem)}')"
        assert err.value.key == key(stem)
    if family.resize is None:
        with pytest.raises(ConfigError, match="requires integrand.family diag_basis or goe_like"):
            parse_settings(text(takes, SWEEP_N))
        return
    # each swept spec is the one the config gives at that n: goe_like keeps
    # its drivers and seed
    for n, (value, cfg) in zip((2, 5), sweep_configs(parse_settings(text(takes, SWEEP_N)))):
        direct = parse_settings(text(takes), overrides={"integrand.n": str(n)}).experiment.spec
        assert value == n and (cfg.spec.family, cfg.spec.n) == (name, n)
        assert (cfg.spec.drivers, cfg.spec.seed) == (direct.drivers, direct.seed)
        assert np.array_equal(cfg.spec.matrices, direct.matrices)
        if name == "goe_like":
            assert (cfg.spec.drivers, cfg.spec.seed) == (2, 5)


class TestNonFiniteValues:
    def test_check_beta(self):
        text = MINIMAL + "check.1.kind = supermartingale\n"
        for beta in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match="requires finite beta") as err:
                parse_settings(text + f"check.1.beta = {beta}\n")
            assert err.value.key == "check.1"

    @pytest.mark.parametrize("parameter", ["n", "p", "u", "steps"])
    def test_sweep_values(self, parameter):
        text = "integrand.family = diag_basis\nintegrand.n = 2\n" + CHECKED.split("\n", 2)[2]
        for value in ("nan", "inf"):
            sweep = f"sweep.parameter = {parameter}\nsweep.values = 2 {value}\n"
            with pytest.raises(ConfigError, match=f"sweep over {parameter} needs finite") as err:
                parse_settings(text + sweep)
            assert err.value.key == "sweep.values"

    @pytest.mark.parametrize("key", ["slack_factor", "test_hooks.rhs_multiplier"])
    def test_scalars(self, key):
        field = key.rpartition(".")[2]
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"{field} must be finite"):
                parse_settings(CHECKED, overrides={key: value})


class TestOverrides:
    def test_env_extraction(self):
        env = {"MMLAB_PATHS": "2000", "MMLAB_GRID__STEPS": "64", "HOME": "/root"}
        assert env_overrides(env) == {"paths": "2000", "grid.steps": "64"}

    def test_precedence_file_env_set(self):
        exp = parse_settings(
            MINIMAL,
            overrides={"paths": "3000"},
            environ={"MMLAB_PATHS": "2000"},
        ).experiment
        assert exp.paths == 3000
        exp = parse_settings(MINIMAL, environ={"MMLAB_PATHS": "2000"}).experiment
        assert exp.paths == 2000

    def test_env_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_settings(MINIMAL, environ={"MMLAB_NOPE": "1"})
        assert err.value.key == "nope"
        assert "environment MMLAB_" in str(err.value)

    def test_set_unknown_key(self):
        with pytest.raises(ConfigError, match="--set"):
            parse_settings(MINIMAL, overrides={"bogus": "1"})

    def test_override_can_add_new_key(self):
        exp = parse_settings(MINIMAL, overrides={"grid.steps": "32"}).experiment
        assert exp.grid.steps == 32


class TestSweepAndDump:
    def test_sweep_parsed(self):
        text = (
            "integrand.family = diag_basis\nintegrand.n = 4\npaths = 200\nmaster_seed = 1\n"
            "check.1.kind = khintchine\nsweep.parameter = n\nsweep.values = 4 16\n"
        )
        settings = parse_settings(text)
        assert settings.sweep == SweepSettings(parameter="n", values=(4.0, 16.0))
        expanded = sweep_configs(settings)
        assert [v for v, _ in expanded] == [4.0, 16.0]
        assert [cfg.spec.n for _, cfg in expanded] == [4, 16]

    def test_sweep_steps_and_u(self):
        text = CHECKED + "sweep.parameter = steps\nsweep.values = 16 64\n"
        expanded = sweep_configs(parse_settings(text))
        assert [cfg.grid.steps for _, cfg in expanded] == [16, 64]
        text = CHECKED + "sweep.parameter = u\nsweep.values = 1.0 2.0\n"
        expanded = sweep_configs(parse_settings(text))
        assert [cfg.checks[0].u for _, cfg in expanded] == [1.0, 2.0]

    def test_sweep_p_replaces_moment_orders(self):
        text = CHECKED + "sweep.parameter = p\nsweep.values = 1 4\n"
        expanded = sweep_configs(parse_settings(text))
        assert [cfg.checks[1].p for _, cfg in expanded] == [1, 4]
        # the freedman check is untouched
        assert all(cfg.checks[0].u == 2.0 for _, cfg in expanded)

    def test_sweep_validation(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            parse_settings(CHECKED + "sweep.parameter = gamma\nsweep.values = 1\n")
        with pytest.raises(ConfigError, match="diag_basis or goe_like"):
            parse_settings(CHECKED + "sweep.parameter = n\nsweep.values = 2 4\n")
        with pytest.raises(ConfigError, match="integers >= 1"):
            parse_settings(CHECKED + "sweep.parameter = p\nsweep.values = 1.5\n")
        with pytest.raises(ConfigError) as err:
            parse_settings(CHECKED + "sweep.values = 1 2\n")
        assert err.value.key == "sweep.parameter"
        no_moment = MINIMAL + "sweep.parameter = p\nsweep.values = 1 2\n"
        with pytest.raises(ConfigError, match="requires a bdg or schatten"):
            parse_settings(no_moment)

    def test_dump_parsed(self):
        settings = parse_settings(MINIMAL + "dump.paths = 0 2\ndump.beta = 0.5\n")
        assert settings.dump == DumpSettings(paths=(0, 2), beta=0.5)

    def test_dump_defaults_first_path(self):
        settings = parse_settings(MINIMAL + "dump.beta = 1.0\n")
        assert settings.dump == DumpSettings(paths=(0,), beta=1.0)

    def test_dump_index_out_of_range(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_settings(MINIMAL + "dump.paths = 1000\n")
