"""Property tests (hypothesis) of invariants the engine and checks rely on."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmlab.checks import CHECK_REGISTRY, CheckRequest, evaluate_checks, recompute_holds
from mmlab.integrands import rect_constant_spec
from mmlab.montecarlo import ExperimentConfig, derive_path_seed, derive_path_seeds, run_batch
from mmlab.simulate import TimeGrid

GRID = TimeGrid(1.0, 16)
SIGMA2_LEVELS = (0.5, 1.0)
ORDERS = (1, 2)
BETAS = (0.5, 1.0)

# values a drawn request may take, per parameter name; the batch below
# collects every sigma2 level, order and beta listed here
PARAM_VALUES = {
    "u": st.floats(0.01, 3.0),
    "sigma2": st.sampled_from(SIGMA2_LEVELS),
    "p": st.sampled_from(ORDERS),
    "beta": st.sampled_from(BETAS),
    "t": st.sampled_from([None, GRID.horizon]),
}


def small_config(checks, **kw):
    return ExperimentConfig(
        spec=rect_constant_spec(np.array([[[0.8]]])),
        grid=GRID,
        paths=200,
        master_seed=5,
        checks=tuple(checks),
        bootstrap_resamples=100,
        **kw,
    )


@pytest.fixture(scope="module")
def batch():
    requests = (
        [CheckRequest("freedman", u=1.0, sigma2=s) for s in SIGMA2_LEVELS]
        + [CheckRequest("schatten", p=p) for p in ORDERS]
        + [CheckRequest("supermartingale", beta=b) for b in BETAS]
        + [CheckRequest("biane_speicher")]
    )
    return run_batch(small_config(requests))


def evaluate(batch, request, slack, multiplier):
    config = small_config([request], slack_factor=slack, rhs_multiplier=multiplier)
    (result,) = evaluate_checks(config, batch)
    return result


@pytest.mark.parametrize("kind", list(CHECK_REGISTRY))
def test_recompute_holds_agrees_with_holds(kind, batch):
    params = st.fixed_dictionaries(
        {p.name: PARAM_VALUES[p.name] for p in CHECK_REGISTRY[kind].params}
    )

    @settings(max_examples=25, deadline=None)
    @given(params=params, slack=st.floats(0.0, 4.0), scale=st.floats(0.9, 1.1))
    def check(params, slack, scale):
        request = CheckRequest(kind, **params)
        # the rhs, its half-width and any bound_rhs scale with the rhs
        # multiplier, so this one puts the verdict on the edge at scale 1
        first = evaluate(batch, request, slack, 1.0)
        bound = first.metadata.get("bound_rhs", first.rhs)
        critical = (first.lhs - slack * first.lhs_ci) / (bound + slack * first.rhs_ci)
        result = evaluate(batch, request, slack, max(critical, 0.0) * scale)
        assert result.name == kind
        assert recompute_holds(result) == result.holds

    check()


@settings(max_examples=300, deadline=None)
@given(
    master=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**60),
    count=st.integers(0, 40),
)
def test_derive_path_seeds_matches_scalar(master, start, count):
    got = derive_path_seeds(master, start, start + count)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_path_seed(master, i) for i in range(start, start + count)]
