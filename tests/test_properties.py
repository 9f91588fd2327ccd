"""Property tests (hypothesis) of invariants the engine and checks rely on."""

import contextlib
import dataclasses
import functools
import itertools
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mmlab.ceilings as ceilings_module
import mmlab.simulate as simulate_module
from mmlab.checks import CHECK_REGISTRY, CheckRequest, Judge, evaluate_checks, recompute_holds
from mmlab.errors import InputDomainError
from mmlab.integrands import (
    constant_spec,
    diag_basis_spec,
    goe_like_spec,
    path_feedback_spec,
    rect_constant_spec,
    time_poly_spec,
)
from mmlab.linalg import stacked_eigenvalues, symmetrize
from mmlab.montecarlo import (
    BOOTSTRAP_BLOCK_ELEMENTS,
    ExperimentConfig,
    _percentile,
    bootstrap_ci,
    bootstrap_seed,
    derive_path_seed,
    derive_path_seeds,
    run_batch,
)
from mmlab.simulate import (
    CollectorPlan,
    EulerScheme,
    TimeGrid,
    brownian_increments,
    seed_words,
    simulate_block,
    simulate_path,
)

from .oracles import always_solve_block, loop_bootstrap_ci, reference_increments
from .test_simulate import family_zoo

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
        edge = bound + slack * first.rhs_ci
        # a zero rhs with a zero half-width stays zero under any multiplier
        critical = (first.lhs - slack * first.lhs_ci) / edge if edge else 1.0
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


UINT64 = st.integers(0, 2**64 - 1)
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@settings(max_examples=300, deadline=None)
@given(seeds=st.lists(st.one_of(UINT64, st.sampled_from(EDGE_SEEDS)), max_size=20))
@example(seeds=EDGE_SEEDS)
def test_seed_words_match_seed_sequence(seeds):
    got = seed_words(np.array(seeds, dtype=np.uint64))
    want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.reshape(want, (len(seeds), 4)))


@settings(max_examples=60, deadline=None)
@given(
    drivers=st.integers(1, 4),
    steps=st.integers(1, 300),
    seeds=st.lists(st.one_of(UINT64, st.sampled_from(EDGE_SEEDS)), max_size=10),
    cuts=st.lists(st.integers(0, 10), max_size=4),
)
def test_brownian_increments_match_default_rng(drivers, steps, seeds, cuts):
    # every path's stream is its own default_rng's, bit for bit, however
    # the seed array is split into chunks
    grid = TimeGrid(1.0, steps)
    seeds = np.array(seeds, dtype=np.uint64)
    bounds = sorted({0, len(seeds), *(c % (len(seeds) + 1) for c in cuts)})
    got = np.concatenate(
        [brownian_increments(grid, drivers, seeds[a:b]) for a, b in zip(bounds, bounds[1:])]
        or [brownian_increments(grid, drivers, seeds)]
    )
    want = [reference_increments(grid, drivers, int(s)) for s in seeds]
    assert np.array_equal(got, np.reshape(want, (len(seeds), steps, drivers)))


@settings(max_examples=100, deadline=None)
@given(
    bad=st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)),
    good=st.lists(UINT64, max_size=5),
    at=st.integers(0, 5),
)
def test_seed_outside_uint64_is_rejected(bad, good, at):
    seeds = good[:at] + [bad] + good[at:]
    for form in (seeds, np.array(seeds, dtype=object)):
        with pytest.raises(InputDomainError):
            brownian_increments(GRID, 1, form)
        with pytest.raises(InputDomainError):
            simulate_block(rect_constant_spec(np.array([[[0.8]]])), GRID, form)
    if -(2**63) <= bad < 0:
        with pytest.raises(InputDomainError):
            brownian_increments(GRID, 1, np.array([bad], dtype=np.int64))


@given(drivers=st.integers(-3, 0), seeds=st.lists(UINT64, max_size=3))
def test_drivers_below_one_rejected(drivers, seeds):
    with pytest.raises(InputDomainError, match="drivers"):
        brownian_increments(GRID, drivers, seeds)


# every collector simulate_block has
FULL_PLAN = CollectorPlan(
    sigma2_levels=(0.1, 1.0),
    supermartingale_betas=(0.5, 1.0),
    schatten_orders=(1.0, 3.0),
    quad_schatten_orders=(1.0, 2.0),
    sum_norm_quad=True,
)


@settings(max_examples=40, deadline=None)
@given(
    family=st.integers(0, 4),
    n=st.integers(1, 4),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
    cuts=st.lists(st.integers(0, 12), max_size=4),
    chunk=st.integers(1, 8),
)
def test_block_partition_is_bit_identical(family, n, seeds, cuts, chunk):
    # any split of the seed array into blocks, and of each block into
    # vectorized chunks, gives the same numbers bit for bit
    spec = family_zoo(n)[family]
    seeds = np.array(seeds, dtype=np.uint64)
    whole = simulate_block(spec, GRID, seeds, FULL_PLAN)
    bounds = sorted({0, len(seeds), *(c % (len(seeds) + 1) for c in cuts)})
    saved = simulate_module._CHUNK
    simulate_module._CHUNK = chunk
    try:
        parts = [simulate_block(spec, GRID, seeds[a:b], FULL_PLAN) for a, b in zip(bounds, bounds[1:])]
    finally:
        simulate_module._CHUNK = saved
    assert not whole["excluded"].any()
    for key, values in whole.items():
        assert np.array_equal(values, np.concatenate([p[key] for p in parts])), key


@settings(max_examples=40, deadline=None)
@given(
    family=st.integers(0, 4),
    n=st.integers(1, 4),
    payload_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
)
def test_qv_symmetric_psd_nondecreasing(family, n, payload_seed, seed):
    qv = simulate_path(family_zoo(n, payload_seed)[family], GRID, seed).qv
    assert np.array_equal(qv, np.swapaxes(qv, -1, -2))
    tol = 1e-12 * max(1.0, float(np.abs(qv).max()))
    assert np.linalg.eigvalsh(qv)[:, 0].min() >= -tol
    # Loewner order: every increment qv[k+1] - qv[k] is PSD
    assert np.linalg.eigvalsh(np.diff(qv, axis=0))[:, 0].min() >= -tol


def payload_spec(spec, payload):
    """``spec`` as drawn ("drawn"); with every matrix zero, so that every
    state, ceiling and lower bound is 0 ("zero"); or as a path_feedback
    integrand that leaves float64 range within 32 steps on some paths and
    not on others ("overflow")."""
    if payload == "zero":
        slopes = None if spec.slopes is None else np.zeros_like(spec.slopes)
        return dataclasses.replace(spec, matrices=np.zeros_like(spec.matrices), slopes=slopes)
    if payload == "overflow":
        return path_feedback_spec(spec.matrices * 1e134, gamma=40.0)
    return spec


@contextlib.contextmanager
def engine_spies(passes, advances):
    """Fail on a non-finite matrix handed to LAPACK; append to ``passes``
    one list per run of the stepper, of each step's state and exclusion
    mask as the collectors first see them; and append to ``advances``
    each state that :meth:`EulerScheme.advance` returns, with whether the
    stepper asked for it."""
    solve = simulate_module.stacked_eigenvalues
    steps, advance = EulerScheme.steps, EulerScheme.advance

    def finite_solve(a):
        assert np.isfinite(a).all(), "a non-finite matrix reached LAPACK"
        return solve(a)

    def recording_steps(self, dB):
        seen = []
        passes.append(seen)
        for step in steps(self, dB):
            seen.append((step.x.copy(), step.excluded.copy()))
            yield step

    def recording_advance(self, x, dB_k, k):
        x_next = advance(self, x, dB_k, k)
        advances.append((x_next.copy(), sys._getframe(1).f_code is steps.__code__))
        return x_next

    simulate_module.stacked_eigenvalues = finite_solve
    EulerScheme.steps, EulerScheme.advance = recording_steps, recording_advance
    try:
        yield
    finally:
        simulate_module.stacked_eigenvalues = solve
        EulerScheme.steps, EulerScheme.advance = steps, advance


def replays(advances):
    """The states of each replay, in order: the runs of ``advances`` (see
    :func:`engine_spies`) that no stepper asked for."""
    runs = itertools.groupby(advances, key=lambda a: a[1])
    return [[x for x, _ in run] for by_steps, run in runs if not by_steps]


def qv_norms(spec, grid, seeds):
    """Each ||<X>_k|| on a path the stepper keeps, before the last step,
    sorted.  A level equal to one of them lies inside that path's qv
    bracket at that step."""
    dB = np.stack([reference_increments(grid, spec.drivers, s) for s in seeds])
    norms = [
        np.abs(stacked_eigenvalues(np.broadcast_to(step.qv, step.x.shape)[~step.excluded]))
        .max(axis=-1)
        for step in EulerScheme(spec, grid).steps(dB)
    ]
    return np.sort(np.concatenate(norms[:-1]))


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["time_poly", "path_feedback", "goe_like"]),
    n=st.integers(3, 6),
    payload_seed=st.integers(0, 2**32 - 1),
    payload=st.sampled_from(["drawn", "zero", "overflow"]),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12),
    # a drawn share v picks the level at quantile v of the block's own
    # ||<X>_k|| (see qv_norms), which on path_feedback lies inside a qv
    # bracket; 1e-9 is crossed by every path at the first step, 1e9 by none
    levels=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-9, 1e9])), min_size=1, max_size=3
    ),
    betas=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=2),
    cuts=st.lists(st.integers(0, 12), max_size=3),
    chunk=st.integers(1, 8),
)
@example(
    family="goe_like", n=3, payload_seed=1, payload="zero", seeds=[1, 2, 3],
    levels=[1.0], betas=[0.5], cuts=[], chunk=2,
)
@example(
    family="path_feedback", n=3, payload_seed=5, payload="overflow",
    seeds=[7919 * j for j in range(12)], levels=[1.0], betas=[0.0], cuts=[], chunk=12,
)
@example(
    family="time_poly", n=4, payload_seed=3, payload="drawn", seeds=list(range(8)),
    levels=[1e-9, 1e9], betas=[1.0], cuts=[3], chunk=8,
)
@example(
    family="path_feedback", n=3, payload_seed=0, payload="drawn", seeds=list(range(12)),
    levels=[0.25, 0.5, 0.75], betas=[0.5], cuts=[5], chunk=4,
)
def test_certified_block_matches_always_solve(
    family, n, payload_seed, payload, seeds, levels, betas, cuts, chunk
):
    # skipping the solves that the ceilings and lower bounds certify leaves
    # every statistic of every kept path bit-identical, whatever the split
    # into blocks and vectorized chunks.  LAPACK never sees a non-finite
    # matrix.  On path_feedback the replay of x gives the stepper pass's
    # states bit for bit on every path the stepper kept; the time-only
    # families replay nothing, since their stepper pass is the replay.
    spec = payload_spec(next(s for s in family_zoo(n, payload_seed) if s.family == family), payload)
    grid = TimeGrid(1.0, 32)
    norms = qv_norms(spec, grid, seeds)
    if len(norms):
        levels = [v if v in (1e-9, 1e9) else norms[int(v * (len(norms) - 1))] for v in levels]
    plan = CollectorPlan(
        sigma2_levels=tuple(levels),
        supermartingale_betas=tuple(betas),
        schatten_orders=(2.0,),
        quad_schatten_orders=(1.0,),
        sum_norm_quad=True,
    )
    seeds = np.array(seeds, dtype=np.uint64)
    passes, advances = [], []
    bounds = sorted({0, len(seeds), *(c % (len(seeds) + 1) for c in cuts)})
    saved = simulate_module._CHUNK
    simulate_module._CHUNK = chunk
    try:
        with engine_spies(passes, advances):
            oracle = always_solve_block(spec, grid, seeds, plan)
            del passes[:], advances[:]
            parts = [simulate_block(spec, grid, seeds[a:b], plan) for a, b in zip(bounds, bounds[1:])]
    finally:
        simulate_module._CHUNK = saved
    replayed = replays(advances)
    assert len(replayed) == (len(passes) if spec.family == "path_feedback" else 0)
    for bound_pass, replay in zip(passes, replayed):
        assert len(bound_pass) == grid.steps and len(replay) == grid.steps - 1
        kept = ~bound_pass[-1][1]
        for (x, _), x_again in zip(bound_pass, replay):
            assert np.array_equal(x[kept], x_again[kept])
    got = {key: np.concatenate([p[key] for p in parts]) for key in oracle}
    kept = ~oracle["excluded"]
    assert np.array_equal(got["excluded"], oracle["excluded"])
    for key, values in oracle.items():
        assert np.array_equal(got[key][kept], values[kept]), key


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
def test_stepper_passes_per_chunk(monkeypatch, n):
    # each chunk takes one pass of the stepper, the chunk's only X updates
    # on every family but path_feedback at n >= 3.  Where x has a closed
    # form every maximum's settle sees every path after every step.  For
    # n >= 3 settle sees every path at the last step only; on path_feedback
    # the replay of x alone then takes one advance per step but the last.
    # For n >= 3 the bound pass of every family, path_feedback too, takes
    # one Coefficients.ceilings call per batch of 16 steps: two on 20
    grid = TimeGrid(1.0, 20)
    plan = CollectorPlan(sigma2_levels=(0.5, 2.0))
    chunks, maxima = 3, (simulate_module._Norms, simulate_module._BridgeTail)
    monkeypatch.setattr(simulate_module, "_CHUNK", 4)
    seen = []

    def spy(cls, settle):
        def recording(self, k, idx, eigs):
            seen.append((cls, k, idx, len(eigs)))
            settle(self, k, idx, eigs)

        return recording

    for cls in maxima:
        monkeypatch.setattr(cls, "settle", spy(cls, cls.settle))
    bounds, ceilings = [], ceilings_module.Coefficients.ceilings

    def counted(self, *args):
        bounds.append(args[2])
        return ceilings(self, *args)

    monkeypatch.setattr(ceilings_module.Coefficients, "ceilings", counted)
    for spec in family_zoo(n):
        passes, advances, seen[:], bounds[:] = [], [], [], []
        with engine_spies(passes, advances):
            simulate_block(spec, grid, np.arange(10, dtype=np.uint64), plan)
        one_pass = simulate_module.has_closed_form(n)
        assert bounds == ([] if one_pass else [16, 20] * chunks), spec.family
        assert len(passes) == chunks, spec.family
        replay_steps = [grid.steps - 1] * chunks
        if one_pass or spec.family != "path_feedback":
            replay_steps = []
        assert [len(r) for r in replays(advances)] == replay_steps
        assert sum(by_steps for _, by_steps in advances) == chunks * grid.steps
        for cls in maxima:
            calls = [c for c in seen if c[0] is cls]
            assert [k for _, k, _, _ in calls] == list(range(grid.steps)) * chunks
            for _, k, idx, rows in calls:
                every = isinstance(idx, slice)
                assert every == (one_pass or k == grid.steps - 1), (spec.family, k)
                if every:
                    # chunks of 4, 4 and 2 paths
                    assert idx == slice(None) and rows in (4, 2)


@pytest.mark.parametrize("payload", ["drawn", "overflow"])
def test_replay_redoes_no_bound_pass_work(monkeypatch, payload):
    # on an n = 3 path_feedback block (the feedback3_kinds payload) the
    # stepper runs once per chunk and sum_i H_i^2 once per step of it: the
    # replay advances x alone.  Exclusion is the bound pass's: on a payload
    # that leaves float64 range on most paths, every matrix the replay
    # hands LAPACK is the state of a path the bound pass kept
    a = np.array(
        [
            [[0.8, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.4]],
            [[0.3, 0.0, 0.1], [0.0, -0.2, 0.0], [0.1, 0.0, -0.3]],
        ]
    )
    spec = payload_spec(path_feedback_spec(a, gamma=0.3), payload)
    grid, chunks = TimeGrid(1.0, 32), 3
    plan = CollectorPlan(sigma2_levels=(0.5,), sum_norm_quad=True)
    monkeypatch.setattr(simulate_module, "_CHUNK", 4)
    sum_squares, solve = simulate_module.feedback_sum_squares, simulate_module.stacked_eigenvalues
    passes, advances, calls, replay_solves = [], [], [0], []

    def counted(*args):
        calls[0] += 1
        return sum_squares(*args)

    def recording(a):
        if advances and not advances[-1][1]:
            # a replay solve: states the replay has advanced to so far, in
            # the chunk whose bound pass ran last
            replay_solves.append((len(passes) - 1, np.stack(replays(advances)[-1]), a.copy()))
        return solve(a)

    monkeypatch.setattr(simulate_module, "feedback_sum_squares", counted)
    monkeypatch.setattr(simulate_module, "stacked_eigenvalues", recording)
    with engine_spies(passes, advances):
        simulate_block(spec, grid, np.arange(10, dtype=np.uint64), plan)
    assert len(passes) == chunks
    assert calls[0] == chunks * grid.steps
    dropped = [p[-1][1] for p in passes]
    assert np.concatenate(dropped).any() == (payload == "overflow")
    assert replay_solves
    for chunk, xs, matrices in replay_solves:
        for m in matrices:
            rows = np.flatnonzero((xs == m).all(axis=(2, 3)).any(axis=0))
            assert len(rows) and not dropped[chunk][rows].any()


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["near_scalar", "diagonal", "rank_one", "dense", "dominant"]),
    n=st.integers(3, 8),
    exponent=st.integers(-200, 200),
    noise=st.sampled_from([1e-12, 1e-9, 1e-8, 1e-7]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="diagonal", n=3, exponent=-170, noise=1e-12, seed=0)
def test_ceilings_bound_eigvalsh(kind, n, exponent, noise, seed):
    # the Wolkowicz-Styan ceilings bound what eigvalsh returns, where the
    # bound is tight (a rank-one stack, a diagonal with a repeated entry),
    # where x - m I is tiny against m I, and at magnitudes whose squares
    # underflow or overflow float64.  The sharper ceilings lie between
    # them and eigvalsh, also on dense symmetrized Gaussians and on stacks
    # with one dominant eigenvalue, where the eighth-power bound is close
    rng = np.random.default_rng(seed)
    count = 64
    if kind == "near_scalar":
        c = rng.standard_normal(count)[:, None, None]
        x = c * np.eye(n) + noise * np.abs(c) * symmetrize(rng.standard_normal((count, n, n)))
    elif kind == "diagonal":
        d = rng.standard_normal((count, n))
        d[::2, 1:] = d[::2, :1]
        d[1::4, 1:] = 0.0
        x = d[:, :, None] * np.eye(n)
    elif kind == "rank_one":
        v = rng.standard_normal((count, n))
        x = np.sign(rng.standard_normal(count))[:, None, None] * v[:, :, None] * v[:, None, :]
    elif kind == "dense":
        x = symmetrize(rng.standard_normal((count, n, n)))
    else:
        v = rng.standard_normal((count, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        top = 10.0 * np.sign(rng.standard_normal(count))[:, None, None]
        x = top * v[:, :, None] * v[:, None, :] + symmetrize(rng.standard_normal((count, n, n)))
    x = x * 10.0**exponent
    assert np.isfinite(x).all()
    eigs = stacked_eigenvalues(x)
    with np.errstate(over="ignore", invalid="ignore"):
        norm, top = ceilings_module.ceilings(x)
        sharp_norm, sharp_top = ceilings_module.sharper_ceilings(x)
    assert (top >= eigs[:, -1]).all()
    assert (norm >= np.abs(eigs).max(axis=-1)).all()
    assert (sharp_top >= eigs[:, -1]).all()
    assert (sharp_norm >= np.abs(eigs).max(axis=-1)).all()
    assert (sharp_top <= top).all() and (sharp_norm <= norm).all()


def coefficient_spec(family, n, scale, cancel, gamma, rng):
    """A spec of ``family`` whose payloads (and slopes) are scaled by
    ``scale``, path_feedback with feedback ``gamma``; with ``cancel`` its
    two drivers carry a matrix and nearly its negative, -(1 + 2^-30) times
    it.  diag_basis keeps its projectors."""
    if family == "diag_basis":
        return diag_basis_spec(n)
    spec = {
        "constant": lambda: constant_spec(symmetrize(rng.standard_normal((2, n, n)))),
        "goe_like": lambda: goe_like_spec(n, 2, seed=int(rng.integers(2**32))),
        "time_poly": lambda: time_poly_spec(
            symmetrize(rng.standard_normal((2, n, n))), symmetrize(rng.standard_normal((2, n, n)))
        ),
        "path_feedback": lambda: path_feedback_spec(
            symmetrize(rng.standard_normal((2, n, n))), gamma
        ),
    }[family]()

    def scaled(a):
        if a is None:
            return None
        if cancel:
            a = np.stack([a[0], -(1.0 + 2.0**-30) * a[0]])
        return a * scale

    return dataclasses.replace(spec, matrices=scaled(spec.matrices), slopes=scaled(spec.slopes))


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["constant", "diag_basis", "goe_like", "time_poly", "path_feedback"]),
    n=st.sampled_from([3, 5, 8]),
    exponent=st.integers(-150, 150),
    gamma=st.one_of(st.floats(-30.0, 30.0), st.sampled_from([-30.0, 30.0])),
    cancel=st.booleans(),
    returns=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(family="constant", n=3, exponent=0, gamma=0.0, cancel=False, returns=True, seed=1)
@example(family="goe_like", n=5, exponent=-150, gamma=0.0, cancel=True, returns=False, seed=2)
@example(family="path_feedback", n=3, exponent=0, gamma=30.0, cancel=False, returns=True, seed=3)
@example(family="path_feedback", n=5, exponent=150, gamma=-30.0, cancel=True, returns=True, seed=4)
def test_coefficient_ceilings_and_floors(family, n, exponent, gamma, cancel, returns, seed):
    # the engine bounds every Euler state from its coefficients alone, and
    # takes its lower bounds from the kept states rebuilt from their
    # coefficients.  At every step bound (a) of Coefficients ((a') on
    # path_feedback) holds: the Euler state lies within the batch's drift
    # of the state rebuilt from its coefficients.  The ceilings are at
    # least what eigvalsh gives for the Euler state, and at every kept step
    # the lowered floors at most that.  Payloads span 1e-150 to 1e150.
    # With ``cancel`` the drivers carry a matrix and nearly its negative on
    # equal increments, so c^T G c cancels to rounding.  With ``returns``
    # the last step brings the drivers' running sums back to 0 exactly,
    # where the Euler state keeps its rounding; on path_feedback step 16
    # has 1 + gamma sum_i dB^i = 0 to rounding instead, so the state before
    # it survives as rounding alone, which the later steps multiply.  The
    # Euler states are x advanced without the stepper's drops, since the
    # bounds hold for every path
    rng = np.random.default_rng(seed)
    spec = coefficient_spec(family, n, 10.0**exponent, cancel, gamma, rng)
    grid, paths = TimeGrid(1.0, 24), 6
    dB = rng.standard_normal((paths, grid.steps, spec.drivers)) * np.sqrt(grid.dt)
    if cancel:
        dB[:, :, 1] = dB[:, :, 0]
    if returns and family != "path_feedback":
        dB[:, -1] = -np.cumsum(dB[:, :-1], axis=1)[:, -1]
    elif returns and abs(gamma) >= 1.0:
        dB[:, 16] = -0.5 / gamma
    scheme = EulerScheme(spec, grid)
    xs, x = [], np.zeros((paths, n, n))
    for k in range(grid.steps):
        x = scheme.advance(x, dB[:, k], k)
        xs.append(x)
    xs = np.stack(xs)
    # the level is path 0's own ||<X>|| halfway
    qv = next(step.qv for step in scheme.steps(dB) if step.k == grid.steps // 2 - 1)
    level = float(np.abs(np.linalg.eigvalsh(qv if qv.ndim == 2 else qv[0])).max())
    finite = np.isfinite(xs).all(axis=(2, 3))
    exact = np.full((grid.steps, paths, n), np.nan)
    exact[finite] = stacked_eigenvalues(xs[finite])
    exact_top, exact_norm = exact[..., -1], np.abs(exact).max(axis=-1)
    plan = CollectorPlan(sigma2_levels=(level,))
    bounded, kept = [], []
    ceilings = ceilings_module.Coefficients.ceilings

    def recording_ceilings(self, c, size, k, growth=None):
        # c holds the states after the steps up to k - 1
        norm, top = ceilings(self, c, size, k, growth)
        rows = np.arange(k - len(c), k)
        # in the units of the scaled basis, whose squares stay in range
        gap = (xs[rows] - self.rebuild(c)) / self.scale
        distance = np.sqrt(np.einsum("kpij,kpij->kp", gap, gap))
        bounded.append((rows, norm, top, distance, self.drift(size, k, growth) / self.scale))
        return norm, top

    def recording_lower(cls):
        lower = cls.lower

        def recorded(self):
            kept.extend(self.bests)
            lower(self)

        return recorded

    saved = (
        ceilings_module.Coefficients.ceilings,
        simulate_module.brownian_increments,
        simulate_module._Norms.lower,
        simulate_module._BridgeTail.lower,
    )
    ceilings_module.Coefficients.ceilings = recording_ceilings
    simulate_module.brownian_increments = lambda grid, drivers, seeds: dB.copy()
    simulate_module._Norms.lower = recording_lower(simulate_module._Norms)
    simulate_module._BridgeTail.lower = recording_lower(simulate_module._BridgeTail)
    try:
        out = simulate_block(spec, grid, np.arange(paths, dtype=np.uint64), plan)
    finally:
        (
            ceilings_module.Coefficients.ceilings,
            simulate_module.brownian_increments,
            simulate_module._Norms.lower,
            simulate_module._BridgeTail.lower,
        ) = saved
    assert family == "path_feedback" or not out["excluded"].any()
    assert sum(len(rows) for rows, *_ in bounded) == grid.steps
    for rows, norm, top, distance, drift in bounded:
        assert not ((distance > drift) & finite[rows]).any()
        assert not (norm < exact_norm[rows]).any()
        assert not (top < exact_top[rows]).any()
    assert kept
    everywhere = np.arange(paths)
    for best in kept:
        for index, eigs, slack in zip(best.index, best.eigs, best.slack):
            inner = index > 0
            at = (index[inner] - 1, everywhere[inner])
            assert not (eigs[inner, -1] - slack[inner] > exact_top[at]).any()
            assert not (np.abs(eigs[inner]).max(axis=-1) - slack[inner] > exact_norm[at]).any()


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(100, 3000),
    constant=st.lists(st.booleans(), min_size=1, max_size=4),
    resamples=st.integers(100, 160),
    seed=st.integers(0, 2**63),
)
@example(m=BOOTSTRAP_BLOCK_ELEMENTS // 150, constant=[False, True, False], resamples=151, seed=3)
def test_joint_bootstrap_matches_loop(m, constant, resamples, seed):
    # k = len(constant) samples of one length on one index stream, any of
    # them constant: each interval is the per-resample loop's, bit for
    # bit, and sample 0's is the one-sample call's
    rng = np.random.default_rng(seed)
    samples = tuple(
        np.full(m, float(j)) if flat else rng.lognormal(size=m) for j, flat in enumerate(constant)
    )
    scales = tuple(float(j + 1) for j in range(len(samples)))
    cis = bootstrap_ci(
        samples,
        lambda means: tuple(c * s for c, s in zip(scales, means)),
        resamples,
        0.99,
        seed,
        label=tuple(f"sample {j}" for j in range(len(samples))),
    )
    loop = loop_bootstrap_ci(
        samples,
        tuple(lambda a, c=c: c * float(np.mean(a)) for c in scales),
        resamples,
        0.99,
        seed,
    )
    assert [(ci.point, ci.lo, ci.hi) for ci in cis] == list(loop)
    for ci, flat in zip(cis, constant):
        assert (ci.lo == ci.hi) == flat
    assert cis[0] == bootstrap_ci(samples[0], lambda s: scales[0] * s, resamples, 0.99, seed)


# every kind on a constant (dilated 1x2) payload, where each rhs sample is
# constant over paths, and the batch kinds on a path_feedback payload,
# where the rhs varies; bdg appears twice, so a kind may repeat
RUN_CHECKS = {
    "rect": (
        rect_constant_spec(np.array([[[0.8, -0.3]]])),
        (
            CheckRequest("freedman", u=1.0, sigma2=1.0),
            CheckRequest("bdg", p=2),
            CheckRequest("schatten", p=1),
            CheckRequest("khintchine"),
            CheckRequest("schatten_rect", p=1),
            CheckRequest("good_lambda", u=0.5, sigma2=1.0),
            CheckRequest("biane_speicher"),
            CheckRequest("supermartingale", beta=0.5),
            CheckRequest("bdg", p=1),
        ),
    ),
    "feedback": (
        path_feedback_spec([np.array([[0.8, 0.2], [0.2, 0.5]])], 0.3),
        (
            CheckRequest("bdg", p=1),
            CheckRequest("freedman", u=1.0, sigma2=1.0),
            CheckRequest("schatten", p=2),
            CheckRequest("supermartingale", beta=1.0),
            CheckRequest("biane_speicher"),
            CheckRequest("bdg", p=2),
        ),
    ),
}


@functools.cache
def run_checks(name):
    """The full config of ``RUN_CHECKS[name]``, its batch and its results."""
    spec, checks = RUN_CHECKS[name]
    config = ExperimentConfig(
        spec=spec, grid=GRID, paths=200, master_seed=13, checks=checks, bootstrap_resamples=150
    )
    batch = run_batch(config)
    return config, batch, evaluate_checks(config, batch)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(RUN_CHECKS)), data=st.data())
def test_check_intervals_do_not_depend_on_the_other_checks(name, data):
    # a bootstrapped check's numbers depend on the run's seed and its own
    # samples alone: in any subset and order of the config's checks they
    # equal, bit for bit, its numbers in the full config and those of a
    # standalone bootstrap of its own request on the run's stream
    config, batch, full = run_checks(name)
    order = data.draw(
        st.lists(st.sampled_from(range(len(config.checks))), min_size=1, unique=True)
    )
    subset = dataclasses.replace(config, checks=tuple(config.checks[i] for i in order))
    results = evaluate_checks(subset, batch)
    judge = Judge(
        confidence=config.confidence, resamples=config.bootstrap_resamples, samples=config.paths
    )
    for i, result in zip(order, results):
        kind = CHECK_REGISTRY[config.checks[i].kind]
        if result.name in ("freedman", "good_lambda", "khintchine"):
            continue
        params = [getattr(config.checks[i], p.name) for p in kind.params]
        evaluation = kind.evaluate(batch, *params, judge)
        request = next(evaluation)
        intervals = bootstrap_ci(
            request.samples,
            request.statistic,
            config.bootstrap_resamples,
            config.confidence,
            bootstrap_seed(config, 0),
            label=request.labels,
        )
        with pytest.raises(StopIteration) as done:
            evaluation.send(intervals)
        # every field, lhs, rhs, lhs_ci and rhs_ci among them, bit for bit
        assert result == full[i] == done.value.value


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=2, max_size=60
    ),
    q=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.005, 0.995, 0.025, 0.975, 0.5])),
)
def test_percentile_matches_np_quantile(values, q):
    ordered = np.sort(np.array(values))
    expected = float(np.quantile(ordered, q))
    got = _percentile(ordered, q)
    assert got == expected or (np.isnan(got) and np.isnan(expected))
