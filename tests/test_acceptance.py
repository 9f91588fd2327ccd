"""End-to-end acceptance run at preregistered scales.

Each test emits one summary line ("[ k] label: PASS/FAIL (details)");
run with `pytest -s tests/test_acceptance.py` to see every line.  The
heavier batches (1e5 paths at 256 steps) make this module take several
minutes on one core.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import ks_2samp

from mmlab.checks import (
    CheckRequest,
    Judge,
    evaluate_checks,
    freedman_check,
    khintchine_check,
    run_experiment_checks,
    run_lemma_suite,
)
from mmlab.cli import main as cli_main
from mmlab.integrands import (
    aggregates,
    constant_spec,
    diag_basis_spec,
    goe_like_spec,
    path_feedback_spec,
    time_poly_spec,
)
from mmlab.linalg import hermitian_dilation, spectral_norm
from mmlab.montecarlo import (
    ExperimentConfig,
    derive_path_seeds,
    run_batch,
)
from mmlab.simulate import (
    EulerScheme,
    TimeGrid,
    brownian_increments,
    exact_constant_spectral_norms,
)

from .oracles import lambda_max

GRID = TimeGrid(1.0, 256)


def emit(index: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{index:>2}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _structured_pair(n: int) -> np.ndarray:
    off = np.diag(np.ones(n - 1), 1)
    a1 = np.eye(n) + 0.45 * (off + off.T)
    a2 = np.diag(0.8 * (-1.0) ** np.arange(n))
    return np.stack([a1, a2])


def _family_spec(family: str, n: int):
    base = _structured_pair(n)
    if family == "constant":
        return constant_spec(base)
    if family == "time_poly":
        off = np.diag(np.ones(n - 1), 1)
        slopes = np.stack([0.5 * np.eye(n), 0.35 * (off + off.T)])
        return time_poly_spec(base, slopes)
    if family == "path_feedback":
        return path_feedback_spec(base, gamma=0.2)
    raise ValueError(family)


@pytest.fixture(scope="module")
def goe_tail_results():
    """1e5-path batches for n in {2,4,8}: joint-tail and doubling checks."""
    out = {}
    for n in (2, 4, 8):
        spec = goe_like_spec(n, 3, seed=100 + n)
        qvn = spectral_norm(aggregates(spec).sum_sq_base) * GRID.horizon
        sig = math.sqrt(qvn)
        checks = [
            CheckRequest("freedman", u=f * sig, sigma2=s * qvn)
            for s in (0.6, 1.1)
            for f in (0.8, 1.2, 1.6)
        ]
        checks += [
            CheckRequest("good_lambda", u=f * math.sqrt(s * qvn), sigma2=s * qvn)
            for s in (0.6, 1.1)
            for f in (0.5, 1.0)
        ]
        cfg = ExperimentConfig(
            spec=spec,
            grid=GRID,
            paths=100_000,
            master_seed=300 + n,
            checks=tuple(checks),
        )
        batch = run_batch(cfg)
        out[n] = evaluate_checks(cfg, batch)
    return out


@pytest.fixture(scope="module")
def moment_ratio_results():
    """1e4-path batches over n x family, three moment orders each."""
    out = []
    for family in ("constant", "time_poly", "path_feedback"):
        for n in (1, 2, 4, 16):
            cfg = ExperimentConfig(
                spec=_family_spec(family, n),
                grid=GRID,
                paths=10_000,
                master_seed=500 + n,
                checks=tuple(CheckRequest("bdg", p=p) for p in (1, 2, 4)),
            )
            _, results = run_experiment_checks(cfg)
            out.extend((family, n, r) for r in results)
    return out


@pytest.fixture(scope="module")
def supermartingale_results():
    specs = {
        "constant": _family_spec("constant", 2),
        "time_poly": _family_spec("time_poly", 2),
        "path_feedback": _family_spec("path_feedback", 2),
        "diag_basis": diag_basis_spec(2),
        "goe_like": goe_like_spec(2, 3, seed=11),
    }
    out = []
    for family, spec in specs.items():
        cfg = ExperimentConfig(
            spec=spec,
            grid=GRID,
            paths=20_000,
            master_seed=700 + len(family),
            checks=tuple(
                CheckRequest("supermartingale", beta=b) for b in (0.5, 1.0, 2.0)
            ),
        )
        _, results = run_experiment_checks(cfg)
        out.extend((family, r) for r in results)
    return out


def test_01_deterministic_lemma_sweep():
    t0 = time.perf_counter()
    results = run_lemma_suite(count=10_000, seed=20260814)
    elapsed = time.perf_counter() - t0
    violations = sum(not r.holds for r in results)
    ok = violations == 0 and elapsed < 30.0
    emit(1, "deterministic lemma sweep", ok,
         f"{violations}/{len(results)} violations, {elapsed:.1f}s")
    assert ok, f"violations={violations}, elapsed={elapsed:.1f}s"


def test_02_scalar_tail_frequency_oracle():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        spec=constant_spec([[1.0]]),
        grid=GRID,
        paths=100_000,
        master_seed=20260814,
        checks=(CheckRequest("freedman", u=2.0, sigma2=1.0),),
    )
    batch = run_batch(cfg)
    res = freedman_check(batch, 2.0, 1.0)
    elapsed = time.perf_counter() - t0
    target = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0))))
    in_interval = abs(res.lhs - target) <= res.lhs_ci
    bound_ok = res.lhs <= math.exp(-2.0) - 3.0 * res.lhs_ci
    ok = in_interval and bound_ok and elapsed < 60.0
    emit(2, "scalar tail frequency oracle", ok,
         f"freq={res.lhs:.5f}+-{res.lhs_ci:.5f}, continuous value {target:.5f} "
         f"{'inside' if in_interval else 'outside'} interval; bound clause "
         f"{'ok' if bound_ok else 'violated'}; {elapsed:.1f}s")
    assert ok, (
        f"grid-sup frequency {res.lhs:.5f} (99% interval +-{res.lhs_ci:.5f}) vs "
        f"continuous-time value {target:.5f}: the 256-step running max "
        f"undershoots the continuous supremum by ~0.0038 (first-crossing "
        f"bias ~0.5826*sqrt(dt)), several interval widths at 1e5 paths"
    )


def test_03_matrix_tail_bound_lattice(goe_tail_results):
    results = [r for rs in goe_tail_results.values() for r in rs if r.name == "freedman"]
    held = sum(r.holds for r in results)
    ok = len(results) == 18 and held == len(results)
    worst = max(r.lhs - r.rhs for r in results)
    emit(3, "matrix tail bound lattice", ok,
         f"{held}/{len(results)} hold over n in (2,4,8), worst lhs-rhs={worst:.4f}")
    assert ok


def test_04_tail_doubling_refinement(goe_tail_results):
    results = [
        r for rs in goe_tail_results.values() for r in rs if r.name == "good_lambda"
    ]
    held = sum(r.holds for r in results)
    ok = len(results) == 12 and held == len(results)
    emit(4, "tail doubling refinement", ok,
         f"{held}/{len(results)} hold at u in (0.5, 1.0)*sigma")
    assert ok


def test_05_sup_moment_ratio_sweep(moment_ratio_results):
    ratios = [r.ratio for _, _, r in moment_ratio_results]
    ok = len(ratios) == 36 and all(0.01 <= rho <= 1.0 for rho in ratios)
    emit(5, "sup moment ratio sweep", ok,
         f"{len(ratios)} configs, ratio range [{min(ratios):.3f}, {max(ratios):.3f}]")
    assert ok, [
        (fam, n, r.metadata["p"], r.ratio)
        for fam, n, r in moment_ratio_results
        if not 0.01 <= r.ratio <= 1.0
    ]


def test_06_terminal_moment_equality_case():
    cfg = ExperimentConfig(
        spec=constant_spec(np.eye(2)),
        grid=GRID,
        paths=100_000,
        master_seed=606,
        checks=(CheckRequest("schatten", p=1), CheckRequest("schatten", p=2)),
    )
    _, (r1, r2) = run_experiment_checks(cfg)
    equality_ok = 0.95 <= r1.ratio <= 1.05
    target = math.sqrt(2.0)
    p2_lhs_ok = abs(r2.lhs - target) <= r2.lhs_ci
    p2_rhs_ok = math.isclose(r2.rhs, 3.0 * target, rel_tol=1e-12)
    ok = equality_ok and p2_lhs_ok and p2_rhs_ok
    emit(6, "terminal moment equality case", ok,
         f"p=1 ratio={r1.ratio:.4f}; p=2 lhs={r2.lhs:.4f}+-{r2.lhs_ci:.4f} "
         f"vs {target:.4f}, rhs={r2.rhs:.4f} vs {3 * target:.4f}")
    assert ok, (r1.ratio, r2.lhs, r2.lhs_ci, r2.rhs)


def test_07_trace_exponential_decay(supermartingale_results):
    held = sum(r.holds for _, r in supermartingale_results)
    starts_exact = all(
        r.metadata["initial_value"] == 2.0 and len(r.metadata["checkpoints"]) == 8
        for _, r in supermartingale_results
    )
    ok = len(supermartingale_results) == 15 and held == 15 and starts_exact
    emit(7, "trace exponential decay", ok,
         f"{held}/{len(supermartingale_results)} nonincreasing over 5 families x "
         f"3 betas, checkpoint 0 mean exact")
    assert ok, [
        (fam, r.metadata["beta"], r.lhs, r.rhs)
        for fam, r in supermartingale_results
        if not r.holds
    ]


def test_08_dilation_identities():
    rng = np.random.default_rng(808)
    worst_block = worst_norm = 0.0
    for _ in range(1000):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 10))
        a = rng.standard_normal((n1, n2))
        d = hermitian_dilation(a)
        assert np.array_equal(d[:n1, n1:], a) and np.array_equal(d[n1:, :n1], a.T)
        assert not d[:n1, :n1].any() and not d[n1:, n1:].any()
        sq = d @ d
        block = np.zeros_like(sq)
        block[:n1, :n1] = a @ a.T
        block[n1:, n1:] = a.T @ a
        worst_block = max(worst_block, float(np.abs(sq - block).max()))
        top = float(np.linalg.svd(a, compute_uv=False)[0])
        worst_norm = max(
            worst_norm,
            abs(spectral_norm(d) - top),
            abs(lambda_max(d) - top),
        )
    ok = worst_block <= 1e-10 and worst_norm <= 1e-10
    emit(8, "dilation identities", ok,
         f"1000 shapes <= 6x9, block residual {worst_block:.2e}, "
         f"norm residual {worst_norm:.2e}")
    assert ok


def test_09_gaussian_series_norm_growth():
    r4 = khintchine_check(
        diag_basis_spec(4), judge=Judge(samples=100_000, sample_seed=94, seed=95)
    )
    r256 = khintchine_check(
        diag_basis_spec(256), judge=Judge(samples=100_000, sample_seed=96, seed=97)
    )
    growth = r256.metadata["ratio"] / r4.metadata["ratio"]
    r2 = khintchine_check(
        diag_basis_spec(2), judge=Judge(samples=100_000, sample_seed=98, seed=99)
    )
    target = 2.0 / math.sqrt(math.pi)
    closed_ok = abs(r2.lhs - target) <= r2.lhs_ci
    ok = growth >= 1.5 and closed_ok
    emit(9, "gaussian series norm growth", ok,
         f"ratio growth n=256 vs n=4: {growth:.2f}x; n=2 mean "
         f"{r2.lhs:.5f}+-{r2.lhs_ci:.5f} vs {target:.5f}")
    assert ok, (growth, r2.lhs, r2.lhs_ci)


def _terminal_states(spec, grid, increments):
    """X_T of each path the engine's stepper runs on the given increments."""
    for step in EulerScheme(spec, grid).steps(increments):
        pass
    assert not step.excluded.any()
    return step.x


def test_10_discretization_fidelity():
    spec = constant_spec(_structured_pair(2))
    cfg = ExperimentConfig(
        spec=spec, grid=GRID, paths=10_000, master_seed=1010,
        checks=(CheckRequest("bdg", p=1),),
    )
    batch = run_batch(cfg)
    exact = exact_constant_spectral_norms(spec.matrices, 2020, 10_000)
    ks = ks_2samp(batch.data["terminal_spectral"], exact)

    tp = _family_spec("time_poly", 2)
    ref_grid = TimeGrid(1.0, 4096)
    ks_levels = [2**j for j in range(4, 11)]
    errs = np.zeros(len(ks_levels))
    paths = 64
    inc = brownian_increments(ref_grid, tp.drivers, derive_path_seeds(777, 0, paths))
    ref = _terminal_states(tp, ref_grid, inc)
    for i, k in enumerate(ks_levels):
        # the same Brownian paths, summed onto the coarser grid
        inc_k = inc.reshape(paths, k, ref_grid.steps // k, tp.drivers).sum(axis=2)
        xk = _terminal_states(tp, TimeGrid(1.0, k), inc_k)
        errs[i] = sum(spectral_norm(xk[j] - ref[j]) for j in range(paths))
    errs /= paths
    slope = float(np.polyfit(np.log2(1.0 / np.asarray(ks_levels)), np.log2(errs), 1)[0])
    ok = ks.pvalue >= 0.001 and slope >= 0.5
    emit(10, "discretization fidelity", ok,
         f"terminal-law KS p={ks.pvalue:.3f}; refinement slope {slope:.2f} "
         f"over 16..1024 steps")
    assert ok, (ks.pvalue, slope)


def test_11_byte_identical_parallel_reruns(tmp_path):
    cfg_text = (
        "integrand.family = goe_like\n"
        "integrand.n = 2\n"
        "integrand.drivers = 2\n"
        "integrand.seed = 5\n"
        "grid.steps = 64\n"
        "paths = 2048\n"
        "master_seed = 31\n"
        "block_size = 128\n"
        "check.1.kind = freedman\n"
        "check.1.u = 1.5\n"
        "check.1.sigma2 = 3.0\n"
        "check.2.kind = bdg\n"
        "check.2.p = 2\n"
        "check.3.kind = supermartingale\n"
        "check.3.beta = 1.0\n"
    )
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(cfg_text)
    runner = CliRunner()
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        result = runner.invoke(
            cli_main,
            ["verify", "--config", str(cfg_file), "--out", str(out),
             "--workers", str(workers)],
        )
        assert result.exit_code == 0, result.output
        outs[workers] = (
            (out / "report.csv").read_bytes(),
            (out / "report.json").read_bytes(),
        )
    same_csv = outs[1][0] == outs[8][0]
    same_json = outs[1][1] == outs[8][1]
    ok = same_csv and same_json
    seed = json.loads(outs[1][1])["master_seed"]
    emit(11, "byte-identical parallel reruns", ok,
         f"csv {'match' if same_csv else 'differ'}, json "
         f"{'match' if same_json else 'differ'} at workers 1 vs 8, seed {seed}")
    assert ok
