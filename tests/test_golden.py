"""Output bytes of a small verify run and of a trajectory dump, pinned
against stored copies.

``golden/all_kinds.cfg`` puts every check kind on one 400-path batch (three
blocks) of a 1x1 rectangular payload (n = 2 after dilation, so every eigen solve in
the engine takes the closed form).  ``golden/report.csv`` and
``golden/report.json`` were written by ``mmlab verify`` on that config
before the checks moved into one registry; any change to a number, a
metadata key or its order shows up here as a byte difference.

``golden/feedback_kinds.cfg`` runs the ``path_feedback`` route (a 2x2
payload, two drivers, closed-form eigen solves) under the freedman,
good_lambda, bdg, schatten, biane_speicher and supermartingale checks;
``golden/feedback_kinds_report.{csv,json}`` pin its per-path sum-of-squares
solves, Kahan quadratures and per-path sigma2 masks.  They were written
by ``mmlab verify`` before the engine's collectors became objects.

Both 2x2 configs take the engine's one-pass route: each maximum's
``settle`` sees every path after every step.  They were written while
those maxima were still updated step by step, so they pin that the
one-pass ``settle`` route moves no byte.

``golden/goe_kinds.cfg`` (a 4x4 ``goe_like`` integrand) and
``golden/feedback3_kinds.cfg`` (a 3x3 ``path_feedback`` integrand) are the
n >= 3 cases, where x, and on path_feedback <X>, are solved by LAPACK
only on the rows whose statistics can still change.  Their reports were
written by ``mmlab verify`` before the engine began to skip solves, so
they pin that every skipped solve is one no output could feel.  Unlike
the 2x2 goldens their bytes rest on the LAPACK build's ``eigvalsh``.

``golden/diag3_kinds.cfg`` puts every check kind a ``diag_basis`` batch
takes on n = 3 (H_i = e_i e_i^T), where X stays diagonal: the commutative
case of the paper's dimension factor.  Its reports were written by
``mmlab verify`` before every route to a maximum went through ``settle``,
and any later route for diagonal states has these bytes to match.

``golden/sweep_goe_n.cfg`` sweeps a ``goe_like`` integrand over n = 2, 3, 4
under five check kinds.  ``golden/sweep_goe_n_sweep.{csv,json}`` were
written by ``mmlab sweep`` while the sweep still kept its own loop over
the checks, before each value became one verify run.

The five report goldens and ``golden/sweep_goe_n_sweep.{csv,json}`` were
rewritten once since, when every bootstrap mean of a check came to share
one resample of its paths.  Only two kinds of field moved: each
``supermartingale`` row's ``lhs_ci``, and the ``rhs_ci`` of ``bdg``,
``schatten`` and ``biane_speicher`` on ``path_feedback``, where the rhs
varies over paths.  Every ``lhs`` and ``lhs_ci`` of a paired check kept
its bytes.

Every report golden and ``golden/sweep_goe_n_sweep.{csv,json}`` were
rewritten again when a run came to resample its paths once, on the
stream of ``bootstrap_seed(config, 0)``, for every check that reads the
batch.  Only bootstrap half-widths moved: the ``lhs_ci`` of ``bdg``,
``schatten``, ``schatten_rect``, ``biane_speicher`` and
``supermartingale``, and on ``path_feedback`` the ``rhs_ci`` of the
paired kinds.  Every lhs and rhs point, every verdict and every Wilson
row kept its bytes.

``golden/timepoly3_kinds.cfg`` runs a 3x3 ``time_poly`` integrand, H_i(t) =
A_i + t * B_i with two drivers, under the freedman, good_lambda, bdg,
schatten, biane_speicher and supermartingale checks: the only golden in
which the Euler update adds the slope term.  Its path-free ||<X>_t||
first exceeds the freedman level 0.5 at grid index 16 and the good_lambda
level 1.0 at grid index 27.  Its reports were written by ``mmlab verify`` while the solve
pass still replayed the whole stepper, before the replay advanced x alone.

``golden/trajectory_{0,1,2}.csv`` were written by ``mmlab simulate`` on
``configs/simulate_dump.cfg`` (a 2x2 ``path_feedback`` integrand, 256
steps) when the dump moved onto the block engine's stepper; an edit to
the engine that moves any dumped digit shows up here.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from mmlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.mark.parametrize(
    "config, stem, workers",
    [
        # the all_kinds runs keep their ids from before the second config
        pytest.param("all_kinds.cfg", "report", "1", id="1"),
        pytest.param("all_kinds.cfg", "report", "2", id="2"),
        pytest.param("feedback_kinds.cfg", "feedback_kinds_report", "1", id="feedback_kinds-1"),
        pytest.param("feedback_kinds.cfg", "feedback_kinds_report", "2", id="feedback_kinds-2"),
        pytest.param("goe_kinds.cfg", "goe_kinds_report", "1", id="goe_kinds-1"),
        pytest.param("goe_kinds.cfg", "goe_kinds_report", "2", id="goe_kinds-2"),
        pytest.param("feedback3_kinds.cfg", "feedback3_kinds_report", "1", id="feedback3_kinds-1"),
        pytest.param("feedback3_kinds.cfg", "feedback3_kinds_report", "2", id="feedback3_kinds-2"),
        pytest.param("diag3_kinds.cfg", "diag3_kinds_report", "1", id="diag3_kinds-1"),
        pytest.param("diag3_kinds.cfg", "diag3_kinds_report", "2", id="diag3_kinds-2"),
        pytest.param("timepoly3_kinds.cfg", "timepoly3_kinds_report", "1", id="timepoly3_kinds-1"),
        pytest.param("timepoly3_kinds.cfg", "timepoly3_kinds_report", "2", id="timepoly3_kinds-2"),
    ],
)
def test_reports_match_golden_bytes(tmp_path, config, stem, workers):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        [
            "verify",
            "--config",
            str(GOLDEN / config),
            "--out",
            str(out),
            "--workers",
            workers,
        ],
    )
    assert result.exit_code == 0, result.output
    for ext in ("csv", "json"):
        got = (out / f"report.{ext}").read_bytes()
        assert got == (GOLDEN / f"{stem}.{ext}").read_bytes(), ext


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_matches_golden_bytes(tmp_path, workers):
    out = tmp_path / "out"
    args = ["sweep", "--config", str(GOLDEN / "sweep_goe_n.cfg"), "--out", str(out)]
    result = CliRunner().invoke(main, args + ["--workers", workers])
    assert result.exit_code == 0, result.output
    for ext in ("csv", "json"):
        got = (out / f"sweep.{ext}").read_bytes()
        assert got == (GOLDEN / f"sweep_goe_n_sweep.{ext}").read_bytes(), ext


def test_trajectory_dump_matches_golden_bytes(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["simulate", "--config", str(CONFIGS / "simulate_dump.cfg"), "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    for index in (0, 1, 2):
        name = f"trajectory_{index}.csv"
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name
