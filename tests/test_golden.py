"""Output bytes of a small verify run and of a trajectory dump, pinned
against stored copies.

``golden/all_kinds.cfg`` puts every check kind on one 400-path batch (three
blocks) of a 1x1 rectangular payload (n = 2 after dilation, so every eigen solve in
the engine takes the closed form).  ``golden/report.csv`` and
``golden/report.json`` were written by ``mmlab verify`` on that config
before the checks moved into one registry; any change to a number, a
metadata key or its order shows up here as a byte difference.

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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_reports_match_golden_bytes(tmp_path, workers):
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        [
            "verify",
            "--config",
            str(GOLDEN / "all_kinds.cfg"),
            "--out",
            str(out),
            "--workers",
            workers,
        ],
    )
    assert result.exit_code == 0, result.output
    for name in ("report.csv", "report.json"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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
