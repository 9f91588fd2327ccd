"""Report bytes of one small verify run, pinned against stored copies.

``golden/all_kinds.cfg`` puts every check kind on one 400-path batch (three
blocks) of a 1x1 rectangular payload (n = 2 after dilation, so every eigen solve in
the engine takes the closed form).  ``golden/report.csv`` and
``golden/report.json`` were written by ``mmlab verify`` on that config
before the checks moved into one registry; any change to a number, a
metadata key or its order shows up here as a byte difference.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from mmlab.cli import main

GOLDEN = Path(__file__).parent / "golden"


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
