"""``tools/ritz_timing.py`` times one warm Ritz solve next to a dense solve
and a field apply; only its output format is checked here, never a
timing."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_a_header_and_one_row_per_shape():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ritz_timing.py"), "40,3",
         "30,2", "--repeats", "3"],
        capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["n", "k", "ritz_us", "dense_us", "apply_us",
                              "svds", "qrs", "accepted"]
    assert len(rows) == 2
    for (n, k), row in zip(((40, 3), (30, 2)), rows):
        assert re.fullmatch(
            rf"\s*{n}\s+{k}(\s+\d+\.\d){{3}}\s+\d+\s+\d+\s+(yes|no)", row)
