"""``tools/step_timing.py`` times one plain polar step next to its product;
only its output format is checked here, never a timing."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_a_header_and_one_row_per_shape():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "step_timing.py"), "8,2", "5,3",
         "--repeats", "3"], capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["n", "k", "step_us", "product_us", "fixed_us"]
    assert len(rows) == 2
    for (n, k), row in zip(((8, 2), (5, 3)), rows):
        assert re.fullmatch(rf"\s*{n}\s+{k}\s+\d+\.\d\s+\d+\.\d\s+-?\d+\.\d",
                            row)
