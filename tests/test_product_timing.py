"""``tools/product_timing.py`` times A @ X against the package's row-panel
kernel; only its output format is checked here, never a timing."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_a_header_and_one_row_per_shape():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "product_timing.py"), "8,2",
         "--repeats", "3"], capture_output=True, text=True, check=True).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["n", "k", "A@X_us", "kernel_us", "ratio"]
    assert len(rows) == 1
    assert re.fullmatch(r"\s*8\s+2\s+\d+\.\d\s+\d+\.\d\s+\d+\.\d\d", rows[0])
