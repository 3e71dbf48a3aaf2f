"""``tools/setup_timing.py`` times the import and one build per family;
only its output format and its problems are checked here, never a
timing."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "setup_timing.py"


def run_python(code):
    # In a child process: importing the tool pins BLAS threads in os.environ.
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT / "tools",
                          capture_output=True, text=True, check=True).stdout


def test_prints_the_import_time_a_header_and_one_row_per_size_and_family():
    families = run_python("import setup_timing; "
                          "print(*setup_timing.FAMILIES)").split()
    out = subprocess.run([sys.executable, str(TOOL), "8", "5", "--repeats",
                          "2"], capture_output=True, text=True,
                         check=True).stdout
    first, header, *rows = out.splitlines()
    assert re.fullmatch(r"import_s \d+\.\d{4}", first)
    assert header.split() == ["n", "family", "psd_ms", "indefinite_ms"]
    expected = [(n, f) for n in (8, 5) for f in families]
    assert len(rows) == len(expected)
    for (n, family), row in zip(expected, rows):
        assert re.fullmatch(rf"\s*{n}\s+{family}\s+\d+\.\d{{3}}\s+\d+\.\d{{3}}",
                            row)


def test_the_problems_are_psd_or_indefinite_as_named():
    # The ratio families' declarations do not depend on the data: olda's A
    # is its only indefinite matrix, and occa has none.
    out = run_python(
        "import setup_timing as t\n"
        "for f in t.FAMILIES:\n"
        "    for psd in (True, False):\n"
        "        print(f, psd, t.build(t.spec(f, 12, psd)).npdo_monotone)\n")
    for line in out.splitlines():
        family, psd, declared = line.split()
        if family not in ("olda", "occa"):
            assert declared == psd, line
