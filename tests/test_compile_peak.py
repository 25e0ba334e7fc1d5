"""No module compiles above factor.py's peak.

The benchmark compiles every curvsqp module from source, and the
largest compile() sets the memory peak of its set-up, so a module that
outgrows factor.py, the largest kernel, raises peak_rss_mb. The peaks
are taken by tools/compile_peak.py, with tracemalloc in a fresh
interpreter, in which nothing else has interned the modules' names, and
are deterministic for a given Python; CI's report-only step prints the
same figures by running the same script.
"""

import json
import subprocess
import sys
from pathlib import Path

import curvsqp

SRC = Path(curvsqp.__file__).parent
SCRIPT = Path(__file__).parents[1] / "tools" / "compile_peak.py"


def test_no_module_compiles_above_factor():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(SRC)], capture_output=True, text=True, check=True,
    ).stdout
    peaks = json.loads(out)
    above = {name: peak for name, peak in peaks.items() if peak > peaks["factor"]}
    assert not above, f"compile peaks above factor.py's {peaks['factor']} bytes: {above}"
