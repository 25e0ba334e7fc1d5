"""No module compiles above factor.py's peak.

The benchmark compiles every curvsqp module from source, and the
largest compile() sets the memory peak of its set-up, so a module that
outgrows factor.py, the largest kernel, raises peak_rss_mb. The peaks
are taken with tracemalloc in a fresh interpreter, in which nothing else
has interned the modules' names, and are deterministic for a given
Python; CI's report-only step prints the same figures.
"""

import json
import subprocess
import sys
from pathlib import Path

import curvsqp

SRC = Path(curvsqp.__file__).parent

_PEAKS = """
import json, sys, tracemalloc
from pathlib import Path
peaks = {}
for path in sorted(Path(sys.argv[1]).glob("*.py")):
    source = path.read_text()
    tracemalloc.start()
    compile(source, str(path), "exec")
    peaks[path.stem] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
print(json.dumps(peaks))
"""


def test_no_module_compiles_above_factor():
    out = subprocess.run(
        [sys.executable, "-c", _PEAKS, str(SRC)], capture_output=True, text=True, check=True,
    ).stdout
    peaks = json.loads(out)
    above = {name: peak for name, peak in peaks.items() if peak > peaks["factor"]}
    assert not above, f"compile peaks above factor.py's {peaks['factor']} bytes: {above}"
