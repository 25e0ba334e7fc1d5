"""The tracemalloc peak of compile() on each curvsqp module, in bytes.

    python3 tools/compile_peak.py [SRC_DIR]

Compiles every *.py file of SRC_DIR (default: this checkout's
src/curvsqp) from source and prints one JSON object mapping each
module's stem to the peak, in file order. Run it in a fresh
interpreter: a name another module has already interned is not
allocated again, which lowers the peak. tests/test_compile_peak.py
compares these figures and CI prints them.
"""

import json
import sys
import tracemalloc
from pathlib import Path

src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1] / "src" / "curvsqp"
peaks = {}
for path in sorted(src.glob("*.py")):
    source = path.read_text()
    tracemalloc.start()
    compile(source, str(path), "exec")
    peaks[path.stem] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
print(json.dumps(peaks, indent=1))
