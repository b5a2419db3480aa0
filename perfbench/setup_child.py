"""One set-up measurement in a fresh interpreter.

Imports the package the way ``repro-sta`` does (``repro.cli`` pulls in
every subsystem), loads the packaged cell library and parses the named
packaged circuits, then prints one JSON line with the phase times.

Usage: ``python perfbench/setup_child.py c5315s c7552s``
"""

import json
import sys
import time

t0 = time.perf_counter()
import repro.cli  # noqa: E402,F401  (the import cost is what is measured)
from repro.characterize import CellLibrary  # noqa: E402
from repro.circuit import load_packaged_bench  # noqa: E402

t1 = time.perf_counter()
CellLibrary.load_default()
t2 = time.perf_counter()
for name in sys.argv[1:]:
    load_packaged_bench(name)
t3 = time.perf_counter()
print(json.dumps({
    "import_s": t1 - t0,
    "library_s": t2 - t1,
    "parse_s": t3 - t2,
    "total_s": t3 - t0,
}))
