"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload planted-forest --seed 1 --seconds 12 --trace 0

It imports the library from the checkout's ``src/`` (never an installed
copy), pins BLAS to one thread before numpy loads, and prints a header, the
metrics by name and unit, and as its last line one JSON result object. The
exit code is 0 when every correctness check passed, 1 when one failed and 2
when the library is missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "cslsh" / "__init__.py").is_file():
        print(f"run.py: no library source at {SRC / 'cslsh'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main(root=ROOT))
