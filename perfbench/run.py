"""Run the cartsel benchmark on one workload.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last line of standard output is one JSON object. See
``harness.py`` for what a run measures.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # One thread per numeric library, set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path.cwd() / "src"
    if not (src / "cartsel" / "__init__.py").is_file():
        print(f"no cartsel sources under {src}: run from a checkout root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import harness

    sys.exit(harness.main(sys.argv[1:]))
