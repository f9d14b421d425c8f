"""Process set-up shared by the benchmark's entry points.

``bootstrap`` must run before numpy is imported: it pins every BLAS and
OpenMP pool to one thread, so each workload runs single-threaded, and puts
the checkout's own ``src/`` first on ``sys.path``, so the benchmark measures
the sources next to it and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def bootstrap() -> Path:
    """Prepare the process and return the checkout root; exit 2 without sources."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "softmapper" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no softmapper sources under {src}\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import softmapper

    if Path(softmapper.__file__).resolve().parent != src / "softmapper":
        sys.stderr.write(f"perfbench: imported softmapper from {softmapper.__file__}, not {src}\n")
        raise SystemExit(2)
    return ROOT
