"""Process set-up shared by the benchmark's entry points; import it first.

It pins BLAS to one thread before numpy loads, so a run uses no more threads
than `stream_run` itself starts (its ingest thread plus the main thread), and
it puts the checkout's own `src/` ahead of any installed copy of the program.
"""
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Only the CLI reads REMOGEN_SEED; drop it so no child process sees it either.
os.environ.pop("REMOGEN_SEED", None)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")
REFERENCE = os.path.join(BENCH_DIR, "reference")

if SRC not in sys.path:
    sys.path.insert(0, SRC)


def require_program() -> None:
    """Exit with status 2 unless the program imports from this checkout's src/."""
    try:
        import remogen
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not os.path.abspath(remogen.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported remogen from {remogen.__file__}, not from {SRC}")
