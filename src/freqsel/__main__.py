"""``python -m freqsel`` and the ``freqsel`` console script.

BLAS runs on one thread unless the caller set a thread count (see
``cli``). ``OMP_NUM_THREADS`` ranks below each BLAS library's own
variable, so a caller's ``OPENBLAS_NUM_THREADS`` still wins; ``cli``
loads numpy only inside a command, so the default is in place before
any BLAS library starts.

:func:`main` runs the command, then freezes the heap with
``gc.freeze()``: every object then alive moves to the collector's
permanent generation, so the collections of interpreter shutdown no
longer walk numpy's object graph, about 20 ms in each process that
loaded it. Frozen objects are never collected, so this is done only here,
as the process ends; :func:`freqsel.cli.main` called in a process that
goes on (the tests, an in-process benchmark) leaves the collector as it
was.
"""
import gc
import os
import sys

os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import cli  # noqa: E402


def main() -> int:
    """Run the command ``sys.argv`` names and return its exit code."""
    code = cli.main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
