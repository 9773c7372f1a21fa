"""``python -m freqsel`` and the ``freqsel`` console script.

BLAS runs on one thread unless the caller set a thread count (see
``cli``). ``OMP_NUM_THREADS`` ranks below each BLAS library's own
variable, so a caller's ``OPENBLAS_NUM_THREADS`` still wins; ``cli``
loads numpy only inside a command, so the default is in place before
any BLAS library starts.
"""
import os
import sys

os.environ.setdefault("OMP_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
