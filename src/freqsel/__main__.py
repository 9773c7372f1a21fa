"""``python -m freqsel`` and the ``freqsel`` console script.

Before :mod:`freqsel.cli` loads, this module sets two process-wide
defaults, and nothing else in freqsel sets them:

* BLAS runs on one thread unless the caller set a thread count (see
  ``cli``). ``OMP_NUM_THREADS`` ranks below each BLAS library's own
  variable, so a caller's ``OPENBLAS_NUM_THREADS`` still wins; ``cli``
  loads numpy only inside a command, so the default is in place before
  any BLAS library starts.
* ``_hashlib`` is marked absent, so OpenSSL's ``libcrypto`` is never
  mapped. freqsel hashes nothing, but ``numpy.random`` imports
  ``secrets``, which imports ``hmac`` and ``hashlib``; with ``_hashlib``
  absent they use CPython's built-in hashes, and ``simulate`` and
  ``oracle`` peak about 3.5 MB lower. An interpreter built without the
  built-in hashes (some FIPS builds), on which ``hashlib`` would log an
  error for each one it lacks, keeps ``_hashlib``; so does a process that
  imported it already.

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
import importlib.util
import os
import sys

os.environ.setdefault("OMP_NUM_THREADS", "1")

# the modules hashlib builds its constructors from when _hashlib is absent
_BUILTIN_HASHES = ("_md5", "_sha1", "_blake2", "_sha3") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)
if all(importlib.util.find_spec(name) for name in _BUILTIN_HASHES):
    sys.modules.setdefault("_hashlib", None)

from . import cli  # noqa: E402


def main() -> int:
    """Run the command ``sys.argv`` names and return its exit code."""
    code = cli.main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
