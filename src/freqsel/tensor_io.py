"""On-disk tensor files, and the load path that reads a dataset's tensors.

Tensor container
----------------
A tensor file is a restricted NPY v1.0 stream:

  * bytes 0-5   magic ``\\x93NUMPY``
  * bytes 6-7   version ``\\x01\\x00``
  * bytes 8-9   little-endian uint16: header length
  * header      ASCII Python dict literal with exactly the keys
    ``'descr'`` (``'<f4'`` or ``'<f8'``), ``'fortran_order'`` (``False``)
    and ``'shape'`` (rank 2 or 3, all dims >= 1), as numpy writes it:
    padded with spaces and ended by a newline, so that the total preamble
    length is a multiple of 64. The reader also takes a header without
    the newline.
  * payload     raw little-endian IEEE-754 values, C order, exactly
    ``prod(shape) * itemsize`` bytes

Anything else - wrong magic, wrong version, truncated or oversized
payloads, Fortran order, zero dims, exotic dtypes, NaN/Inf values - is
rejected with a specific exception rather than guessed at. Rank-2 files
are promoted to a single-channel rank-3 map on load. The file is opened
with Python's buffered reader, whose ``read`` and ``readinto`` return
short only at the end of the file, by :func:`_opened`, the one place
that puts a tensor file's path in front of an error: an error of the
file's checks or of the code that reads it, not one of the code that
consumes what is read, such as the writer of a map made from it. The
reader has three parts, each check in one of them: ``_Payload`` reads
and checks the header and the payload length on record when it is made;
its ``read`` takes the next values in order, ``<f8`` into the caller's
float64 array and ``<f4`` into the caller's staging buffer, checks them
for NaN/Inf by their max |x|, which it returns, and at the last value
checks that the file ends there. :func:`read_tensor` fills a whole map
from these reads, in pieces, so a map is in memory once; the widening is
exact, and a read-write-read trip through either dtype is
byte-identical. ``_channel_chunks`` walks a map in memory or in its
file in runs of whole channels, reading a file's into its caller's
scratch, for the HFR, the high-pass filter and the token pooler, and
``simulate`` reads each piece of a clean source beside the noise it
mixes with, so no map-sized array exists while a file is scored, pooled
or noised. Parsed headers are cached by their bytes.

Writes are piecewise too: :func:`write_pieces` streams float64 pieces into
the file, each cast to the file's dtype through one staging buffer, which
the maker of the pieces may lend, checked for NaN/Inf and written before
the next is asked for, so a writer that makes its values piece by piece
never holds a map-sized payload.
Every file written is byte-identical to ``np.save`` of its values in the
file's dtype.

Load path
---------
A dataset's tensor files are listed by its manifest, which
:mod:`freqsel.manifest` loads without numpy; its names are bound here
too. Tensors are read through ``_map_payloads``, the one load path,
whose callers read each open file's payload themselves. It reports the
first fault in manifest order for any thread count: ``EmptyTimestep``
for a requested timestep without entries (before any read),
``MissingFile`` for an entry whose file has gone since the manifest was
loaded, ``MetaMismatch`` for tensors at one timestep whose headers
differ in shape unless ``"allow_ragged": true``, and a ``FreqselError``
from reading or using a tensor as the same class, naming the file once.

Arrays are written by :func:`write_array` (one whole array) or
:func:`write_pieces`, over one cast-and-check path; text files and the
atomic writes under both live in :mod:`freqsel.fileio`, which needs no
numpy.
"""
from __future__ import annotations

import ast
import io
import math
import os
import struct
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    EmptyTimestep,
    FreqselError,
    IoFailure,
    MalformedHeader,
    MetaMismatch,
    MissingFile,
    NonFiniteValue,
    RankError,
    ShapeMismatch,
    UnsupportedDtype,
)
from .fileio import atomic_write_bytes
# the manifest's names stay bound here: callers and tracers that reach them
# through this module get the same objects
from .manifest import DatasetManifest, ManifestEntry, load_manifest, save_manifest  # noqa: F401
from .reduction import max_abs

__all__ = ["FeatureMeta", "FeatureMap", "read_tensor"]

_MAGIC = b"\x93NUMPY"
_VERSION = b"\x01\x00"
_DESCR_BY_DTYPE = {"f32": "<f4", "f64": "<f8"}
_DTYPE_BY_DESCR = {v: k for k, v in _DESCR_BY_DTYPE.items()}
_HEADER_KEYS = {"descr", "fortran_order", "shape"}
# elements per payload read: 256 KiB of <f4 staged, 512 KiB of <f8 read in
# place. A piece is still in cache when it is checked and widened. CPU per
# read_tensor of a 320x64x64 <f4 map, one thread: 1.23, 1.12, 1.24 and
# 1.39 ms at 2^15, 2^16, 2^17 and 2^18 (<f8: 1.48, 1.51, 1.53, 1.66 ms).
# It also sizes the channel chunks that the HFR walks: at 2^15, twice the
# numpy calls per map cost two scoring threads more CPU and wall time.
# simulate reads and writes in its own, smaller pieces (diffusion._NOISE_PIECE).
_PIECE = 1 << 16


@dataclass(frozen=True)
class FeatureMeta:
    """Identity attached to one feature map."""

    image_id: str = ""
    timestep: int = 1
    group: str = ""
    dtype: str = "f64"

    def __post_init__(self) -> None:
        if self.timestep < 1:
            raise ValueError(f"timestep must be >= 1, got {self.timestep}")
        if self.dtype not in _DESCR_BY_DTYPE:
            raise ValueError(f"dtype must be 'f32' or 'f64', got {self.dtype!r}")


def _check_shape(shape: tuple[int, ...], context: str) -> None:
    """The shape rule of a map in memory and of a file being written: rank 2
    or 3, every dim >= 1."""
    if len(shape) not in (2, 3):
        raise RankError(f"{context}: rank must be 2 or 3, got {len(shape)}")
    if min(shape) < 1:
        raise ShapeMismatch(f"{context}: dims must all be >= 1, got {shape}")


@dataclass(frozen=True)
class FeatureMap:
    """A (channels, height, width) float64 array plus its identity.

    Values are copied on construction, forced C-contiguous, and marked
    read-only; rank-2 input is promoted to channels = 1, so a caller's
    array can never change a map. A map read from a file is not copied
    again: :func:`read_tensor` hands over the array it read the payload
    into, which nothing else holds. Finiteness is checked at the I/O boundary
    (read/write), not here, so in-memory scratch maps stay cheap to build.
    """

    values: np.ndarray
    meta: FeatureMeta = field(default_factory=FeatureMeta)

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=np.float64, order="C", copy=True)
        _check_shape(arr.shape, "feature map")
        if arr.ndim == 2:
            arr = arr[np.newaxis, :, :]
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _owned(cls, values: np.ndarray, meta: FeatureMeta) -> FeatureMap:
        """Wrap a C-ordered float64 array of rank 3, all dims >= 1, that no
        one else holds: no copy and no checks; the array is made read-only."""
        values.setflags(write=False)
        fmap = object.__new__(cls)
        object.__setattr__(fmap, "values", values)
        object.__setattr__(fmap, "meta", meta)
        return fmap

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


@lru_cache(maxsize=64)
def _parse_header(header: bytes) -> tuple[tuple[int, ...], str]:
    """(shape, descr) of a header dict; a header shared by many files is
    parsed once. Errors name no file: the caller adds its path."""
    try:
        text = header.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeader("header is not ASCII") from exc
    try:
        fields = ast.literal_eval(text.strip())
    except (ValueError, SyntaxError, TypeError) as exc:
        # TypeError: a dict literal with an unhashable key, such as {[]: 1}
        raise MalformedHeader("header is not a dict literal") from exc
    if not isinstance(fields, dict) or set(fields) != _HEADER_KEYS:
        raise MalformedHeader("header must have exactly the keys descr/fortran_order/shape")

    descr = fields["descr"]
    if not isinstance(descr, str):
        raise MalformedHeader("descr must be a string")
    if descr not in _DTYPE_BY_DESCR:
        raise UnsupportedDtype(f"dtype {descr!r} not supported (need '<f4' or '<f8')")
    if fields["fortran_order"] is not False:
        raise MalformedHeader("fortran_order must be False")

    shape = fields["shape"]
    if not isinstance(shape, tuple) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in shape
    ):
        raise MalformedHeader("shape must be a tuple of ints")
    if len(shape) not in (2, 3):
        raise RankError(f"rank must be 2 or 3, got {len(shape)}")
    if any(d < 1 for d in shape):
        raise MalformedHeader(f"zero or negative dimension in shape {shape}")
    return shape, descr


class _Payload:
    """A tensor file open for buffered reading, past its checked header:
    ``shape`` (rank 3; a rank-2 file is one channel) and ``meta`` (the
    identity it was opened with, with the file's dtype) of the map, then
    the values in C order, one :meth:`read` after another. The
    header, then the payload length on record, are checked when it is made;
    each read checks its values for NaN and Inf, and the read that takes
    the last value checks that the file ends there. Errors name no file:
    :func:`_opened` adds its path.
    """

    def __init__(self, fh, identity: FeatureMeta) -> None:
        preamble = fh.read(10)
        if len(preamble) < 10 or preamble[:6] != _MAGIC:
            raise MalformedHeader("bad magic, not a tensor file")
        if preamble[6:8] != _VERSION:
            raise MalformedHeader(f"unsupported container version {preamble[6:8]!r}")
        (header_len,) = struct.unpack("<H", preamble[8:10])
        header = fh.read(header_len)
        if len(header) < header_len:
            raise MalformedHeader("header extends past end of file")
        shape, self._descr = _parse_header(header)
        self._fh, self._header_shape, self._done = fh, shape, 0
        self._expected = (4 if self._descr == "<f4" else 8) * math.prod(shape)
        self.shape = shape if len(shape) == 3 else (1,) + shape
        dtype = _DTYPE_BY_DESCR[self._descr]
        self.meta = FeatureMeta(identity.image_id, identity.timestep, identity.group, dtype)
        # the size on record rules out a wrong length before anything is
        # allocated; reading past the payload catches a file that changed since
        payload_len = os.fstat(fh.fileno()).st_size - 10 - header_len
        if payload_len != self._expected:
            raise self._wrong_length(payload_len)

    def _wrong_length(self, payload_len: int) -> MalformedHeader:
        return MalformedHeader(
            f"payload is {payload_len} bytes, shape {self._header_shape} needs {self._expected}"
        )

    def read(self, out: np.ndarray, stage: np.ndarray | None) -> tuple[np.ndarray, float]:
        """The next ``out.size`` values in `out`'s shape, and their max |x|
        after the NaN/Inf check. ``<f8`` values are read into `out`, a
        C-ordered float64 array, and returned as it; ``<f4`` values are read
        into `stage`, a ``<f4`` array of at least as many elements, and
        returned there for the caller to widen."""
        raw = out.reshape(-1) if self._descr == "<f8" else stage[: out.size]
        got = self._fh.readinto(raw)
        self._done += got
        if got < raw.nbytes:
            raise self._wrong_length(self._done)
        peak = max_abs(raw)
        if not math.isfinite(peak):
            raise NonFiniteValue("payload contains NaN or Inf")
        if self._done == self._expected:
            self._check_end()
        return raw.reshape(out.shape), peak

    def _check_end(self) -> None:
        if self._fh.read(1):
            extra = 1
            while chunk := self._fh.read(_PIECE):
                extra += len(chunk)
            raise self._wrong_length(self._expected + extra)

    def feature_map(self) -> FeatureMap:
        """The whole payload as a map that nothing else holds, read straight
        into its float64 array in pieces of ``_PIECE`` elements, ``<f4``
        pieces through one staging buffer, so a map is in memory once, plus
        one piece."""
        values = np.empty(self.shape)
        flat = values.reshape(-1)
        stage = np.empty(min(flat.size, _PIECE), dtype="<f4") if self._descr == "<f4" else None
        for start in range(0, flat.size, _PIECE):
            piece = flat[start : start + _PIECE]
            raw, _ = self.read(piece, stage)
            if stage is not None:
                piece[...] = raw
        return FeatureMap._owned(values, self.meta)


def _opened(path, identity: FeatureMeta, read: Callable[[_Payload], Iterable]) -> Iterator:
    """Yield what read(payload) yields for the tensor file at `path`, opened
    as the map `identity` names. Every error raised by the file's checks or
    by `read` names the file once; one raised by the consumer between two
    values is not this file's and names nothing."""
    p = Path(path)
    try:
        with open(p, "rb") as fh:
            yield from read(_Payload(fh, identity))
    except OSError as exc:
        raise IoFailure(f"cannot read {p}: {exc}") from exc
    except FreqselError as exc:
        raise type(exc)(f"{p}: {exc}") from exc


def _channel_chunks(
    source: FeatureMap | _Payload, out: np.ndarray, stage: np.ndarray | None
) -> Iterator[tuple[int, np.ndarray, float]]:
    """(start, values, max |values|) for each run of ``len(out)`` whole
    channels of `source` in order, the last run holding what is left, each
    checked for NaN and Inf. A file's runs are read by
    :meth:`_Payload.read`, ``<f8`` into the float64 `out` and ``<f4`` into
    the ``<f4`` `stage`; a map's runs are views of its values, and a NaN or
    Inf among them names the map. Only here do the two sources differ."""
    step = len(out)
    for start in range(0, source.shape[0], step):
        if isinstance(source, _Payload):
            values, peak = source.read(out[: min(step, source.shape[0] - start)], stage)
        else:
            values = source.values[start : start + step]
            peak = max_abs(values)
            if not math.isfinite(peak):
                meta = source.meta
                raise NonFiniteValue(f"feature map {meta.image_id!r} (t={meta.timestep}) contains NaN or Inf")
        yield start, values, peak


def read_tensor(path, meta: FeatureMeta | None = None) -> FeatureMap:
    """Load one tensor file. `meta` overrides identity; file dtype always
    wins. Every error names the file once."""
    p = Path(path)
    (fmap,) = _opened(p, meta or FeatureMeta(image_id=p.stem), lambda payload: [payload.feature_map()])
    return fmap


def _tensor_chunks(
    pieces: Iterable[np.ndarray], shape: tuple[int, ...], path, dtype: str, stage: np.ndarray | None = None
) -> Iterator:
    """The header, then the payload piece by piece, of a tensor file of
    `shape` and `dtype` at `path` whose float64 values, in C order, arrive
    as `pieces`: the bytes of ``np.save`` of those values in that dtype.

    The dtype and the shape rule are checked first, before a single piece
    is asked for, so no file is finished that :func:`read_tensor` would
    reject. Each piece is cast to the file's dtype in slices of ``_PIECE``
    elements (``<f4`` through one staging buffer, `stage` if given, a
    ``<f4`` array at least as long as the largest piece, ``_PIECE``
    elements sufficing for any, that the maker of `pieces` may lend
    between two pieces; ``<f8`` with no copy on a little-endian host), and
    each slice is checked for NaN and Inf after the cast, so a value
    beyond the f32 range is a ``NonFiniteValue``, not an Inf on disk.
    Pieces that do not add up to the shape are a ``ShapeMismatch``.
    """
    context = str(path)
    if dtype not in _DESCR_BY_DTYPE:
        raise UnsupportedDtype(f"cannot write dtype {dtype!r} (need 'f32' or 'f64')")
    _check_shape(shape, context)
    descr = _DESCR_BY_DTYPE[dtype]
    header = io.BytesIO()
    # numpy integer dims would be written as their repr, np.int64(n)
    np.lib.format.write_array_header_1_0(
        header, {"descr": descr, "fortran_order": False, "shape": tuple(map(int, shape))}
    )
    yield header.getvalue()
    total = math.prod(shape)
    if descr == "<f8":
        stage = None
    elif stage is None:
        stage = np.empty(min(total, _PIECE), dtype=descr)
    count = 0
    for piece in pieces:
        flat = np.asarray(piece, dtype="<f8").reshape(-1)
        for start in range(0, flat.size, _PIECE):
            part = flat[start : start + _PIECE]
            count += part.size
            if count > total:
                raise ShapeMismatch(f"{context}: more than {total} values for shape {shape}")
            if stage is not None:
                with np.errstate(over="ignore"):
                    stage[: part.size] = part
                part = stage[: part.size]
            if not np.isfinite(part).all():
                raise NonFiniteValue(f"{context}: payload contains NaN or Inf")
            yield part
    if count < total:
        raise ShapeMismatch(f"{context}: {count} values for shape {shape}, which needs {total}")


def write_pieces(
    pieces: Iterable[np.ndarray], shape: tuple[int, ...], path, dtype: str, *, stage: np.ndarray | None = None
) -> None:
    """Stream float64 `pieces` (C order) into a tensor file of `shape` and
    `dtype`, each one cast, checked and written before the next is asked
    for, so a generator may reuse one buffer for all of them, and the
    ``<f4`` `stage` it lends for the cast. A fault leaves no file; see
    :func:`_tensor_chunks` for the checks."""
    atomic_write_bytes(path, _tensor_chunks(pieces, shape, path, dtype, stage))


def _encode(values: np.ndarray, path, dtype: str) -> list:
    """The chunks :func:`write_array` would write for `values`, all cast
    and checked, to be written later with ``atomic_write_bytes``. ``<f4``
    pieces are copied out of the staging buffer, which the next piece
    overwrites; ``<f8`` pieces stay views of `values`."""
    chunks = _tensor_chunks((values,), values.shape, path, dtype)
    return [chunk if dtype == "f64" else bytes(chunk) for chunk in chunks]


def write_array(values: np.ndarray, path, dtype: str) -> None:
    """Serialise a float64 array of rank 2 or 3 as a tensor file of `dtype`."""
    write_pieces((values,), values.shape, path, dtype)


def _map_payloads(
    manifest: DatasetManifest, use: Callable[[_Payload], object], timesteps=None, threads: int = 1
) -> Iterator[tuple[ManifestEntry, object]]:
    """Yield (entry, use(payload)) for the wanted entries, in manifest
    order, `use` reading the open file's payload itself; the payload's
    ``meta`` is the entry's identity and the file's dtype. With ``threads >
    1`` up to ``2 * threads`` entries are read and used ahead by the
    calling thread and ``threads - 1`` helpers (:func:`_in_order`), joined
    when the generator ends or is closed. A fault names its file
    once: the missing-file check names it, and :func:`_opened` puts it in
    front of every error raised while the file is open, by the reader's
    checks or by `use`. The shape rule takes each map's shape from its
    header."""
    if timesteps is None:
        tasks = manifest.entries
    else:
        wanted = set(timesteps)
        if not wanted:
            raise EmptyTimestep(
                "no timesteps requested" if manifest.entries else "manifest has no entries"
            )
        tasks = [e for e in manifest.entries if e.timestep in wanted]
        missing = wanted - {e.timestep for e in tasks}
        if missing:
            raise EmptyTimestep(f"no feature maps at timestep {min(missing)}")

    def job(entry: ManifestEntry):
        target = manifest.resolve(entry)
        if not target.is_file():
            raise MissingFile(f"entry {entry.image_id!r} points at missing file {target}")
        identity = FeatureMeta(entry.image_id, entry.timestep, entry.group)
        (loaded,) = _opened(target, identity, lambda payload: [(entry, payload.shape, use(payload))])
        return loaded

    first: dict[int, tuple] = {}
    for entry, shape, value in _in_order(job, tasks, threads):
        first_shape, first_path = first.setdefault(entry.timestep, (shape, entry.path))
        if shape != first_shape and not manifest.allow_ragged:
            raise MetaMismatch(
                f"timestep {entry.timestep}: {entry.path} has shape {shape} "
                f"but {first_path} has shape {first_shape}"
            )
        yield entry, value
        # not held while the next entry is loaded
        del value


def _in_order(job, items, threads: int, undo=None) -> Iterator:
    """job(item) for each item, in order. With ``threads > 1`` the calling
    thread and ``threads - 1`` helper threads run at most ``2 * threads``
    jobs ahead, the caller while the job it yields next is unfinished. At
    the first fault the queued later jobs are dropped, the running ones
    awaited, and ``undo(item)`` run for each later one that finished, then
    the fault is raised: what a failed run leaves does not depend on
    `threads`. The helpers are joined when the generator ends or is closed."""
    if threads <= 1:
        yield from map(job, items)
        return
    # slots [item, outcome]: None until the job ends, then (True, value) or (False, fault)
    pending, queued, helpers, cond = deque(), deque(), [], threading.Condition()
    stopped = failed = False

    def work(until) -> None:
        """Run queued jobs on this thread until until() holds."""
        while True:
            with cond:
                cond.wait_for(lambda: queued or until())
                if until():
                    return
                slot = queued.popleft()
            try:
                slot[1] = (True, job(slot[0]))
            except BaseException as exc:  # raised in order, by the caller
                slot[1] = (False, exc)
            with cond:
                cond.notify_all()

    try:
        for _ in range(threads - 1):
            (helper := threading.Thread(target=work, args=(lambda: stopped,), daemon=True)).start()
            helpers.append(helper)
        items = iter(items)
        while True:
            for item in islice(items, 2 * threads - len(pending)):
                pending.append([item, None])
                with cond:
                    queued.append(pending[-1])
                    cond.notify()
            if not pending:
                return
            slot = pending.popleft()
            work(lambda: slot[1] is not None)
            if not slot[1][0]:
                failed = True
                raise slot[1][1]
            # popped: the value is not held while the next jobs run
            yield slot.pop()[1]
    finally:
        with cond:
            stopped = True
            queued.clear()
            cond.notify_all()
        for helper in helpers:
            helper.join()
        for item, outcome in pending if failed and undo is not None else ():
            if outcome is not None and outcome[0]:
                undo(item)
