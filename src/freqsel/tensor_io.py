"""On-disk tensor container and dataset manifest handling.

Tensor container
----------------
A tensor file is a restricted NPY v1.0 stream:

  * bytes 0-5   magic ``\\x93NUMPY``
  * bytes 6-7   version ``\\x01\\x00``
  * bytes 8-9   little-endian uint16: header length
  * header      ASCII Python dict literal with exactly the keys
    ``'descr'`` (``'<f4'`` or ``'<f8'``), ``'fortran_order'`` (``False``)
    and ``'shape'`` (rank 2 or 3, all dims >= 1), padded with spaces so
    that the total preamble length is a multiple of 64
  * payload     raw little-endian IEEE-754 values, C order, exactly
    ``prod(shape) * itemsize`` bytes

Anything else - wrong magic, wrong version, truncated or oversized
payloads, Fortran order, zero dims, exotic dtypes, NaN/Inf values - is
rejected with a specific exception rather than guessed at. Rank-2 files
are promoted to a single-channel rank-3 map on load. The payload is read
in pieces straight into the map's float64 array, f32 pieces widened on
the way through one staging buffer, so a map is in memory once; the
widening is exact, and a read-write-read trip through either dtype is
byte-identical. Parsed headers are cached by their bytes.

Writes are piecewise too: :func:`write_pieces` streams float64 pieces into
the file, each cast to the file's dtype through one staging buffer,
checked for NaN/Inf and written before the next is asked for, so a writer
that makes its values piece by piece never holds a map-sized payload.

Dataset manifest
----------------
JSON index binding tensor files to dataset identity::

    {"total_timesteps": int,
     "entries": [{"path": str, "image_id": str, "timestep": int,
                  "group": str, "label": int|null, "accuracy": float|null}]}

Relative entry paths resolve against the manifest's own directory. Tensors
are read through :func:`map_loaded`, the one load path, which reports the
first fault in manifest order for any thread count: ``EmptyTimestep`` for a
requested timestep without entries (before any read), ``MissingFile`` for
an entry whose file has gone since the manifest was loaded,
``MetaMismatch`` for tensors at one timestep that differ in shape unless
``"allow_ragged": true``, and a ``FreqselError`` from loading or mapping a
tensor as the same class, naming the file.

Arrays are written by :func:`write_array` (one whole array) or
:func:`write_pieces`, over one cast-and-check path; text files and the
atomic writes under both live in :mod:`freqsel.fileio`, which needs no
numpy.
"""
from __future__ import annotations

import ast
import json
import math
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    EmptyTimestep,
    FreqselError,
    IoFailure,
    MalformedHeader,
    ManifestSchemaError,
    MetaMismatch,
    MissingFile,
    NonFiniteValue,
    RankError,
    ShapeMismatch,
    UnsupportedDtype,
)
from .fileio import atomic_write_bytes, atomic_write_json, read_text

__all__ = [
    "FeatureMeta",
    "FeatureMap",
    "ManifestEntry",
    "DatasetManifest",
    "read_tensor",
    "load_manifest",
    "save_manifest",
]

_MAGIC = b"\x93NUMPY"
_VERSION = b"\x01\x00"
_ALIGN = 64
_DESCR_BY_DTYPE = {"f32": "<f4", "f64": "<f8"}
_DTYPE_BY_DESCR = {v: k for k, v in _DESCR_BY_DTYPE.items()}
_HEADER_KEYS = {"descr", "fortran_order", "shape"}
# elements per payload read: 256 KiB of <f4 staged, 512 KiB of <f8 read in
# place. A piece is still in cache when it is checked and widened; on
# 320x64x64 <f4 maps, 2^16 read about 10% faster than 2^18.
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
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


def _check_finite(arr: np.ndarray, context: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{context}: payload contains NaN or Inf")


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


def _fill(fh, view: memoryview) -> int:
    """Read into the byte view until it is full or the file ends; the number
    of bytes read."""
    got = 0
    while got < len(view):
        n = fh.readinto(view[got:])
        if not n:
            break
        got += n
    return got


def _read_exact(fh, size: int) -> bytes:
    """Up to `size` bytes: fewer only at the end of the file."""
    buf = memoryview(bytearray(size))
    return bytes(buf[: _fill(fh, buf)])


def _read_values(fh, context: str) -> tuple[np.ndarray, str]:
    """The payload of an open tensor file as a rank-3 float64 array that
    nothing else holds, and the file's dtype.

    The payload is read in pieces straight into the array: ``<f8`` in place,
    ``<f4`` through one reused staging buffer whose pieces are widened into
    it. So a map is in memory once, plus one piece, and the finite check
    runs per piece.
    """
    preamble = _read_exact(fh, 10)
    if len(preamble) < 10 or preamble[:6] != _MAGIC:
        raise MalformedHeader(f"{context}: bad magic, not a tensor file")
    if preamble[6:8] != _VERSION:
        raise MalformedHeader(f"{context}: unsupported container version {preamble[6:8]!r}")
    (header_len,) = struct.unpack("<H", preamble[8:10])
    header = _read_exact(fh, header_len)
    if len(header) < header_len:
        raise MalformedHeader(f"{context}: header extends past end of file")
    try:
        shape, descr = _parse_header(header)
    except FreqselError as exc:
        raise type(exc)(f"{context}: {exc}") from exc

    expected = (4 if descr == "<f4" else 8) * math.prod(shape)

    def wrong_length(payload_len: int) -> MalformedHeader:
        return MalformedHeader(
            f"{context}: payload is {payload_len} bytes, shape {shape} needs {expected}"
        )

    # the size on record rules out a wrong length before anything is
    # allocated; reading past the payload catches a file that changed since
    payload_len = os.fstat(fh.fileno()).st_size - 10 - header_len
    if payload_len != expected:
        raise wrong_length(payload_len)
    values = np.empty(shape if len(shape) == 3 else (1,) + shape, dtype=np.float64)
    flat = values.reshape(-1)
    stage = np.empty(min(flat.size, _PIECE), dtype=descr) if descr == "<f4" else None
    for start in range(0, flat.size, _PIECE):
        piece = flat[start : start + _PIECE]
        target = piece if stage is None else stage[: piece.size]
        got = _fill(fh, memoryview(target).cast("B"))
        if got < target.nbytes:
            raise wrong_length(start * target.itemsize + got)
        _check_finite(target, context)
        if stage is not None:
            piece[...] = target
    if fh.read(1):
        extra = 1
        while chunk := fh.read(_PIECE):
            extra += len(chunk)
        raise wrong_length(expected + extra)
    return values, _DTYPE_BY_DESCR[descr]


def read_tensor(path, meta: FeatureMeta | None = None) -> FeatureMap:
    """Load one tensor file. `meta` overrides identity; file dtype always wins."""
    p = Path(path)
    try:
        with open(p, "rb", buffering=0) as fh:
            values, dtype = _read_values(fh, str(p))
    except OSError as exc:
        raise IoFailure(f"cannot read {p}: {exc}") from exc
    if meta is None:
        meta = FeatureMeta(image_id=p.stem, dtype=dtype)
    else:
        meta = FeatureMeta(meta.image_id, meta.timestep, meta.group, dtype)
    return FeatureMap._owned(values, meta)


def _build_header(shape: tuple[int, ...], descr: str) -> bytes:
    body = "{'descr': '%s', 'fortran_order': False, 'shape': (%s), }" % (
        descr,
        ", ".join(str(d) for d in shape),
    )
    pad = -(10 + len(body)) % _ALIGN
    header = (body + " " * pad).encode("ascii")
    return _MAGIC + _VERSION + struct.pack("<H", len(header)) + header


def _tensor_chunks(pieces: Iterable[np.ndarray], shape: tuple[int, ...], path, dtype: str) -> Iterator:
    """The header, then the payload piece by piece, of a tensor file of
    `shape` and `dtype` at `path` whose float64 values, in C order, arrive
    as `pieces`.

    The dtype and the shape rule are checked at the call, before a single
    piece is asked for, so no file is started that :func:`read_tensor`
    would reject. Each piece is cast to the file's dtype in slices of
    ``_PIECE`` elements (``<f4`` through one staging buffer, ``<f8`` with
    no copy on a little-endian host), and each slice is checked for NaN
    and Inf after the cast, so a value beyond the f32 range is a
    ``NonFiniteValue``, not an Inf on disk. Pieces that do not add up to
    the shape are a ``ShapeMismatch``.
    """
    if dtype not in _DESCR_BY_DTYPE:
        raise UnsupportedDtype(f"cannot write dtype {dtype!r} (need 'f32' or 'f64')")
    _check_shape(shape, str(path))
    return _cast_pieces(pieces, shape, _DESCR_BY_DTYPE[dtype], str(path))


def _cast_pieces(pieces, shape: tuple[int, ...], descr: str, context: str) -> Iterator:
    yield _build_header(shape, descr)
    total = math.prod(shape)
    stage = np.empty(min(total, _PIECE), dtype=descr) if descr == "<f4" else None
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
            _check_finite(part, context)
            yield part
    if count < total:
        raise ShapeMismatch(f"{context}: {count} values for shape {shape}, which needs {total}")


def write_pieces(pieces: Iterable[np.ndarray], shape: tuple[int, ...], path, dtype: str) -> None:
    """Stream float64 `pieces` (C order) into a tensor file of `shape` and
    `dtype`, each one cast, checked and written before the next is asked
    for, so a generator may reuse one buffer for all of them. A fault
    leaves no file; see :func:`_tensor_chunks` for the checks."""
    atomic_write_bytes(path, _tensor_chunks(pieces, shape, path, dtype))


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


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    image_id: str
    timestep: int
    group: str
    label: int | None = None
    accuracy: float | None = None


@dataclass(frozen=True)
class DatasetManifest:
    total_timesteps: int
    entries: tuple[ManifestEntry, ...]
    allow_ragged: bool = False
    root: Path = field(default_factory=Path)

    def resolve(self, entry: ManifestEntry) -> Path:
        p = Path(entry.path)
        return p if p.is_absolute() else self.root / p

    def timesteps(self) -> tuple[int, ...]:
        return tuple(sorted({e.timestep for e in self.entries}))


def _schema(cond: bool, message: str) -> None:
    if not cond:
        raise ManifestSchemaError(message)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _parse_entry(raw, index: int, total: int, context: str) -> ManifestEntry:
    where = f"{context}: entries[{index}]"
    _schema(isinstance(raw, dict), f"{where} must be an object")
    allowed = {"path", "image_id", "timestep", "group", "label", "accuracy"}
    _schema(set(raw) <= allowed, f"{where} has unknown keys {sorted(set(raw) - allowed)}")
    for key in ("path", "image_id", "timestep", "group"):
        _schema(key in raw, f"{where} missing required key {key!r}")
    _schema(isinstance(raw["path"], str) and raw["path"] != "", f"{where}: path must be a non-empty string")
    _schema(isinstance(raw["image_id"], str), f"{where}: image_id must be a string")
    _schema(isinstance(raw["group"], str), f"{where}: group must be a string")
    t = raw["timestep"]
    _schema(_is_int(t), f"{where}: timestep must be an integer")
    _schema(1 <= t <= total, f"{where}: timestep {t} outside [1, {total}]")
    label = raw.get("label")
    _schema(label is None or _is_int(label), f"{where}: label must be an integer or null")
    acc = raw.get("accuracy")
    if acc is not None:
        _schema(
            isinstance(acc, (int, float)) and not isinstance(acc, bool) and 0.0 <= acc <= 1.0,
            f"{where}: accuracy must be in [0, 1] or null",
        )
        acc = float(acc)
    return ManifestEntry(raw["path"], raw["image_id"], t, raw["group"], label, acc)


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a manifest; every referenced file must exist."""
    p = Path(path)
    try:
        doc = json.loads(read_text(p, ManifestSchemaError))
    except json.JSONDecodeError as exc:
        raise ManifestSchemaError(f"{p}: not valid JSON ({exc})") from exc

    _schema(isinstance(doc, dict), f"{p}: manifest must be a JSON object")
    allowed = {"total_timesteps", "entries", "allow_ragged"}
    _schema(set(doc) <= allowed, f"{p}: unknown keys {sorted(set(doc) - allowed)}")
    _schema("total_timesteps" in doc and "entries" in doc, f"{p}: need total_timesteps and entries")
    total = doc["total_timesteps"]
    _schema(_is_int(total) and total >= 1, f"{p}: total_timesteps must be an integer >= 1")
    ragged = doc.get("allow_ragged", False)
    _schema(isinstance(ragged, bool), f"{p}: allow_ragged must be a boolean")
    _schema(isinstance(doc["entries"], list), f"{p}: entries must be a list")

    entries = tuple(
        _parse_entry(raw, i, total, str(p)) for i, raw in enumerate(doc["entries"])
    )
    manifest = DatasetManifest(total, entries, ragged, p.parent)
    for entry in entries:
        target = manifest.resolve(entry)
        if not target.is_file():
            raise MissingFile(f"{p}: entry {entry.image_id!r} points at missing file {target}")
    return manifest


def save_manifest(manifest: DatasetManifest, path) -> None:
    doc: dict = {
        "total_timesteps": manifest.total_timesteps,
        "entries": [asdict(e) for e in manifest.entries],
    }
    if manifest.allow_ragged:
        doc["allow_ragged"] = True
    atomic_write_json(path, doc)


def map_loaded(
    manifest: DatasetManifest, fn: Callable[[FeatureMap], object], timesteps=None, threads: int = 1
) -> Iterator[tuple[ManifestEntry, object]]:
    """Yield (entry, fn(map)) for the wanted entries, in manifest order. With
    ``threads > 1`` up to ``2 * threads`` entries are loaded and mapped ahead
    on a pool, shut down when the generator ends or is closed."""
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
        try:
            if not target.is_file():
                raise MissingFile(f"entry {entry.image_id!r} points at missing file {target}")
            fmap = read_tensor(target, FeatureMeta(entry.image_id, entry.timestep, entry.group))
            return entry, fmap.values.shape, fn(fmap)
        except FreqselError as exc:
            raise exc if str(target) in str(exc) else type(exc)(f"{target}: {exc}")

    first: dict[int, tuple] = {}
    for entry, shape, value in _in_order(job, tasks, threads, 2 * threads):
        first_shape, first_path = first.setdefault(entry.timestep, (shape, entry.path))
        if shape != first_shape and not manifest.allow_ragged:
            raise MetaMismatch(
                f"timestep {entry.timestep}: {entry.path} has shape {shape} "
                f"but {first_path} has shape {first_shape}"
            )
        yield entry, value
        # not held while the next entry is loaded
        del value


def _in_order(job, items, threads: int, depth: int, undo=None) -> Iterator:
    """job(item) for each item, in order. With ``threads > 1`` at most
    `depth` jobs run ahead on a pool, shut down when the generator ends or
    is closed. At the first fault the later jobs are cancelled,
    ``undo(item)`` runs for each later job that had already finished, and
    the fault is raised: what a failed run leaves does not depend on
    `threads`."""
    if threads <= 1:
        yield from map(job, items)
        return
    pool = ThreadPoolExecutor(threads)
    pending: deque = deque()

    def head():
        _, future = pending.popleft()
        if future.exception() is not None:
            for _, later in pending:
                later.cancel()
            for item, later in pending:
                if undo is not None and not later.cancelled() and later.exception() is None:
                    undo(item)
        return future.result()

    try:
        for item in items:
            pending.append((item, pool.submit(job, item)))
            if len(pending) == depth:
                yield head()
        while pending:
            yield head()
    finally:
        pool.shutdown(cancel_futures=True)
