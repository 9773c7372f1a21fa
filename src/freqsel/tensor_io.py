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
are promoted to a single-channel rank-3 map on load. f32 payloads are
widened to f64 in memory; a read-write-read trip through either dtype is
byte-identical.

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

Arrays are written by :func:`write_array`; text files and the atomic
writes under it live in :mod:`freqsel.fileio`, which needs no numpy.
"""
from __future__ import annotations

import ast
import json
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator

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
    again: :func:`read_tensor` hands over the array it just decoded, which
    nothing else holds. Finiteness is checked at the I/O boundary
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


def _parse_header_dict(header: bytes, context: str) -> dict:
    try:
        text = header.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"{context}: header is not ASCII") from exc
    try:
        parsed = ast.literal_eval(text.strip())
    except (ValueError, SyntaxError, TypeError) as exc:
        # TypeError: a dict literal with an unhashable key, such as {[]: 1}
        raise MalformedHeader(f"{context}: header is not a dict literal") from exc
    if not isinstance(parsed, dict) or set(parsed) != _HEADER_KEYS:
        raise MalformedHeader(
            f"{context}: header must have exactly the keys descr/fortran_order/shape"
        )
    return parsed


def _parse_tensor_bytes(raw: bytes, context: str) -> tuple[np.ndarray, str]:
    if len(raw) < 10 or raw[:6] != _MAGIC:
        raise MalformedHeader(f"{context}: bad magic, not a tensor file")
    if raw[6:8] != _VERSION:
        raise MalformedHeader(f"{context}: unsupported container version {raw[6:8]!r}")
    (header_len,) = struct.unpack("<H", raw[8:10])
    body_start = 10 + header_len
    if body_start > len(raw):
        raise MalformedHeader(f"{context}: header extends past end of file")
    fields = _parse_header_dict(raw[10:body_start], context)

    descr = fields["descr"]
    if not isinstance(descr, str):
        raise MalformedHeader(f"{context}: descr must be a string")
    if descr not in _DTYPE_BY_DESCR:
        raise UnsupportedDtype(f"{context}: dtype {descr!r} not supported (need '<f4' or '<f8')")
    if fields["fortran_order"] is not False:
        raise MalformedHeader(f"{context}: fortran_order must be False")

    shape = fields["shape"]
    if not isinstance(shape, tuple) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in shape
    ):
        raise MalformedHeader(f"{context}: shape must be a tuple of ints")
    if len(shape) not in (2, 3):
        raise RankError(f"{context}: rank must be 2 or 3, got {len(shape)}")
    if any(d < 1 for d in shape):
        raise MalformedHeader(f"{context}: zero or negative dimension in shape {shape}")

    itemsize = 4 if descr == "<f4" else 8
    expected = itemsize
    for d in shape:
        expected *= d
    payload_len = len(raw) - body_start
    if payload_len != expected:
        raise MalformedHeader(
            f"{context}: payload is {payload_len} bytes, shape {shape} needs {expected}"
        )
    # one conversion straight from the file buffer (none for f64, whose
    # payload is used in place), promoted to rank 3 and read-only
    payload = np.frombuffer(raw, dtype=descr, offset=body_start)
    _check_finite(payload, context)
    values = payload.astype(np.float64, copy=False)
    values.setflags(write=False)
    return values.reshape(shape if len(shape) == 3 else (1,) + shape), _DTYPE_BY_DESCR[descr]


def read_tensor(path, meta: FeatureMeta | None = None) -> FeatureMap:
    """Load one tensor file. `meta` overrides identity; file dtype always wins."""
    p = Path(path)
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {p}: {exc}") from exc
    values, dtype = _parse_tensor_bytes(raw, str(p))
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


def _encode(values: np.ndarray, path, dtype: str) -> tuple[bytes, np.ndarray]:
    """(header, payload) of `values` as a tensor file of `dtype` at `path`.

    The shape rule is checked first, so no file is written that
    :func:`read_tensor` would reject. The payload is cast straight to the
    file's dtype (no copy at all for C-ordered f64 on a little-endian
    host). The finite check runs on the cast payload, so a value beyond
    the f32 range is a ``NonFiniteValue``, not an Inf on disk.
    """
    if dtype not in _DESCR_BY_DTYPE:
        raise UnsupportedDtype(f"cannot write dtype {dtype!r} (need 'f32' or 'f64')")
    _check_shape(values.shape, str(path))
    descr = _DESCR_BY_DTYPE[dtype]
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(values, dtype=descr)
    _check_finite(payload, str(path))
    return _build_header(values.shape, descr), payload


def write_array(values: np.ndarray, path, dtype: str) -> None:
    """Serialise a float64 array of rank 2 or 3 as a tensor file of `dtype`;
    the payload is written after the header, never joined to it."""
    atomic_write_bytes(path, *_encode(values, path, dtype))


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

    pool = ThreadPoolExecutor(threads) if threads > 1 else None
    try:
        results = map(job, tasks) if pool is None else _ahead(pool, job, tasks, 2 * threads)
        first: dict[int, tuple] = {}
        for entry, shape, value in results:
            first_shape, first_path = first.setdefault(entry.timestep, (shape, entry.path))
            if shape != first_shape and not manifest.allow_ragged:
                raise MetaMismatch(
                    f"timestep {entry.timestep}: {entry.path} has shape {shape} "
                    f"but {first_path} has shape {first_shape}"
                )
            yield entry, value
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _ahead(pool: ThreadPoolExecutor, job, items, depth: int) -> Iterator:
    """job(item) for each item in order, with at most `depth` submitted ahead."""
    pending: deque = deque()
    for item in items:
        pending.append(pool.submit(job, item))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
