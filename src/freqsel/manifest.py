"""Dataset manifest: the JSON index binding tensor files to dataset identity.

::

    {"total_timesteps": int,
     "entries": [{"path": str, "image_id": str, "timestep": int,
                  "group": str, "label": int|null, "accuracy": float|null}]}

An optional ``"allow_ragged": true`` lets tensors at one timestep differ
in shape. Relative entry paths resolve against the manifest's own
directory. :func:`load_manifest` checks the schema and that every entry's
file exists; each fault, a ``ManifestSchemaError``, a ``MissingFile`` or
an ``IoFailure`` when the OS refuses the read, names the manifest. This
module imports nothing that needs numpy, so a command checks its dataset
before any array module loads; the tensors themselves are read by
:mod:`freqsel.tensor_io`. Its records are ``NamedTuple`` classes,
not dataclasses: ``dataclasses`` imports ``inspect`` and ``ast``, which would
cost every process about 12 ms before it reads its first file. Derive a
changed record with ``_replace``.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .errors import ManifestSchemaError, MissingFile
from .fileio import atomic_write_json, read_text

__all__ = ["ManifestEntry", "DatasetManifest", "load_manifest", "save_manifest"]


class ManifestEntry(NamedTuple):
    path: str
    image_id: str
    timestep: int
    group: str
    label: int | None = None
    accuracy: float | None = None


class DatasetManifest(NamedTuple):
    total_timesteps: int
    entries: tuple[ManifestEntry, ...]
    allow_ragged: bool = False
    root: Path = Path()

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
        "entries": [e._asdict() for e in manifest.entries],
    }
    if manifest.allow_ragged:
        doc["allow_ragged"] = True
    atomic_write_json(path, doc)
