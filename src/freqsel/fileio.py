"""Text input and atomic file output, without numpy.

Manifests and CSVs are UTF-8; a leading byte-order mark is skipped. The
curve, series and schedule CSVs share one dialect: a fixed header line,
then unquoted comma-separated fields; blank lines are ignored.

Every file is written through a sibling temp file and a rename. This
module imports nothing that needs numpy, so a command that only reads a
CSV and writes a report (``select --curve``) starts without loading it.
"""
from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Sequence

from .errors import FreqselError, IoFailure

__all__ = [
    "read_text",
    "read_csv",
    "csv_text",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
]


def read_text(path, malformed: type[FreqselError]) -> str:
    """The UTF-8 text of a file, without a leading byte-order mark: IoFailure
    if the OS refuses, `malformed` if it does not decode."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise IoFailure(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise malformed(f"{p}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def read_csv(
    path, header: Sequence[str], types: Sequence[type], malformed: type[FreqselError]
) -> list[tuple[int, tuple]]:
    """(file line number, converted fields) for each non-blank row of a CSV.

    The first line must be `header`; every other non-blank line must have
    one field per entry of `types`, each converted by calling its type.
    """
    lines = read_text(path, malformed).splitlines()
    head = ",".join(header)
    if not lines or lines[0].strip() != head:
        raise malformed(f"{path}: first line must be the header {head!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(types):
            raise malformed(f"{path}: line {lineno} must have exactly {len(types)} fields")
        try:
            rows.append((lineno, tuple(kind(f) for kind, f in zip(types, fields))))
        except ValueError as exc:
            raise malformed(f"{path}: line {lineno} is not numeric: {line!r}") from exc
    return rows


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header line, then one line of comma-joined ``repr`` per row of Python scalars."""
    lines = [",".join(header)]
    lines += [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def atomic_write_bytes(path, *chunks) -> None:
    """Write the bytes-like `chunks` in order via a sibling temp file and a rename.

    Readers never see a partial file, and a process crash never leaves one.
    Nothing is fsynced, so after a power loss the file may be empty or
    missing. The temp file is created with mode 0o666, so the kernel applies
    the umask (and any default ACL) as it does to any new file; reading the
    umask instead would mean setting it, for every thread, for a moment.
    """
    p = Path(path)
    tmp = p.parent / f"{p.name}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(tmp, p)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {p}: {exc}") from exc


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path, doc) -> None:
    """Write `doc` as indented strict JSON; a NaN or Inf in it is a ValueError."""
    atomic_write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")
