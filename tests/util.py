"""Shared test helpers: independent oracles and fixture builders.

The oracles here deliberately avoid the library's own code paths: the DFT
oracle is the quadratic-time definition evaluated by matrix product, the
high-pass gains come from circular bin distances in DFT layout rather
than the library's cached Hartley-layout grid, the Fisher oracle
materialises full scatter matrices, and the noise generator is rebuilt
from numpy by the documented keying rule.
The per-step HFR path does use the library's basis and gains, and sums the
whole map exactly rounded: it checks the chunked kernel's summation, not
its transform. The whole-map filter likewise uses the library's basis and
gains on the map scaled as a whole: it checks the chunked filter's
scaling, not its transform.
"""
from __future__ import annotations

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

import freqsel
from freqsel import (
    DatasetManifest,
    FeatureMap,
    FeatureMeta,
    ManifestEntry,
    extract_high_freq,
    save_manifest,
)
from freqsel.errors import (
    MalformedHeader,
    NonFiniteValue,
    RankError,
    UnsupportedDtype,
)
from freqsel import spectral
from freqsel.spectral import _gains, _hartley
from freqsel.tensor_io import _map_payloads, write_array


# --- quadratic-time DFT oracle ---------------------------------------------

def naive_dft2(x) -> np.ndarray:
    """O(H^2 W^2) DFT straight from the definition."""
    x = np.asarray(x, dtype=np.complex128)
    h, w = x.shape[-2], x.shape[-1]
    wh = np.exp(-2j * np.pi * np.outer(np.arange(h), np.arange(h)) / h)
    ww = np.exp(-2j * np.pi * np.outer(np.arange(w), np.arange(w)) / w)
    return np.einsum("uh,...hw,wv->...uv", wh, x, ww)


def reference_gains(h: int, w: int, cutoff: float) -> np.ndarray:
    """High-pass gains 1 - exp(-(dy^2 + dx^2) / (2 * cutoff^2)) in DFT layout
    (DC at [0, 0]), with dy, dx the circular bin distances from DC. Computed
    as -expm1(...): the 1 - exp form loses the small gains of a large cutoff."""
    dy = np.minimum(np.arange(h), h - np.arange(h))[:, np.newaxis]
    dx = np.minimum(np.arange(w), w - np.arange(w))[np.newaxis, :]
    return -np.expm1(-(dy * dy + dx * dx) / (2.0 * cutoff * cutoff))


def kernel_gains(h: int, w: int, cutoff: float) -> np.ndarray:
    """The library kernel's gains, measured: the DFT of its response to an
    impulse at [0, 0], in DFT layout (real to rounding, which is checked)."""
    impulse = np.zeros((1, h, w))
    impulse[0, 0, 0] = 1.0
    response = naive_dft2(extract_high_freq(make_map(impulse), cutoff).values[0])
    assert np.abs(response.imag).max() < 1e-12
    return response.real


def fourier_high(x, gains) -> np.ndarray:
    """Re(IDFT(gains * DFT(x))) per channel, both transforms from the definition."""
    h, w = x.shape[-2], x.shape[-1]
    # inverse DFT through the forward oracle: conj(DFT(conj(Y))) / (H*W)
    return np.conj(naive_dft2(np.conj(gains * naive_dft2(x)))).real / (h * w)


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    denom = np.linalg.norm(want.ravel())
    if denom == 0.0:
        return float(np.linalg.norm(got.ravel()))
    return float(np.linalg.norm((got - want).ravel()) / denom)


def energy(fmap: FeatureMap) -> float:
    """sum(values^2) of a map, exactly rounded."""
    return math.fsum(np.square(fmap.values).ravel())


# --- the documented noise keying rule ----------------------------------------

def keyed_generator(seed: int, *key: int) -> np.random.Generator:
    """numpy's PCG64 generator for `key` under `seed`, restated from the
    documented rule: ``SeedSequence(seed mod 2^64, spawn_key=key)``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed % 2**64, spawn_key=key)))


# --- the HFR path in plain steps ---------------------------------------------

def hfr_per_step(values, cutoff: float) -> float:
    """HFR with a fresh array per step: |x| for the pre-scale, the scaled map,
    Z = H_h @ X @ H_w, the power P = Z^2 and G^2 * P, each of the two sums
    over the whole map exactly rounded."""
    x = np.asarray(values, dtype=np.float64)
    scaled = np.ldexp(x, -int(np.frexp(np.max(np.abs(x)))[1]))
    h, w = x.shape[-2:]
    power = np.square(_hartley(h) @ scaled @ _hartley(w))
    high = np.square(_gains(h, w, cutoff)) * power
    return math.fsum(high.ravel()) / math.fsum(power.ravel())


def hfr_one_scale(values, cutoff: float) -> float:
    """HFR in the chunks the library uses (whole channels, as many as fit in
    ``spectral._PIECE`` elements), with the map scaled by one power of two,
    the one that puts its peak into [0.5, 1): each chunk's power summed
    over its channels by the library's ``einsum``, the sums of that P and
    G^2 * P by numpy, the chunks' partials by math.fsum. Per-chunk scaling
    must give these bits wherever the scaled values stay in the normal
    range."""
    x = np.asarray(values, dtype=np.float64)
    scaled = np.ldexp(x, -int(np.frexp(np.max(np.abs(x)))[1]))
    c, h, w = x.shape
    hy, hx, gains_sq = _hartley(h), _hartley(w), np.square(_gains(h, w, cutoff))
    step = max(1, spectral._PIECE // (h * w))
    high, total = [], []
    for start in range(0, c, step):
        z = hy @ scaled[start : start + step] @ hx
        power = np.einsum("chw,chw->hw", z, z)
        total.append(power.sum())
        high.append((power * gains_sq).sum())
    return math.fsum(high) / math.fsum(total)


def high_freq_whole_map(values, cutoff: float) -> np.ndarray:
    """The high-pass part H_h @ (G * Z) @ H_w, Z = H_h @ X @ H_w, of the
    whole map scaled by one power of two, the one that puts its peak into
    [0.5, 1), then unscaled. Per-chunk scaling must give these bits
    wherever the scaled values stay in the normal range."""
    x = np.asarray(values, dtype=np.float64)
    exponent = -math.frexp(float(np.max(np.abs(x))))[1]
    h, w = x.shape[-2:]
    hy, hx = _hartley(h), _hartley(w)
    z = hy @ np.ldexp(x, exponent) @ hx
    high = hy @ (z * _gains(h, w, cutoff)) @ hx
    return np.ldexp(high, -exponent)


# --- Fisher oracle via explicit scatter matrices ------------------------------

def fisher_scatter_oracle(embeddings, labels) -> tuple[float, float]:
    """(trace_between, trace_within) from materialised d x d scatters."""
    x = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    mu = x.mean(axis=0)
    d = x.shape[1]
    s_w = np.zeros((d, d))
    s_b = np.zeros((d, d))
    for cls in np.unique(labels):
        rows = x[labels == cls]
        mc = rows.mean(axis=0)
        centred = rows - mc
        s_w += centred.T @ centred
        offset = (mc - mu)[:, None]
        s_b += rows.shape[0] * (offset @ offset.T)
    return float(np.trace(s_b)), float(np.trace(s_w))


# --- child processes -----------------------------------------------------------

def child_env(**overrides):
    """os.environ plus `overrides`, with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    src = str(Path(freqsel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# Appended to a child's script: prints the process's own peak RSS in kB.
# VmHWM belongs to the address space the child built after exec; ru_maxrss
# may carry the peak of the parent it was forked from.
_PRINT_PEAK = """
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""

_CLI = """
import sys
from freqsel.cli import main
code = main(sys.argv[1:])
if code:
    sys.exit(code)
"""


def child_peak_rss_kb(script: str, *argv) -> int:
    """Run the Python `script` with `argv` in a child process, which must
    exit 0, then print its peak RSS; that VmHWM in kB."""
    proc = subprocess.run(
        [sys.executable, "-c", script + _PRINT_PEAK, *map(str, argv)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def cli_peak_rss_kb(*argv) -> int:
    """Run `freqsel *argv` in a child process, which must exit 0; its VmHWM in kB."""
    return child_peak_rss_kb(_CLI, *argv)


# --- dataset builders ----------------------------------------------------------

def map_loaded(manifest, fn, timesteps=None, threads: int = 1):
    """(entry, fn(map)) for the wanted entries of `manifest`, in manifest
    order, each map read whole through the load path
    ``tensor_io._map_payloads``, under its rules."""
    return _map_payloads(manifest, lambda payload: fn(payload.feature_map()), timesteps, threads)


def make_map(values, image_id: str = "m", timestep: int = 1, group: str = "") -> FeatureMap:
    return FeatureMap(np.asarray(values, dtype=np.float64), FeatureMeta(image_id, timestep, group))


def write_dataset(dirpath, maps, total_timesteps: int, **manifest_extra) -> Path:
    """Write maps + manifest.json into `dirpath`; returns the manifest path."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, fmap in enumerate(maps):
        name = f"t{fmap.meta.timestep:04d}_{i:04d}.npy"
        write_array(fmap.values, dirpath / name, fmap.meta.dtype)
        entries.append(
            ManifestEntry(
                name,
                fmap.meta.image_id,
                fmap.meta.timestep,
                fmap.meta.group,
                manifest_extra.get("labels", {}).get(i),
                None,
            )
        )
    manifest = DatasetManifest(total_timesteps, tuple(entries), manifest_extra.get("allow_ragged", False), dirpath)
    save_manifest(manifest, dirpath / "manifest.json")
    return dirpath / "manifest.json"


def write_series_text(path, timesteps, values) -> None:
    """A ``t,value`` series CSV, each float written with ``repr``."""
    Path(path).write_text("t,value\n" + "".join(f"{t},{float(v)!r}\n" for t, v in zip(timesteps, values)))


def write_exact_hfr_fixture(
    dirpath, timesteps, hfr_values, size: int = 128, frequency: int = 60, total_timesteps: int = 1000
) -> Path:
    """Dataset whose mean-HFR curve hits prescribed values almost exactly.

    Each map is  1 + b * sin(2 pi f (h + w) / N): all energy sits in the DC
    bin (gain exactly 0) and the two conjugate sinusoid bins (equal gain g).
    Solving hfr = g^2 * E_sin / (E_dc + E_sin) for the sinusoid amplitude
    gives b = sqrt(2 s / (1 - s)) with s = hfr / g^2, so the realised ratio
    matches the target to rounding error. Requires g^2 > max(hfr), which a
    128 grid with frequency 60 satisfies for the default cutoff.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    gain_sq = float(reference_gains(size, size, 30.0)[frequency, frequency]) ** 2
    assert gain_sq > max(hfr_values), "fixture grid too small for these ratios"
    hh = np.arange(size, dtype=np.float64)[:, None]
    ww = np.arange(size, dtype=np.float64)[None, :]
    pattern = np.sin(2.0 * np.pi * frequency * (hh + ww) / size)
    entries = []
    for t, r in zip(timesteps, hfr_values):
        s = r / gain_sq
        amp = np.sqrt(2.0 * s / (1.0 - s))
        name = f"t{t:04d}.npy"
        write_array((1.0 + amp * pattern)[np.newaxis], dirpath / name, "f64")
        entries.append(ManifestEntry(name, f"ref{t:04d}", t, "reference"))
    manifest = DatasetManifest(total_timesteps, tuple(entries), False, dirpath)
    save_manifest(manifest, dirpath / "manifest.json")
    return dirpath / "manifest.json"


# --- corrupted tensor-file corpus ----------------------------------------------

def _raw_npy(shape="(2, 3)", descr="'<f8'", fortran="False", payload=None, header_literal=None) -> bytes:
    body = (
        header_literal
        if header_literal is not None
        else "{'descr': %s, 'fortran_order': %s, 'shape': %s, }" % (descr, fortran, shape)
    )
    pad = -(10 + len(body)) % 64
    header = (body + " " * pad).encode("latin-1")
    if payload is None:
        payload = np.arange(6, dtype="<f8").tobytes()
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header + payload


def corrupt_corpus() -> list[tuple[str, bytes, type]]:
    """Exactly 22 malformed tensor files with their documented exception."""
    good = _raw_npy()
    return [
        ("bad_magic", b"\x00" + good[1:], MalformedHeader),
        ("bad_version", good[:6] + b"\x02\x00" + good[8:], MalformedHeader),
        ("header_past_eof", good[:8] + struct.pack("<H", 60000) + good[10:], MalformedHeader),
        ("non_ascii_header", good[:12] + b"\xff" + good[13:], MalformedHeader),
        ("header_not_dict", _raw_npy(header_literal="[1, 2, 3]"), MalformedHeader),
        ("header_unhashable_key", _raw_npy(header_literal="{[]: 1}"), MalformedHeader),
        (
            "header_set_key",
            _raw_npy(header_literal="{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), {1}: 1, }"),
            MalformedHeader,
        ),
        ("header_missing_key", _raw_npy(header_literal="{'descr': '<f8', 'shape': (2, 3), }"), MalformedHeader),
        (
            "header_extra_key",
            _raw_npy(header_literal="{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), 'pad': 1, }"),
            MalformedHeader,
        ),
        ("integer_dtype", _raw_npy(descr="'<i8'", payload=np.arange(6, dtype="<i8").tobytes()), UnsupportedDtype),
        ("big_endian_dtype", _raw_npy(descr="'>f8'", payload=np.arange(6, dtype=">f8").tobytes()), UnsupportedDtype),
        ("descr_not_string", _raw_npy(descr="7"), MalformedHeader),
        ("fortran_order_true", _raw_npy(fortran="True"), MalformedHeader),
        ("rank_1", _raw_npy(shape="(6,)"), RankError),
        ("rank_4", _raw_npy(shape="(1, 1, 2, 3)"), RankError),
        ("zero_dim", _raw_npy(shape="(0, 6)", payload=b""), MalformedHeader),
        ("shape_list", _raw_npy(shape="[2, 3]"), MalformedHeader),
        ("shape_float", _raw_npy(shape="(2.0, 3)"), MalformedHeader),
        ("payload_truncated", good[:-8], MalformedHeader),
        ("payload_oversized", good + b"\x00" * 8, MalformedHeader),
        ("nan_payload", _raw_npy(payload=np.array([1, 2, np.nan, 4, 5, 6], dtype="<f8").tobytes()), NonFiniteValue),
        ("inf_payload", _raw_npy(payload=np.array([1, 2, np.inf, 4, 5, 6], dtype="<f8").tobytes()), NonFiniteValue),
    ]
