"""average_hfr scores each tensor file chunk by chunk as it is read. These
tests hold that path to the in-memory one, hfr(read_tensor(...)): the same
bits, the same errors, at any thread count, in far less memory."""
import json
import math
import os
import re
import sys
import threading

import numpy as np
import pytest

from freqsel import HfrCurve, average_hfr, hfr, load_manifest, read_tensor, spectral
from freqsel.errors import MalformedHeader, NonFiniteValue, ZeroEnergyFeature
from freqsel.selection import curve_to_csv_text

from util import cli_peak_rss_kb, corrupt_corpus, hfr_one_scale

THREADS = (1, 2, 4)


def write_manifest(dirpath, arrays, ragged=False):
    """np.save each (timestep, array) as its own file and index them; the
    array's dtype and rank are the file's."""
    entries = []
    for i, (t, values) in enumerate(arrays):
        name = f"t{t:04d}_{i:04d}.npy"
        np.save(dirpath / name, values)
        entries.append({"path": name, "image_id": f"img{i:04d}", "timestep": t, "group": "g"})
    doc = {"total_timesteps": max(t for t, _ in arrays), "entries": entries}
    if ragged:
        doc["allow_ragged"] = True
    (dirpath / "manifest.json").write_text(json.dumps(doc))
    return load_manifest(dirpath / "manifest.json")


def in_memory_curve(manifest, cutoff):
    """The curve from whole maps: hfr(read_tensor(...)), means by math.fsum."""
    by_t: dict[int, list[float]] = {}
    for entry in manifest.entries:
        by_t.setdefault(entry.timestep, []).append(hfr(read_tensor(manifest.resolve(entry)), cutoff))
    steps = sorted(by_t)
    return HfrCurve(steps, [math.fsum(by_t[t]) / len(by_t[t]) for t in steps], [len(by_t[t]) for t in steps], cutoff)


def assert_streamed_equals_in_memory(manifest, cutoff=30.0):
    want = in_memory_curve(manifest, cutoff)
    for threads in THREADS:
        got = average_hfr(manifest, cutoff, threads=threads)
        assert got == want, threads
        assert curve_to_csv_text(got) == curve_to_csv_text(want)


def normal(shape, seed, descr):
    return np.random.default_rng(seed).normal(size=shape).astype(descr)


# --- the same bits -----------------------------------------------------------------

# (40, 64, 64): chunks of 16 channels and a ragged one of 8; (3, 300, 700):
# each channel above a chunk; (96, 96) and (600, 300): rank-2 files
@pytest.mark.parametrize("descr", ["<f4", "<f8"])
@pytest.mark.parametrize("shape", [(40, 64, 64), (3, 300, 700), (96, 96), (600, 300), (1, 1, 1)])
def test_streamed_curve_equals_in_memory(tmp_path, descr, shape):
    arrays = [(t, normal(shape, 10 * t + i, descr)) for t in (1, 2) for i in range(3)]
    assert_streamed_equals_in_memory(write_manifest(tmp_path, arrays), cutoff=12.5)


def test_ragged_manifest_of_mixed_dtypes_and_shapes_on_threads(tmp_path):
    shapes = [(40, 64, 64), (64, 64), (3, 17, 29), (5, 96, 96), (1, 300, 700), (33, 32, 32)]
    arrays = [
        (t, normal(shapes[(t + i) % len(shapes)], 7 * t + i, "<f4" if (t + i) % 2 else "<f8"))
        for t in (1, 2, 3)
        for i in range(5)
    ]
    assert_streamed_equals_in_memory(write_manifest(tmp_path, arrays, ragged=True))


@pytest.mark.parametrize("descr", ["<f4", "<f8"])
def test_chunks_scaled_apart_keep_the_one_scale_bits(tmp_path, descr):
    # three runs of 32 channels, two chunks each, whose peaks lie 2^40
    # apart: each chunk is scaled by its own power of two, and the partials
    # are brought back exactly
    values = normal((96, 64, 64), 3, "<f8")
    values[:32] *= 2.0**-40
    values[64:] *= 2.0**40
    values = values.astype(descr)
    manifest = write_manifest(tmp_path, [(1, values)])
    want = hfr_one_scale(values, 30.0)
    assert hfr(read_tensor(manifest.resolve(manifest.entries[0]))) == want
    assert_streamed_equals_in_memory(manifest)


def test_f32_subnormals_beside_the_f32_peak_are_scaled_in_float64(tmp_path):
    # 1e-40 is an f32 subnormal; scaled by the peak's 2^-128 in float32 it
    # would flush to 0. In the HFR its energy lies far below the rounding
    # of the peak's transform, so the scaled chunk is checked as well.
    values = np.random.default_rng(4).normal(size=(2, 64, 64)).astype("<f4")
    values[0] *= np.float32(1e-40)
    values[1, 0, 0] = 3e38
    manifest = write_manifest(tmp_path, [(1, values)])
    assert 0.0 < average_hfr(manifest).mean_hfr[0] < 1.0
    assert_streamed_equals_in_memory(manifest)
    scaled = np.empty(values.shape)
    exponent = spectral._scale(values, 3e38, scaled)
    assert exponent == -128
    assert np.array_equal(scaled, np.ldexp(values.astype(np.float64), -128))
    assert np.count_nonzero(scaled[0]) == values[0].size


# --- the same errors -----------------------------------------------------------------

def assert_same_error(manifest, path):
    """average_hfr on `manifest` raises what read_tensor(path) raises, the
    path named once, at every thread count."""
    with pytest.raises(Exception) as want:
        read_tensor(path)
    for threads in THREADS:
        with pytest.raises(type(want.value)) as got:
            average_hfr(manifest, threads=threads)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert str(got.value).count(str(path)) == 1


@pytest.mark.parametrize("name,raw,expected", corrupt_corpus(), ids=[c[0] for c in corrupt_corpus()])
def test_streamed_read_rejects_the_corrupted_files_as_read_tensor_does(tmp_path, name, raw, expected):
    manifest = write_manifest(tmp_path, [(1, np.ones((2, 4, 4)))])
    path = manifest.resolve(manifest.entries[0])
    path.write_bytes(raw)
    with pytest.raises(expected):
        read_tensor(path)
    assert_same_error(manifest, path)


def large_manifest(tmp_path, descr):
    # over 2 MiB, and not a whole number of chunks or of read_tensor's pieces
    values = normal((3, 300, 700), 5, descr)
    return write_manifest(tmp_path, [(1, values)]), values


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("descr", ["<f4", "<f8"])
def test_non_finite_value_in_the_last_piece_is_the_readers_error(tmp_path, descr, bad):
    manifest, values = large_manifest(tmp_path, descr)
    path = manifest.resolve(manifest.entries[0])
    values.flat[-1] = bad
    np.save(path, values)
    assert_same_error(manifest, path)
    with pytest.raises(NonFiniteValue, match=re.escape(f"{path}: payload contains NaN or Inf")):
        average_hfr(manifest)


@pytest.mark.parametrize("size_on_record", ["true", "stale"])
@pytest.mark.parametrize("delta", [-1, 1], ids=["one_short", "one_long"])
@pytest.mark.parametrize("descr", ["<f4", "<f8"])
def test_a_file_that_changed_after_the_manifest_loaded_is_the_readers_error(
    tmp_path, monkeypatch, descr, delta, size_on_record
):
    manifest, values = large_manifest(tmp_path, descr)
    path = manifest.resolve(manifest.entries[0])
    raw = path.read_bytes()
    itemsize = values.itemsize
    path.write_bytes(raw[:-itemsize] if delta < 0 else raw + bytes(itemsize))
    if size_on_record == "stale":
        # the size on record is the old one: the reads themselves must find
        # the missing value or the extra one
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (len(raw),) + (0,) * 3))
    want = f"{path}: payload is {values.nbytes + delta * itemsize} bytes, shape {values.shape} needs {values.nbytes}"
    with pytest.raises(MalformedHeader, match=re.escape(want)):
        read_tensor(path)
    assert_same_error(manifest, path)


def test_zero_energy_names_the_file_the_image_and_the_timestep(tmp_path):
    manifest = write_manifest(tmp_path, [(1, np.ones((2, 8, 8))), (3, np.ones((2, 8, 8))), (3, np.zeros((2, 8, 8), "<f4"))])
    path = manifest.resolve(manifest.entries[2])
    for threads in THREADS:
        with pytest.raises(ZeroEnergyFeature) as err:
            average_hfr(manifest, threads=threads)
        assert str(err.value) == f"{path}: zero-energy feature map (image 'img0002', t=3)"



def test_average_hfr_scores_each_open_file_through_hfr(tmp_path, monkeypatch):
    # every map is scored inside a call of spectral.hfr, where a wrapper on
    # that name, such as a tracing span, sees it
    manifest = write_manifest(tmp_path, [(t, normal((3, 8, 8), t + i, "<f4")) for t in (1, 2) for i in range(3)])
    want = average_hfr(manifest)
    real = spectral.hfr
    for threads in THREADS:
        seen = []
        monkeypatch.setattr(spectral, "hfr", lambda fmap, cutoff: seen.append(fmap.meta.image_id) or real(fmap, cutoff))
        assert average_hfr(manifest, threads=threads) == want
        assert sorted(seen) == [e.image_id for e in manifest.entries], threads

# --- in far less memory ----------------------------------------------------------------

def hfr_threads_2_peak_kb(tmp_path, channels):
    """VmHWM of `hfr --threads 2` on four <f4 maps of channels x 64 x 64, in kB."""
    arrays = [(1 + i % 2, normal((channels, 64, 64), i, "<f4")) for i in range(4)]
    write_manifest(tmp_path, arrays)
    return cli_peak_rss_kb("hfr", "--threads", "2", "--manifest", tmp_path / "manifest.json",
                           "--out", tmp_path / "curve.csv")


# a scoring thread's scratch for 64x64 channels: a chunk of 2^16 float64
# elements (512 KiB), half a chunk (256 KiB) that also stages <f4 values,
# and one channel's folded power (32 KiB)
SCRATCH_64X64 = 1.5 * 8 * 2**16 + 8 * 64 * 64


def test_a_scoring_thread_holds_a_half_mib_chunk_not_a_map(tmp_path):
    manifest = write_manifest(tmp_path, [(1, normal((320, 64, 64), 0, "<f4"))])
    held = []

    def score():
        average_hfr(manifest)
        held.append(sum(b.nbytes for b in spectral._scratch.bufs))

    thread = threading.Thread(target=score)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert held and held[0] <= SCRATCH_64X64, held


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_hfr_threads_hold_no_map(tmp_path):
    # each of the two scoring threads holds its scratch, not a map; the
    # idle child runs the same command, with the same code and pool, on
    # one-channel maps, whose scratch is 96 KiB. The bound is the two
    # threads' scratch and a quarter more for the allocator; 1 MiB chunks
    # needed about 2.9 MB.
    bound_kb = 2 * 1.25 * SCRATCH_64X64 / 1024
    (tmp_path / "idle").mkdir()
    (tmp_path / "scoring").mkdir()
    idle = hfr_threads_2_peak_kb(tmp_path / "idle", 1)
    scoring = hfr_threads_2_peak_kb(tmp_path / "scoring", 320)
    assert scoring - idle < bound_kb, (idle, scoring)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_hfr_peak_rss_does_not_grow_with_the_channels(tmp_path):
    (tmp_path / "small").mkdir()
    (tmp_path / "large").mkdir()
    small = hfr_threads_2_peak_kb(tmp_path / "small", 64)
    large = hfr_threads_2_peak_kb(tmp_path / "large", 512)
    # one extra channel of a float64 map is 32 kB; 448 of them would be 14 MB
    assert large - small < 1024, (small, large)
