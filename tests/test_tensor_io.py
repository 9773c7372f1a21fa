import contextlib
import io
import json
import math
import os
import re
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqsel
from freqsel import (
    DatasetManifest,
    FeatureMap,
    FeatureMeta,
    ManifestEntry,
    load_manifest,
    read_tensor,
    save_manifest,
)
from freqsel.errors import (
    EmptyTimestep,
    IoFailure,
    MalformedHeader,
    ManifestSchemaError,
    MetaMismatch,
    MissingFile,
    NonFiniteValue,
    RankError,
    ShapeMismatch,
    UnsupportedDtype,
    ZeroEnergyFeature,
)
from freqsel.fileio import atomic_write_bytes, atomic_write_text
from freqsel import tensor_io
from freqsel.selection import average_hfr
from freqsel.spectral import hfr
from freqsel.tensor_io import _PIECE, write_array, write_pieces

from util import _raw_npy, corrupt_corpus, make_map, map_loaded, write_dataset


# --- FeatureMap type ---------------------------------------------------------

def test_map_promotes_rank2_and_freezes():
    fmap = FeatureMap(np.ones((4, 5)))
    assert fmap.values.shape == (1, 4, 5)
    assert fmap.channels == 1 and fmap.height == 4 and fmap.width == 5
    with pytest.raises(ValueError):
        fmap.values[0, 0, 0] = 2.0


def test_map_copies_input():
    src = np.zeros((2, 3, 3))
    fmap = FeatureMap(src)
    src[0, 0, 0] = 99.0
    assert fmap.values[0, 0, 0] == 0.0


@pytest.mark.parametrize("dtype, shape", [("f32", (2, 5, 7)), ("f64", (2, 5, 7)), ("f64", (5, 7))])
def test_read_tensor_returns_a_read_only_array(tmp_path, dtype, shape):
    path = tmp_path / "x.npy"
    values = np.random.default_rng(1).normal(size=shape)
    write_array(values, path, dtype)
    fmap = read_tensor(path)
    assert fmap.values.shape == (1,) * (3 - len(shape)) + shape and fmap.values.dtype == np.float64
    assert fmap.values.flags.c_contiguous
    # neither the map's array nor any array it views can be written
    arr = fmap.values
    while isinstance(arr, np.ndarray):
        assert not arr.flags.writeable
        arr = arr.base
    with pytest.raises(ValueError):
        fmap.values[0, 0, 0] = 1.0
    assert not np.shares_memory(fmap.values, read_tensor(path).values)


def test_public_constructor_copies_even_a_read_only_array():
    # the caller still owns a read-only array and may make it writable again
    src = np.zeros((2, 3, 3))
    src.setflags(write=False)
    fmap = FeatureMap(src)
    assert not np.shares_memory(fmap.values, src)
    src.setflags(write=True)
    src[0, 0, 0] = 99.0
    assert fmap.values[0, 0, 0] == 0.0


def test_map_rank_and_dims_validated():
    with pytest.raises(RankError):
        FeatureMap(np.zeros(5))
    with pytest.raises(RankError):
        FeatureMap(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ShapeMismatch):
        FeatureMap(np.zeros((0, 4, 4)))


def test_meta_validated():
    with pytest.raises(ValueError):
        FeatureMeta(timestep=0)
    with pytest.raises(ValueError):
        FeatureMeta(dtype="f16")


# --- tensor round trips --------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=4),
    h=st.integers(min_value=1, max_value=9),
    w=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_f64_roundtrip_bitwise(tmp_path_factory, c, h, w, seed):
    path = tmp_path_factory.mktemp("rt") / "x.npy"
    values = np.random.default_rng(seed).normal(size=(c, h, w))
    write_array(values, path, "f64")
    back = read_tensor(path)
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, values)
    assert back.meta.dtype == "f64"


def test_f32_roundtrip_exact_after_widening(tmp_path):
    values = np.random.default_rng(0).normal(size=(2, 6, 6)).astype(np.float32)
    write_array(values.astype(np.float64), tmp_path / "x.npy", dtype="f32")
    back = read_tensor(tmp_path / "x.npy")
    assert back.meta.dtype == "f32"
    # f32 -> f64 widening is exact, so the payload survives bit-for-bit
    assert np.array_equal(back.values.astype(np.float32), values)
    again = tmp_path / "y.npy"
    write_array(back.values, again, back.meta.dtype)
    assert (tmp_path / "x.npy").read_bytes() == again.read_bytes()


def test_rank2_file_promoted(tmp_path):
    arr = np.arange(12, dtype="<f8").reshape(3, 4)
    np.save(tmp_path / "flat.npy", arr)
    fmap = read_tensor(tmp_path / "flat.npy")
    assert fmap.values.shape == (1, 3, 4)
    assert np.array_equal(fmap.values[0], arr)


def test_header_preamble_aligned(tmp_path):
    for shape in [(1, 1, 1), (3, 17, 23), (10, 100, 100)]:
        path = tmp_path / "a.npy"
        write_array(np.zeros(shape), path, "f64")
        raw = path.read_bytes()
        assert raw[:6] == b"\x93NUMPY" and raw[6:8] == b"\x01\x00"
        (hlen,) = struct.unpack("<H", raw[8:10])
        assert (10 + hlen) % 64 == 0
        header = raw[10 : 10 + hlen].decode("ascii")
        assert header.endswith("\n")
        assert header[:-1].rstrip(" ").endswith("}")


_NPY_SHAPES = [(1, 1), (3, 5), (1, 1, 1), (2, 17, 23), (4, 64, 64), (3, 70001), (123456, 1, 1)]


@pytest.mark.parametrize("dtype, descr", [("f32", "<f4"), ("f64", "<f8")])
@pytest.mark.parametrize("shape", _NPY_SHAPES, ids=[str(s) for s in _NPY_SHAPES])
def test_written_files_equal_np_save(tmp_path, shape, dtype, descr):
    values = np.random.default_rng(math.prod(shape)).normal(size=shape)
    want = io.BytesIO()
    np.save(want, values.astype(descr))
    write_array(values, tmp_path / "whole.npy", dtype)
    assert (tmp_path / "whole.npy").read_bytes() == want.getvalue()
    # uneven pieces, some spanning a slice boundary, some inside one slice
    flat = values.reshape(-1)
    cuts = sorted({0, flat.size} | {c for c in (1, 1000, _PIECE + 3, 2 * _PIECE + 7) if c < flat.size})
    pieces = [flat[a:b] for a, b in zip(cuts, cuts[1:])]
    # a shape of numpy integers, as a caller may pass to oracle_features
    write_pieces(pieces, tuple(np.array(shape)), tmp_path / "pieces.npy", dtype)
    assert (tmp_path / "pieces.npy").read_bytes() == want.getvalue()


def test_a_header_without_the_newline_still_loads(tmp_path):
    # files written before the header ended with a newline pad with spaces only
    raw = _raw_npy()
    (hlen,) = struct.unpack("<H", raw[8:10])
    assert raw[10 + hlen - 1 : 10 + hlen] == b" "
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "t0001_0000.npy").write_bytes(raw)
    entry = ManifestEntry("t0001_0000.npy", "m", 1, "")
    save_manifest(DatasetManifest(1, (entry,), False, tmp_path / "old"), tmp_path / "old" / "manifest.json")
    values = np.arange(6.0).reshape(1, 2, 3)
    assert np.array_equal(read_tensor(tmp_path / "old" / "t0001_0000.npy").values, values)
    new = write_dataset(tmp_path / "new", [make_map(values)], 1)
    old_curve = average_hfr(load_manifest(tmp_path / "old" / "manifest.json"), 0.5)
    assert old_curve == average_hfr(load_manifest(new), 0.5)


def test_interop_with_numpy_both_directions(tmp_path):
    values = np.random.default_rng(1).normal(size=(3, 5, 7))
    write_array(values, tmp_path / "ours.npy", "f64")
    assert np.array_equal(np.load(tmp_path / "ours.npy"), values)
    np.save(tmp_path / "theirs.npy", values)
    assert np.array_equal(read_tensor(tmp_path / "theirs.npy").values, values)
    np.save(tmp_path / "theirs32.npy", values.astype(np.float32))
    got = read_tensor(tmp_path / "theirs32.npy")
    assert got.meta.dtype == "f32"
    assert np.array_equal(got.values, values.astype(np.float32).astype(np.float64))


def test_write_rejects_nonfinite_and_bad_dtype(tmp_path):
    bad = np.ones((1, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        write_array(bad, tmp_path / "bad.npy", "f64")
    assert not (tmp_path / "bad.npy").exists()
    with pytest.raises(freqsel.errors.UnsupportedDtype):
        write_array(np.ones((1, 2, 2)), tmp_path / "bad.npy", "f16")


def test_piecewise_writer_checks_each_piece_and_leaves_no_file_on_a_fault(tmp_path):
    path = tmp_path / "x.npy"
    write_pieces([np.arange(3.0), np.arange(3.0, 8.0)], (2, 4), path, "f32")
    assert np.array_equal(read_tensor(path).values, np.arange(8.0).reshape(1, 2, 4))
    path.unlink()
    # a value beyond the f32 range in the last piece, after two full ones
    pieces = [np.ones(_PIECE), np.ones(_PIECE), np.full(10, 1e39)]
    with pytest.raises(NonFiniteValue, match=re.escape(str(path))):
        write_pieces(pieces, (1, 2, _PIECE + 5), path, "f32")
    # pieces that fall short of the shape, or run past it
    for pieces in ([np.ones(7)], [np.ones(6), np.ones(3)]):
        with pytest.raises(ShapeMismatch, match=re.escape(str(path))):
            write_pieces(pieces, (2, 4), path, "f64")

    # the shape rule is checked before a piece is asked for
    def untouchable():
        raise AssertionError("a piece was asked for")
        yield

    with pytest.raises(RankError):
        write_pieces(untouchable(), (8,), path, "f64")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "shape, error", [((5,), RankError), ((1, 1, 2, 2), RankError), ((0, 3), ShapeMismatch)],
    ids=["rank_1", "rank_4", "zero_dim"],
)
def test_write_rejects_a_shape_the_reader_rejects(tmp_path, shape, error):
    path = tmp_path / "bad.npy"
    with pytest.raises(error, match=re.escape(str(path))):
        write_array(np.ones(shape), path, "f64")
    assert list(tmp_path.iterdir()) == []


def test_read_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_tensor(tmp_path / "nope.npy")


def test_overwrite_is_atomic_replace(tmp_path):
    path = tmp_path / "x.npy"
    write_array(np.ones((1, 2, 2)), path, "f64")
    write_array(np.zeros((1, 2, 2)), path, "f64")
    assert np.array_equal(read_tensor(path).values, np.zeros((1, 2, 2)))
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_writes_honour_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_array(np.ones((1, 2, 2)), tmp_path / "x.npy", "f32")
        atomic_write_text(tmp_path / "x.txt", "text\n")
        save_manifest(DatasetManifest(1, (ManifestEntry("x.npy", "x", 1, ""),), False, tmp_path), tmp_path / "m.json")
    finally:
        os.umask(old)
    for name in ("x.npy", "x.txt", "m.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask, name


def test_atomic_write_joins_chunks_and_leaves_no_temp_on_failure(tmp_path):
    path = tmp_path / "x.bin"
    atomic_write_bytes(path, [b"ab", memoryview(b"cd"), np.arange(2, dtype="<u1")])
    assert path.read_bytes() == b"abcd\x00\x01"
    with pytest.raises(TypeError):
        atomic_write_bytes(path, [b"new", 3])
    assert path.read_bytes() == b"abcd\x00\x01"

    def failing():
        yield b"new"
        raise NonFiniteValue("made after the first chunk")

    with pytest.raises(NonFiniteValue):
        atomic_write_bytes(path, failing())
    assert path.read_bytes() == b"abcd\x00\x01"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.bin"]


@pytest.mark.parametrize("name,raw,expected", corrupt_corpus(), ids=[c[0] for c in corrupt_corpus()])
def test_corrupted_files_rejected(tmp_path, name, raw, expected):
    path = tmp_path / f"{name}.npy"
    path.write_bytes(raw)
    with pytest.raises(expected) as err:
        read_tensor(path)
    # the path is put in front once, by read_tensor alone
    assert str(err.value).startswith(f"{path}: ")
    assert str(err.value).count(str(path)) == 1


# --- payloads read in pieces ---------------------------------------------------------
# 3*300*700 values: over 2 MiB in either dtype, and not a whole number of the
# reader's pieces, so the last piece is a short one

_LARGE = (3, 300, 700)


def _large_file(tmp_path, descr, name="big.npy"):
    values = np.random.default_rng(5).normal(size=_LARGE).astype(descr)
    # signed zeros and, in either dtype, subnormals survive the read
    values.flat[::9973] = -0.0
    values.flat[1::9973] = np.finfo(descr).smallest_subnormal
    path = tmp_path / name
    np.save(path, values)
    assert values.nbytes >= 2 << 20 and path.stat().st_size > values.nbytes
    return path, values


@pytest.mark.parametrize("descr", ["<f4", "<f8"])
def test_large_payload_matches_numpy_bit_for_bit(tmp_path, descr):
    path, values = _large_file(tmp_path, descr)
    got = read_tensor(path).values
    want = np.load(path).astype(np.float64)
    assert got.shape == _LARGE and got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("descr", ["<f4", "<f8"])
def test_non_finite_value_in_the_last_piece_names_the_file(tmp_path, descr, bad):
    path, values = _large_file(tmp_path, descr)
    values.flat[-1] = bad
    np.save(path, values)
    with pytest.raises(NonFiniteValue, match=re.escape(f"{path}: payload contains NaN or Inf")):
        read_tensor(path)


@pytest.mark.parametrize("size_on_record", ["true", "stale"])
@pytest.mark.parametrize("delta", [-1, 1], ids=["one_short", "one_long"])
@pytest.mark.parametrize("descr", ["<f4", "<f8"])
def test_large_payload_of_wrong_length_names_the_file(tmp_path, monkeypatch, descr, delta, size_on_record):
    path, values = _large_file(tmp_path, descr)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] if delta < 0 else raw + b"\x00")
    if size_on_record == "stale":
        # the file changed after its size was taken: the reader must see
        # the missing or extra byte by reading, not by its size on record
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((0,) * 6 + (len(raw),) + (0,) * 3))
    want = f"{path}: payload is {values.nbytes + delta} bytes, shape {_LARGE} needs {values.nbytes}"
    with pytest.raises(MalformedHeader, match=re.escape(want)):
        read_tensor(path)


def test_a_shared_header_is_parsed_once_and_each_error_names_its_own_file(tmp_path):
    tensor_io._parse_header.cache_clear()
    good, short = tmp_path / "good.npy", tmp_path / "short.npy"
    write_array(np.ones((2, 3, 4)), good, "f64")
    short.write_bytes(good.read_bytes()[:-8])
    assert np.array_equal(read_tensor(good).values, np.ones((2, 3, 4)))
    with pytest.raises(MalformedHeader) as err:
        read_tensor(short)
    assert str(err.value) == f"{short}: payload is 184 bytes, shape (2, 3, 4) needs 192"
    assert tensor_io._parse_header.cache_info().hits == 1
    # a header that fails is not remembered with the first file's path
    for name in ("a.npy", "b.npy"):
        (tmp_path / name).write_bytes(good.read_bytes().replace(b"'<f8'", b"'<i8'"))
        with pytest.raises(UnsupportedDtype) as err:
            read_tensor(tmp_path / name)
        assert str(err.value) == f"{tmp_path / name}: dtype '<i8' not supported (need '<f4' or '<f8')"


# --- text files ----------------------------------------------------------------------

@pytest.mark.parametrize("reader", [freqsel.read_curve_csv, freqsel.read_series_csv, freqsel.load_schedule_csv])
def test_missing_csv_is_io_failure_naming_the_file(tmp_path, reader):
    with pytest.raises(IoFailure, match="ghost.csv"):
        reader(tmp_path / "ghost.csv")


# --- manifests ---------------------------------------------------------------------

def _manifest_doc(tmp_path, **overrides):
    write_array(np.ones((1, 2, 2)), tmp_path / "a.npy", "f64")
    doc = {
        "total_timesteps": 10,
        "entries": [
            {"path": "a.npy", "image_id": "a", "timestep": 3, "group": "g", "label": None, "accuracy": None}
        ],
    }
    doc.update(overrides)
    return doc


def _write_doc(tmp_path, doc):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


def test_manifest_roundtrip(tmp_path):
    maps = [make_map(np.full((1, 3, 3), i + 1.0), f"img{i}", t) for i, t in enumerate([1, 1, 5])]
    manifest_path = write_dataset(tmp_path, maps, total_timesteps=5)
    manifest = load_manifest(manifest_path)
    assert manifest.total_timesteps == 5
    assert manifest.timesteps() == (1, 5)
    assert [e.image_id for e in manifest.entries if e.timestep == 1] == ["img0", "img1"]
    loaded = [fmap for _, fmap in map_loaded(manifest, lambda fmap: fmap)]
    assert [m.meta.timestep for m in loaded] == [1, 1, 5]
    assert loaded[2].values[0, 0, 0] == 3.0
    # paths resolve relative to the manifest directory
    assert manifest.resolve(manifest.entries[0]).parent == tmp_path


def test_map_loaded_single_timestep(tmp_path):
    maps = [make_map(np.ones((1, 2, 2)), f"i{t}", t) for t in (1, 2, 2, 3)]
    manifest = load_manifest(write_dataset(tmp_path, maps, 3))
    got = [image_id for _, image_id in map_loaded(manifest, lambda m: m.meta.image_id, (2,))]
    assert got == ["i2", "i2"]
    with pytest.raises(EmptyTimestep, match="no feature maps at timestep 4"):
        next(map_loaded(manifest, lambda m: m, (2, 4)))


def test_map_loaded_reports_a_file_gone_since_the_manifest_was_loaded(tmp_path):
    manifest = _numbered_dataset(tmp_path, n=3)
    gone = manifest.resolve(manifest.entries[1])
    gone.unlink()
    results = map_loaded(manifest, lambda fmap: fmap.meta.image_id)
    assert next(results)[1] == "i0"
    with pytest.raises(MissingFile) as err:
        next(results)
    assert str(err.value) == f"entry 'i1' points at missing file {gone}"


# --- the ordered load path -------------------------------------------------------

def _numbered_dataset(tmp_path, n=16):
    maps = [make_map(np.full((1, 4, 4), i + 1.0), f"i{i}", 1) for i in range(n)]
    return load_manifest(write_dataset(tmp_path, maps, 1))


def _recorder(fail_at=None):
    """fn for map_loaded: records (entry index, thread id), fails at `fail_at`."""
    calls, lock = [], threading.Lock()

    def fn(fmap):
        index = int(fmap.meta.image_id[1:])
        with lock:
            calls.append((index, threading.get_ident()))
        if index == fail_at:
            raise ZeroEnergyFeature(f"map {index} refused")
        return index

    return fn, calls


def test_map_loaded_yields_in_manifest_order_on_the_caller_thread(tmp_path):
    manifest = _numbered_dataset(tmp_path)
    for threads in (1, 3):
        fn, calls = _recorder()
        got = [(e.image_id, value) for e, value in map_loaded(manifest, fn, threads=threads)]
        assert got == [(f"i{i}", i) for i in range(16)]
        if threads == 1:
            assert {ident for _, ident in calls} == {threading.get_ident()}


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("stop", ["error", "close"])
def test_map_loaded_stops_its_workers_and_the_window(tmp_path, threads, stop):
    manifest = _numbered_dataset(tmp_path)
    k = 3
    before = set(threading.enumerate())
    fn, calls = _recorder(fail_at=k if stop == "error" else None)
    results = map_loaded(manifest, fn, threads=threads)
    if stop == "error":
        with pytest.raises(ZeroEnergyFeature) as err:
            for _ in results:
                pass
        # the error names the file the failing map came from
        assert str(err.value) == f"{manifest.resolve(manifest.entries[k])}: map {k} refused"
    else:
        for _ in range(k + 1):
            next(results)
        results.close()
    assert set(threading.enumerate()) == before
    assert max(index for index, _ in calls) <= k + 2 * threads


def test_in_order_undoes_the_later_jobs_that_finished_after_a_fault():
    # job 2 fails once job 3 has finished on the other worker; the fault
    # is job 2's, every later job that finished is undone, and no item past
    # the window of 2 * 2 threads is taken
    k, depth = 2, 4
    pulled, finished, undone, lock = [], [], [], threading.Lock()
    later_done = threading.Event()

    def items():
        for x in range(10):
            pulled.append(x)
            yield x

    def job(x):
        if x == k:
            assert later_done.wait(timeout=30)
            raise ValueError(f"job {x}")
        with lock:
            finished.append(x)
        if x == k + 1:
            later_done.set()
        return x

    before = set(threading.enumerate())
    got = []
    with pytest.raises(ValueError, match=f"^job {k}$"):
        for value in tensor_io._in_order(job, items(), 2, undone.append):
            got.append(value)
    assert set(threading.enumerate()) == before
    assert got == list(range(k))
    assert pulled == list(range(k + depth))
    assert k + 1 in undone
    assert sorted(undone) == sorted(x for x in finished if x > k)


def test_in_order_runs_jobs_on_the_caller_and_a_helper_at_once():
    # each job waits for the other at the barrier, so the run finishes only
    # if two threads run them at once: the caller and one helper
    barrier, ran, lock = threading.Barrier(2, timeout=30), [], threading.Lock()

    def job(x):
        barrier.wait()
        with lock:
            ran.append(threading.current_thread())
        return x

    before = set(threading.enumerate())
    assert list(tensor_io._in_order(job, [0, 1], 2)) == [0, 1]
    assert set(threading.enumerate()) == before
    here = threading.current_thread()
    assert len(set(ran)) == 2 and here in ran
    assert not any(thread.is_alive() for thread in set(ran) - {here})


def test_in_order_yields_the_head_before_a_later_fault_on_the_caller():
    # a helper takes job 0, which waits until jobs 1 and 2 have run on the
    # caller, job 1 failing; job 0's value comes first, then job 1's fault,
    # and job 2, which finished, is undone
    started, later_done = threading.Event(), threading.Event()
    ran, undone, lock = {}, [], threading.Lock()

    def items():
        yield 0
        # the caller pulls the next item only once a helper runs job 0
        assert started.wait(timeout=30)
        yield from (1, 2)

    def job(x):
        with lock:
            ran[x] = threading.current_thread()
        if x == 0:
            started.set()
            assert later_done.wait(timeout=30)
        elif x == 1:
            raise ValueError("job 1")
        else:
            later_done.set()
        return x

    before = set(threading.enumerate())
    results = tensor_io._in_order(job, items(), 2, undone.append)
    assert next(results) == 0
    with pytest.raises(ValueError, match="^job 1$"):
        next(results)
    assert set(threading.enumerate()) == before
    here = threading.current_thread()
    assert ran[0] is not here and ran[1] is here and ran[2] is here
    assert undone == [2]


@pytest.mark.parametrize("fail_at", [None, 150])
def test_in_order_under_rapid_thread_switches(fail_at):
    # four workers on fewer cores, switching every microsecond: each job
    # runs once, values come in order, and after a fault exactly the later
    # jobs that finished are undone
    runs, undone, lock = [], [], threading.Lock()

    def job(x):
        with lock:
            runs.append(x)
        if x == fail_at:
            raise ValueError(f"job {x}")
        return x * x

    before, interval = set(threading.enumerate()), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    got = []
    try:
        with pytest.raises(ValueError) if fail_at else contextlib.nullcontext():
            for value in tensor_io._in_order(job, range(300), 4, undone.append):
                got.append(value)
    finally:
        sys.setswitchinterval(interval)
    assert set(threading.enumerate()) == before
    end = 300 if fail_at is None else fail_at
    assert got == [x * x for x in range(end)]
    assert sorted(runs) == sorted(set(runs)) and set(range(end)) <= set(runs)
    assert max(runs) < end + 8
    assert sorted(undone) == sorted(x for x in runs if fail_at is not None and x > fail_at)


def test_map_loaded_names_each_file_once(tmp_path):
    manifest = _numbered_dataset(tmp_path, n=2)
    broken = manifest.resolve(manifest.entries[1])
    broken.write_bytes(b"\x00garbage")
    with pytest.raises(MalformedHeader) as err:
        list(map_loaded(manifest, lambda fmap: fmap))
    assert str(err.value).count(str(broken)) == 1
    # an error raised by fn, not by the read, names the file once too
    write_array(np.zeros((1, 4, 4)), broken, "f64")
    with pytest.raises(ZeroEnergyFeature) as err:
        list(map_loaded(manifest, lambda fmap: hfr(fmap, 0.5)))
    assert str(err.value).startswith(f"{broken}: ")
    assert str(err.value).count(str(broken)) == 1


def test_manifest_with_byte_order_mark_loads(tmp_path):
    manifest_path = write_dataset(tmp_path, [make_map(np.ones((1, 2, 2)), "a", 2)], 3)
    manifest_path.write_bytes(b"\xef\xbb\xbf" + manifest_path.read_bytes())
    assert load_manifest(manifest_path).entries == load_manifest(manifest_path).entries
    assert [e.image_id for e in load_manifest(manifest_path).entries] == ["a"]


def test_save_manifest_roundtrip(tmp_path):
    write_array(np.ones((1, 2, 2)), tmp_path / "a.npy", "f64")
    manifest = DatasetManifest(
        7, (ManifestEntry("a.npy", "a", 2, "grp", 4, 0.5),), False, tmp_path
    )
    save_manifest(manifest, tmp_path / "m.json")
    back = load_manifest(tmp_path / "m.json")
    assert back.entries == manifest.entries
    assert back.total_timesteps == 7
    entry = {"path": "a.npy", "image_id": "a", "timestep": 2, "group": "grp", "label": 4, "accuracy": 0.5}
    doc = {"total_timesteps": 7, "entries": [entry]}
    assert (tmp_path / "m.json").read_text() == json.dumps(doc, indent=2) + "\n"
    save_manifest(back._replace(allow_ragged=True), tmp_path / "m.json")
    assert (tmp_path / "m.json").read_text() == json.dumps(dict(doc, allow_ragged=True), indent=2) + "\n"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(total_timesteps="ten"),
        lambda d: d.update(total_timesteps=0),
        lambda d: d.update(entries="nope"),
        lambda d: d.update(surprise=1),
        lambda d: d.pop("entries"),
        lambda d: d["entries"][0].pop("path"),
        lambda d: d["entries"][0].update(timestep=99),
        lambda d: d["entries"][0].update(timestep="3"),
        lambda d: d["entries"][0].update(label="cat"),
        lambda d: d["entries"][0].update(accuracy=1.5),
        lambda d: d["entries"][0].update(bogus=1),
        lambda d: d["entries"].append(7),
    ],
    ids=[
        "total_not_int",
        "total_zero",
        "entries_not_list",
        "unknown_top_key",
        "entries_missing",
        "entry_missing_path",
        "timestep_out_of_range",
        "timestep_string",
        "label_not_int",
        "accuracy_out_of_range",
        "entry_unknown_key",
        "entry_not_object",
    ],
)
def test_manifest_schema_violations(tmp_path, mutate):
    doc = _manifest_doc(tmp_path)
    mutate(doc)
    with pytest.raises(ManifestSchemaError):
        load_manifest(_write_doc(tmp_path, doc))


def test_manifest_not_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(ManifestSchemaError):
        load_manifest(path)


def test_manifest_missing_referenced_file(tmp_path):
    doc = _manifest_doc(tmp_path)
    doc["entries"][0]["path"] = "ghost.npy"
    with pytest.raises(MissingFile):
        load_manifest(_write_doc(tmp_path, doc))


def test_ragged_shapes_rejected_then_allowed(tmp_path):
    maps = [
        make_map(np.ones((1, 2, 2)), "a", 4),
        make_map(np.ones((1, 3, 3)), "b", 4),
    ]
    manifest = load_manifest(write_dataset(tmp_path, maps, 4))
    with pytest.raises(MetaMismatch):
        list(map_loaded(manifest, lambda fmap: fmap))
    ragged_dir = tmp_path / "ragged"
    manifest2 = load_manifest(write_dataset(ragged_dir, maps, 4, allow_ragged=True))
    assert len(list(map_loaded(manifest2, lambda fmap: fmap))) == 2


def test_different_timesteps_may_differ_in_shape(tmp_path):
    maps = [
        make_map(np.ones((1, 2, 2)), "a", 1),
        make_map(np.ones((1, 3, 3)), "b", 2),
    ]
    manifest = load_manifest(write_dataset(tmp_path, maps, 2))
    assert len(list(map_loaded(manifest, lambda fmap: fmap))) == 2
