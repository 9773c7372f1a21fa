import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsel import (
    NoiseSchedule,
    OracleProfile,
    average_hfr,
    gaussian_bump_curve,
    hfr,
    linear_schedule,
    load_manifest,
    load_schedule_csv,
    oracle_features,
    read_tensor,
    simulate_forward,
)
from freqsel import cli, diffusion, tensor_io
from freqsel.errors import (
    FrequencyTooHigh,
    IoFailure,
    MalformedHeader,
    MetaMismatch,
    NonFiniteValue,
    ProfileInvalid,
    ScheduleInvalid,
)
from freqsel.tensor_io import FeatureMap, FeatureMeta, _map_payloads, write_array

from util import (
    child_env,
    child_peak_rss_kb,
    cli_peak_rss_kb,
    keyed_generator,
    make_map,
    write_dataset,
)


# --- schedules -----------------------------------------------------------------

def test_linear_schedule_endpoints():
    sched = linear_schedule(1000)
    assert sched.total_timesteps == 1000
    assert sched.alpha(1) == 1 / 1000
    assert sched.alpha(1000) == 1.0
    assert all(b >= a for a, b in zip(sched.alphas, sched.alphas[1:]))


def test_schedule_validation():
    with pytest.raises(ScheduleInvalid):
        NoiseSchedule(())
    with pytest.raises(ScheduleInvalid):
        NoiseSchedule((0.2, 0.1))
    with pytest.raises(ScheduleInvalid):
        NoiseSchedule((0.5, 1.5))
    with pytest.raises(ScheduleInvalid):
        linear_schedule(0)
    sched = linear_schedule(10)
    with pytest.raises(ScheduleInvalid):
        sched.alpha(0)
    with pytest.raises(ScheduleInvalid):
        sched.alpha(11)


def test_alpha_indexing_conventions(tmp_path):
    # alpha_{t-1} is a schedule shifted by one, built by the CLI
    shifted = cli._resolve_schedule("linear", 10, "t-1")
    assert shifted.alphas == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    assert cli._resolve_schedule("linear", 10, "t") == linear_schedule(10)
    out = tmp_path / "out"
    argv = ["simulate", "--manifest", str(tmp_path / "m.json"), "--alpha-index", "t+1", "--out", str(out)]
    assert cli.main(argv) == 1
    assert not out.exists()


def test_schedule_csv_roundtrip(tmp_path):
    (tmp_path / "s.csv").write_text("t,alpha\n1,0.0\n2,0.25\n3,0.5\n4,1.0\n")
    assert load_schedule_csv(tmp_path / "s.csv").alphas == (0.0, 0.25, 0.5, 1.0)


def test_schedule_csv_ignores_blank_lines(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,alpha\n1,0.0\n\n2,0.5\n\n")
    assert load_schedule_csv(path).alphas == (0.0, 0.5)


@pytest.mark.parametrize(
    "content",
    [
        "alpha,t\n1,0.5\n",
        "t,alpha\n2,0.5\n",
        "t,alpha\n1,0.5\n3,0.6\n",
        "t,alpha\n1,high\n",
        "t,alpha\n1,0.5,9\n",
        "t,alpha\n1,0.9\n2,0.1\n",
    ],
    ids=["bad_header", "starts_at_2", "gap", "not_numeric", "extra_field", "decreasing"],
)
def test_schedule_csv_rejects_malformed(tmp_path, content):
    path = tmp_path / "s.csv"
    path.write_text(content)
    with pytest.raises(ScheduleInvalid):
        load_schedule_csv(path)


# --- forward mixing ----------------------------------------------------------------
# checked through simulate_forward: noise for (entry i, timestep t) is the
# standard normals of the generator keyed (i, t) under the seed, in the
# map's shape

def _simulated(tmp_path, clean_values, alphas, seed=0, dtype="f64"):
    """simulate_forward of the given clean maps at every timestep of `alphas`."""
    clean = [make_map(v, f"img{i}", 1) for i, v in enumerate(clean_values)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    grid = tuple(range(1, len(alphas) + 1))
    return simulate_forward(manifest, NoiseSchedule(alphas), grid, seed, tmp_path / "sim", dtype=dtype)


def _noise(shape, seed, i, t):
    return keyed_generator(seed, i, t).standard_normal(shape)


def test_simulate_endpoints_exact(tmp_path):
    z0 = np.random.default_rng(0).normal(size=(2, 6, 6)) * 100
    out = _simulated(tmp_path, [z0], (0.0, 1.0), seed=5)
    # alpha = 0 writes the clean map, alpha = 1 the noise, bit for bit
    assert np.array_equal(read_tensor(out.resolve(out.entries[0])).values, z0)
    assert np.array_equal(read_tensor(out.resolve(out.entries[1])).values, _noise(z0.shape, 5, 0, 2))


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_simulate_mix_formula(tmp_path_factory, alpha, seed):
    z0 = np.random.default_rng(seed).normal(size=(1, 4, 4))
    out = _simulated(tmp_path_factory.mktemp("fwd"), [z0], (alpha,), seed=seed)
    eps = _noise(z0.shape, seed, 0, 1)
    assert np.array_equal(read_tensor(out.resolve(out.entries[0])).values, alpha * eps + (1 - alpha) * z0)


def test_simulate_looks_up_every_alpha_first(tmp_path):
    with pytest.raises(ScheduleInvalid):
        NoiseSchedule((0.5, 1.5))
    # every alpha is looked up before a single file is read or written
    clean = [make_map(np.ones((1, 4, 4)), "a", 1)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    manifest.resolve(manifest.entries[0]).write_bytes(b"not a tensor")
    with pytest.raises(ScheduleInvalid):
        simulate_forward(manifest, linear_schedule(5), (1, 9), seed=0, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_an_output_named_as_a_linked_input(tmp_path):
    # the input is a link where an output goes: the writer would replace the
    # link, and the entry would then name the noised map
    clean = [make_map(np.ones((1, 4, 4)), "a", 1)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    out = tmp_path / "out"
    out.mkdir()
    link = out / "t0001_i0000.npy"
    link.symlink_to(manifest.resolve(manifest.entries[0]))
    linked = replace(manifest, entries=(replace(manifest.entries[0], path=str(link)),))
    with pytest.raises(IoFailure, match=f"^cannot write {link}: it is input entry a of the manifest$"):
        simulate_forward(linked, linear_schedule(5), (1, 3), seed=0, out_dir=out)
    assert link.is_symlink() and list(out.iterdir()) == [link]


# --- seeded noise -------------------------------------------------------------------

def test_rng_range_and_determinism():
    u = diffusion._rng(7, 3, 5).random(10000)
    assert np.array_equal(u, keyed_generator(7, 3, 5).random(10000))
    assert np.array_equal(u, diffusion._rng(7, 3, 5).random(10000))
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_deterministic_and_reasonable(tmp_path):
    # alpha = 1 writes the keyed noise itself
    out = _simulated(tmp_path, [np.zeros((2, 200, 500))], (1.0,), seed=123)
    a = read_tensor(out.resolve(out.entries[0])).values
    assert np.array_equal(a, _noise(a.shape, 123, 0, 1))
    assert np.all(np.isfinite(a))
    assert abs(a.mean()) < 0.01
    assert abs(a.std() - 1.0) < 0.01


def test_distinct_seeds_decorrelate():
    a = diffusion._rng(1, 0, 1).standard_normal(50_000)
    for b in (diffusion._rng(2, 0, 1), diffusion._rng(1, 1, 0), diffusion._rng(1, 0)):
        assert abs(np.corrcoef(a, b.standard_normal(50_000))[0, 1]) < 0.02


def test_rng_keying():
    def first(seed, *key):
        return diffusion._rng(seed, *key).random()

    assert first(3, 1, 2) == first(3, 1, 2)
    assert first(3, 1, 2) != first(3, 2, 1)
    assert first(3, 1) != first(4, 1)
    # a spawn key keeps a trailing zero: an entropy list would drop it
    assert all(first(1, i, 0) != first(1, i) for i in range(5))
    assert len({first(0, i, t) for i in range(30) for t in range(30)}) == 900


def test_numpy_keeps_the_normals_simulate_writes(tmp_path):
    # a numpy release that changes PCG64, SeedSequence or the ziggurat
    # changes every simulate and oracle byte; this fails first
    pinned = "[-1.6525103588084447, -1.1801873515430512, 0.012594627118657647, 0.6993739684318862]"
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0, spawn_key=(0, 1))))
    assert repr(gen.standard_normal(4).tolist()) == pinned
    out = _simulated(tmp_path, [np.zeros((1, 2, 2))], (1.0,), seed=0)
    assert repr(read_tensor(out.resolve(out.entries[0])).values.ravel().tolist()) == pinned


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_pieces_write_what_one_whole_draw_writes(tmp_path, dtype, threads):
    # simulate draws, mixes and writes each map in pieces of _PIECE elements;
    # 3*300*700 is several pieces and not a whole number of them, so this
    # holds only if consecutive standard_normal(out=...) calls continue one
    # stream and the last, short piece is mixed like the rest
    shape = (3, 300, 700)
    assert shape[0] * shape[1] * shape[2] % tensor_io._PIECE != 0
    _assert_whole_draw(tmp_path, shape, "f64", dtype, threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("source_dtype", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(1, 5, 3), (3, 301, 701)], ids=["below_a_piece", "odd_last_piece"])
def test_pieces_of_odd_maps_write_what_one_whole_draw_writes(tmp_path, shape, source_dtype, dtype, threads):
    # a map smaller than a piece, whose noise is drawn in halves of 8 and
    # 7 values, and one whose short, odd last piece takes a whole half and
    # a short rest; an f32 source is widened before it is mixed
    assert shape[0] * shape[1] * shape[2] % 2 == 1
    _assert_whole_draw(tmp_path, shape, source_dtype, dtype, threads)


def _assert_whole_draw(tmp_path, shape, source_dtype, dtype, threads):
    """simulate of a normal z0 of `shape` stored as `source_dtype` writes,
    as `dtype` on `threads`, what the formula on one whole-map draw does."""
    z0 = np.random.default_rng(9).normal(size=shape)
    z0[0, 0, 0] = -0.0
    clean = FeatureMap(z0, FeatureMeta("img0", 1, "", source_dtype))
    manifest = load_manifest(write_dataset(tmp_path / "clean", [clean], 1))
    z0 = z0.astype(tensor_io._DESCR_BY_DTYPE[source_dtype]).astype(np.float64)
    # alpha = 0 adds noise of either sign of zero to z0's -0.0
    sched = NoiseSchedule((0.0, 0.25, 0.5, 1.0))
    simulate_forward(manifest, sched, (1, 2, 3, 4), 17, tmp_path / "sim", dtype, threads)
    for t in (1, 2, 3, 4):
        alpha = sched.alpha(t)
        write_array(alpha * _noise(shape, 17, 0, t) + (1 - alpha) * z0, tmp_path / "want.npy", dtype)
        got = (tmp_path / "sim" / f"t{t:04d}_i0000.npy").read_bytes()
        assert got == (tmp_path / "want.npy").read_bytes()


def test_a_noise_job_holds_pieces_not_a_map(tmp_path):
    # a float64 piece of the mix, half a piece of noise, one <f4 stage that
    # the reader and the writer share, and the writer's finiteness mask:
    # 17 bytes per piece element. A second float64 piece for the widened
    # source and a stage each for the reader and the writer took 25.
    shape = (320, 64, 64)
    np.save(tmp_path / "z0.npy", np.random.default_rng(1).normal(size=shape).astype("<f4"))
    rng = diffusion._rng(0, 0, 1)
    tracemalloc.start()
    try:
        diffusion._write_noised((tmp_path / "z0.npy", shape), 0.5, rng, tmp_path / "zt.npy", "f32")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * tensor_io._PIECE + 65536, peak


# --- forward simulation over a dataset ------------------------------------------------

def test_simulate_forward_writes_expected_dataset(tmp_path):
    clean = [make_map(np.random.default_rng(i).normal(size=(1, 8, 8)), f"img{i}", 1) for i in range(3)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    sched = linear_schedule(10)
    out = simulate_forward(manifest, sched, (1, 5, 10), seed=4, out_dir=tmp_path / "noised")
    assert len(out.entries) == 9
    assert out.timesteps() == (1, 5, 10)
    back = load_manifest(tmp_path / "noised" / "manifest.json")
    assert back.entries == out.entries
    # alpha = 1 at t = 10 for this schedule: output is pure seeded noise
    noised_t10 = [values for _, values in _map_payloads(back, lambda p: p.feature_map().values, (10,))]
    for i, values in enumerate(noised_t10):
        assert np.array_equal(values, _noise((1, 8, 8), 4, i, 10))
    # source identity survives alongside the new timestep
    assert [e.image_id for e in back.entries if e.timestep == 5] == ["img0", "img1", "img2"]


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_simulate_forward_matches_library_chain(tmp_path, dtype):
    # the in-place, image-major path writes what the formula on fresh arrays,
    # written by write_array, writes, and lists it timestep-major
    clean = [make_map(np.random.default_rng(i).normal(size=(2, 5, 3)) * 10, f"img{i}", 1) for i in range(2)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    sched = linear_schedule(7)
    out = simulate_forward(manifest, sched, (1, 3, 7), seed=6, out_dir=tmp_path / "sim", dtype=dtype)
    assert [e.path for e in out.entries] == [f"t{t:04d}_i{i:04d}.npy" for t in (1, 3, 7) for i in range(2)]
    for t in (1, 3, 7):
        for i, fmap in enumerate(clean):
            alpha = sched.alpha(t)
            want = alpha * _noise((2, 5, 3), 6, i, t) + (1 - alpha) * fmap.values
            write_array(want, tmp_path / "want.npy", dtype)
            got = (tmp_path / "sim" / f"t{t:04d}_i{i:04d}.npy").read_bytes()
            assert got == (tmp_path / "want.npy").read_bytes()


def test_simulate_forward_deterministic_bytes(tmp_path):
    clean = [make_map(np.random.default_rng(7).normal(size=(1, 6, 6)), "a", 1)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    sched = linear_schedule(4)
    for run in ("x", "y"):
        simulate_forward(manifest, sched, (2, 4), seed=11, out_dir=tmp_path / run)
    names = sorted(p.name for p in (tmp_path / "x").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "y").iterdir())
    for name in names:
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


@pytest.mark.parametrize("grid", [(5, 5, 3), (5, 3), (3, 5, 5), ()], ids=["repeat", "descending", "repeat_last", "empty"])
def test_simulate_grid_must_be_unique_and_ascending(tmp_path, grid):
    # a repeated timestep would write and list one file twice, and count
    # its image twice in that timestep's mean
    clean = [make_map(np.ones((1, 4, 4)), "a", 1)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    with pytest.raises(ScheduleInvalid, match="unique, ascending"):
        simulate_forward(manifest, linear_schedule(10), grid, seed=0, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_simulate_grid_outside_schedule_rejected(tmp_path):
    clean = [make_map(np.ones((1, 4, 4)), "a", 1)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    with pytest.raises(ScheduleInvalid):
        simulate_forward(manifest, linear_schedule(5), (1, 9), seed=0, out_dir=tmp_path / "out")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_simulate_peak_rss_does_not_grow_with_the_source_count(tmp_path):
    shape = (128, 64, 64)
    source_kb = np.prod(shape) * 8 / 1024  # one clean source as float64

    def peak_kb(n):
        clean = [make_map(np.random.default_rng(i).normal(size=shape), f"img{i}", 1) for i in range(n)]
        manifest = write_dataset(tmp_path / f"clean{n}", clean, 1)
        return cli_peak_rss_kb(
            "simulate", "--manifest", manifest, "--total-timesteps", "2", "--timesteps", "1,2",
            "--dtype", "f32", "--out", tmp_path / f"sim{n}",
        )

    small, large = peak_kb(2), peak_kb(8)
    assert large - small < 2 * source_kb, (small, large)


def test_simulate_threads_never_change_bytes(tmp_path):
    # sources of several pieces each, and more timesteps than threads
    rng = np.random.default_rng(2)
    clean = [make_map(rng.normal(size=(2, 200, 300)), f"img{i}", 1) for i in range(2)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    trees = []
    for threads in (1, 2, 4):
        out = tmp_path / f"sim_{threads}"
        simulate_forward(manifest, linear_schedule(10), (1, 4, 7, 10), 3, out, "f32", threads)
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(trees[0]) == 9
    assert trees[0] == trees[1] == trees[2]


def test_simulate_pools_only_maps_of_at_least_one_piece(tmp_path, monkeypatch):
    threads_seen = []
    write = diffusion._write_noised

    def spy(*task):
        threads_seen.append(threading.get_ident())
        write(*task)

    monkeypatch.setattr(diffusion, "_write_noised", spy)
    width = tensor_io._PIECE // 64
    clean = [make_map(np.ones((1, 64, width - 1)), "small", 1), make_map(np.ones((1, 64, width)), "one", 1)]
    manifest = load_manifest(write_dataset(tmp_path / "in", clean, 1, allow_ragged=True))
    simulate_forward(manifest, linear_schedule(2), (1, 2), 0, tmp_path / "out", "f32", 2)
    here = threading.get_ident()
    assert threads_seen[:2] == [here, here]
    assert here not in threads_seen[2:] and len(threads_seen) == 4


def test_simulate_fault_and_leftovers_do_not_depend_on_threads(tmp_path):
    # 1e39 in the second source's last piece overflows f32 at t = 1 and 2
    # (alpha 0.25, 0.5), which two threads noise at once, but not at t = 3
    # and 4; the fault at t = 1 is the one reported, and the maps of the
    # failed source that the pool finished are not left behind
    big = np.ones((2, 300, 300))
    big[-1, -1, -1] = 1e39
    clean = [make_map(np.ones((2, 300, 300)), "ok", 1), make_map(big, "big", 1)]
    manifest = load_manifest(write_dataset(tmp_path / "in", clean, 1))
    leftovers = []
    for threads in (1, 2):
        out = tmp_path / f"out{threads}"
        with pytest.raises(NonFiniteValue) as exc:
            simulate_forward(manifest, linear_schedule(4), (1, 2, 3, 4), 0, out, "f32", threads)
        assert str(exc.value).startswith(str(out / "t0001_i0001.npy"))
        leftovers.append(sorted(p.name for p in out.iterdir()))
    assert leftovers[0] == [f"t{t:04d}_i0000.npy" for t in (1, 2, 3, 4)]
    assert leftovers[1] == leftovers[0]


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_read_fault_leaves_the_sources_before_it(tmp_path, threads):
    # sources of more than one piece, so two threads write their maps
    clean = [make_map(np.ones((2, 200, 200)), f"img{i}", 1) for i in range(3)]
    manifest = load_manifest(write_dataset(tmp_path / "in", clean, 1))
    manifest.resolve(manifest.entries[1]).write_bytes(b"not a tensor")
    out = tmp_path / "out"
    with pytest.raises(MalformedHeader):
        simulate_forward(manifest, linear_schedule(3), (1, 2, 3), 0, out, "f32", threads)
    # no map of a later source, no manifest.json and no *.tmp
    assert sorted(p.name for p in out.iterdir()) == [f"t{t:04d}_i0000.npy" for t in (1, 2, 3)]


# 1.25 pieces: the last piece of a source is a short one
_TWO_PIECES = (2, 64, 5 * tensor_io._PIECE // 512)


def _three_sources(tmp_path, dtype="f64"):
    """A dataset of three clean sources of two pieces each, and the path of
    the second, which the fault tests spoil."""
    shape = _TWO_PIECES
    assert 1 < np.prod(shape) / tensor_io._PIECE <= 2
    clean = [FeatureMap(np.ones(shape), FeatureMeta(f"img{i}", 1, "", dtype)) for i in range(3)]
    manifest = load_manifest(write_dataset(tmp_path / "in", clean, 1))
    return manifest, manifest.resolve(manifest.entries[1])


def _simulate_fails_at_the_second_source(tmp_path, manifest, source, error, threads):
    """Run simulate on `threads`, which must raise `error` naming `source`
    first and leave the maps of the first source alone: no later map, no
    *.tmp and no manifest.json."""
    out = tmp_path / "out"
    with pytest.raises(error) as err:
        simulate_forward(manifest, linear_schedule(3), (1, 2, 3), 0, out, "f32", threads)
    assert str(err.value).startswith(f"{source}: "), str(err.value)
    assert sorted(p.name for p in out.iterdir()) == [f"t{t:04d}_i0000.npy" for t in (1, 2, 3)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_simulate_nonfinite_value_in_a_source_names_the_source(tmp_path, bad, dtype, threads):
    # the value is in the last piece, which each job reads after it has
    # written the first piece of its map
    manifest, source = _three_sources(tmp_path, dtype)
    values = np.ones(_TWO_PIECES, dtype=tensor_io._DESCR_BY_DTYPE[dtype])
    values[-1, -1, -1] = bad
    np.save(source, values)
    _simulate_fails_at_the_second_source(tmp_path, manifest, source, NonFiniteValue, threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "change, when, error",
    [
        ("cut", "before_the_header_check", MalformedHeader),
        ("cut", "after_the_header_check", MalformedHeader),
        ("grow", "after_the_header_check", MetaMismatch),
    ],
)
def test_simulate_source_changed_after_the_manifest_loaded_names_the_source(
    tmp_path, monkeypatch, change, when, error, threads
):
    manifest, source = _three_sources(tmp_path)

    def spoil():
        if change == "cut":
            with open(source, "r+b") as fh:
                fh.truncate(source.stat().st_size - 8)
        else:
            # read as the checked shape, the new file would be cut silently
            write_array(np.ones((3,) + _TWO_PIECES[1:]), source, "f64")

    if when == "before_the_header_check":
        spoil()
    else:
        # the header check passes; the jobs that re-read the source find it changed
        map_payloads = diffusion._map_payloads

        def spoil_once_checked(manifest, use, *rest):
            for entry, value in map_payloads(manifest, use, *rest):
                if manifest.resolve(entry) == source:
                    spoil()
                yield entry, value

        monkeypatch.setattr(diffusion, "_map_payloads", spoil_once_checked)
    _simulate_fails_at_the_second_source(tmp_path, manifest, source, error, threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_oracle_fault_at_an_image_leaves_the_images_before_it(tmp_path, monkeypatch, threads):
    low_field, write_dataset_ = diffusion._low_field, diffusion._write_dataset
    made = []

    def low_field_failing_at_image_1(*args):
        made.append(args)
        if len(made) == 2:
            raise ProfileInvalid("degenerate background field")
        return low_field(*args)

    def write_on_threads(sources, grid, make, stem, out_dir, _threads, *rest):
        return write_dataset_(sources, grid, make, stem, out_dir, threads, *rest)

    # the oracle passes one thread; its shared writer is run on `threads`
    monkeypatch.setattr(diffusion, "_low_field", low_field_failing_at_image_1)
    monkeypatch.setattr(diffusion, "_write_dataset", write_on_threads)
    out = tmp_path / "oracle"
    with pytest.raises(ProfileInvalid, match="degenerate"):
        oracle_features(OracleProfile(2, 1.0, (0.5, 1.0, 0.2), 4), 3, (2, 200, 200), 0, out, dtype="f32")
    assert sorted(p.name for p in out.iterdir()) == [f"t{t:04d}_img0000.npy" for t in (1, 2, 3)]


_SOURCE = (256, 64, 64)
_SOURCE_KB = np.prod(_SOURCE) * 8 / 1024  # one clean source as float64

# imports what `simulate` imports, numpy.random included
_IMPORTS = """
import sys
import numpy.random
import freqsel.diffusion
from freqsel.cli import build_parser
from freqsel.tensor_io import load_manifest, read_tensor
build_parser()
"""

# loads the manifest and reads no payload
_LOAD_MANIFEST = _IMPORTS + """
load_manifest(sys.argv[1])
"""

# reads the dataset's sources whole, one at a time, writing nothing
_READ_SOURCES = _IMPORTS + """
manifest = load_manifest(sys.argv[1])
for entry in manifest.entries:
    read_tensor(manifest.resolve(entry))
"""

# what `simulate --timesteps 1,2 --dtype f32` runs, on argv[3] threads
_SIMULATE = _IMPORTS + """
from freqsel.diffusion import linear_schedule, simulate_forward
manifest = load_manifest(sys.argv[1])
simulate_forward(manifest, linear_schedule(2), (1, 2), 0, sys.argv[2], "f32", int(sys.argv[3]))
"""


def _sources(tmp_path, n):
    clean = [make_map(np.random.default_rng(i).normal(size=_SOURCE), f"img{i}", 1) for i in range(n)]
    return write_dataset(tmp_path / f"clean{n}", clean, 1)


def _simulate_peak_kb(tmp_path, manifest, threads):
    out = tmp_path / f"sim_{manifest.parent.name}_{threads}"
    return child_peak_rss_kb(_SIMULATE, manifest, out, threads)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_simulate_holds_one_source_and_no_map_sized_array(tmp_path):
    one, two = _sources(tmp_path, 1), _sources(tmp_path, 2)
    base = child_peak_rss_kb(_LOAD_MANIFEST, one)
    # the source, the noise, the mix and the cast payload are pieces, not
    # maps, for one source and for two
    for manifest in (one, two):
        peak = _simulate_peak_kb(tmp_path, manifest, 1)
        assert peak - base < _SOURCE_KB / 4, (manifest, base, peak)


# what `oracle --images 1 --shape 256,64,64 --timesteps 1,2 --dtype f32` runs
_ORACLE = _IMPORTS + """
from freqsel.cli import main
assert main(["oracle", "--out", sys.argv[1], "--images", "1", "--shape", "256,64,64",
             "--total-timesteps", "2", "--peak-timestep", "2", "--timesteps", "1,2",
             "--dtype", "f32"]) == 0
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_oracle_holds_one_background_and_no_whole_map(tmp_path):
    read = child_peak_rss_kb(_READ_SOURCES, _sources(tmp_path, 1))
    oracle = child_peak_rss_kb(_ORACLE, tmp_path / "oracle")
    # the background field and one spare buffer of its size, plus pieces:
    # no whole detail pattern or output map
    assert oracle - read < 1.5 * _SOURCE_KB, (read, oracle)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_simulate_threads_hold_pieces_not_maps(tmp_path):
    manifest = _sources(tmp_path, 1)
    one, two = _simulate_peak_kb(tmp_path, manifest, 1), _simulate_peak_kb(tmp_path, manifest, 2)
    assert two - one < _SOURCE_KB / 2, (one, two)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_oracle_peak_rss_does_not_grow_with_the_image_count(tmp_path):
    field_kb = 128 * 64 * 64 * 8 / 1024  # one background field as float64

    def peak_kb(n):
        return cli_peak_rss_kb(
            "oracle", "--out", tmp_path / f"oracle{n}", "--images", n, "--shape", "128,64,64",
            "--total-timesteps", "2", "--timesteps", "1,2", "--peak-timestep", "2", "--dtype", "f32",
        )

    small, large = peak_kb(2), peak_kb(8)
    assert large - small < 2 * field_kb, (small, large)


# --- synthetic oracle -------------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ProfileInvalid):
        OracleProfile(1, 1.0, (), 4)
    with pytest.raises(ProfileInvalid):
        OracleProfile(2, 1.0, (0.5, 1.0, 1.0), 4)  # non-unique max
    with pytest.raises(ProfileInvalid):
        OracleProfile(1, 1.0, (0.5, 1.0, 0.2), 4)  # max not at peak_timestep
    with pytest.raises(ProfileInvalid):
        OracleProfile(2, 0.0, (0.5, 1.0, 0.2), 4)  # zero background
    with pytest.raises(ProfileInvalid):
        OracleProfile(2, 1.0, (0.5, 1.0, 0.2), 0)  # bad frequency
    profile = OracleProfile(2, 1.0, (0.5, 1.0, 0.2), 4)
    assert profile.total_timesteps == 3


def test_gaussian_bump_curve_peaks_where_asked():
    curve = gaussian_bump_curve(50, 20, 2.0, 6.0)
    assert len(curve) == 50
    assert curve.index(max(curve)) == 19
    assert curve[19] == 2.0
    with pytest.raises(ProfileInvalid):
        gaussian_bump_curve(50, 20, 2.0, 0.0)


@pytest.mark.parametrize("width", [1e-300, 1e-200, 1e-160])
def test_gaussian_bump_curve_at_a_tiny_width_is_the_peak_alone(width):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = gaussian_bump_curve(10, 5, 2.0, width)
    assert curve == (0.0,) * 4 + (2.0,) + (0.0,) * 5


def test_oracle_at_a_tiny_width_exits_0_without_warnings(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "freqsel", "oracle", "--out", str(tmp_path / "o"),
         "--curve-width", "1e-200", "--peak-timestep", "5", "--total-timesteps", "10",
         "--images", "2", "--shape", "1,32,32"],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(load_manifest(tmp_path / "o" / "manifest.json").entries) == 2 * len(cli.default_probe_grid(10))


def test_oracle_frequency_bound(tmp_path):
    profile = OracleProfile(1, 1.0, (1.0, 0.5), 8)
    with pytest.raises(FrequencyTooHigh):
        oracle_features(profile, 2, (1, 16, 16), 0, tmp_path)


def test_oracle_dataset_recovers_peak(tmp_path):
    total = 12
    curve = gaussian_bump_curve(total, 8, 1.5, 3.0)
    profile = OracleProfile(8, 1.0, curve, 4)
    manifest = oracle_features(
        profile, 3, (2, 16, 16), seed=5, out_dir=tmp_path,
        timesteps=(2, 4, 6, 8, 10, 12),
    )
    assert len(manifest.entries) == 18
    # image-major generation, timestep-major listing
    assert [e.path for e in manifest.entries] == [
        f"t{t:04d}_img{i:04d}.npy" for t in (2, 4, 6, 8, 10, 12) for i in range(3)
    ]
    reloaded = load_manifest(tmp_path / "manifest.json")
    got = average_hfr(reloaded, 30.0)
    assert got.timesteps == (2, 4, 6, 8, 10, 12)
    best = got.timesteps[got.mean_hfr.index(max(got.mean_hfr))]
    assert best == 8


def test_oracle_per_image_hfr_monotone_in_amplitude(tmp_path):
    # same image at increasing detail amplitude must have increasing HFR
    profile = OracleProfile(5, 1.0, (0.0, 0.4, 0.8, 1.2, 1.6), 5)
    manifest = oracle_features(profile, 1, (1, 20, 20), seed=3, out_dir=tmp_path)
    values = [value for _, value in _map_payloads(manifest, lambda p: hfr(p, 30.0))]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_oracle_generation_deterministic(tmp_path):
    profile = OracleProfile(2, 1.0, (0.5, 1.0, 0.2), 4)
    for run in ("a", "b"):
        oracle_features(profile, 2, (1, 12, 12), 1, tmp_path / run)
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
