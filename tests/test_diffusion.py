import subprocess
import sys
import warnings

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
    standard_normal,
    stream_seed,
    uniforms,
)
from freqsel import cli, diffusion
from freqsel.errors import (
    FrequencyTooHigh,
    ProfileInvalid,
    ScheduleInvalid,
)
from freqsel.tensor_io import map_loaded, write_array

from util import (
    child_env,
    cli_peak_rss_kb,
    make_map,
    mix64_py,
    normals_py,
    standard_normal_whole,
    stream_bits_py,
    uniforms_whole,
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
# checked through simulate_forward: noise for (entry i, timestep t) is
# standard_normal(size, stream_seed(seed, i, t)) in the map's shape

def _simulated(tmp_path, clean_values, alphas, seed=0, dtype="f64"):
    """simulate_forward of the given clean maps at every timestep of `alphas`."""
    clean = [make_map(v, f"img{i}", 1) for i, v in enumerate(clean_values)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    grid = tuple(range(1, len(alphas) + 1))
    return simulate_forward(manifest, NoiseSchedule(alphas), grid, seed, tmp_path / "sim", dtype=dtype)


def _noise(shape, seed, i, t):
    return standard_normal(int(np.prod(shape)), stream_seed(seed, i, t)).reshape(shape)


def test_forward_noise_endpoints_exact(tmp_path):
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
def test_forward_noise_formula(tmp_path_factory, alpha, seed):
    z0 = np.random.default_rng(seed).normal(size=(1, 4, 4))
    out = _simulated(tmp_path_factory.mktemp("fwd"), [z0], (alpha,), seed=seed)
    eps = _noise(z0.shape, seed, 0, 1)
    assert np.array_equal(read_tensor(out.resolve(out.entries[0])).values, alpha * eps + (1 - alpha) * z0)


def test_forward_noise_validation(tmp_path):
    with pytest.raises(ScheduleInvalid):
        NoiseSchedule((0.5, 1.5))
    # every alpha is looked up before a single file is read or written
    clean = [make_map(np.ones((1, 4, 4)), "a", 1)]
    manifest = load_manifest(write_dataset(tmp_path / "clean", clean, 1))
    manifest.resolve(manifest.entries[0]).write_bytes(b"not a tensor")
    with pytest.raises(ScheduleInvalid):
        simulate_forward(manifest, linear_schedule(5), (1, 9), seed=0, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


# --- noise stream -----------------------------------------------------------------

STREAM_SEEDS = (0, 2**63, (1 << 64) - 1, stream_seed(3, 1, 2))
DEFAULT_BLOCK = diffusion._BLOCK_PAIRS


def _streamed_bits(seed, count):
    blocks = diffusion._stream_blocks(seed, count, 2 * diffusion._BLOCK_PAIRS)
    return np.concatenate([bits.copy() for _, bits in blocks])


def test_stream_matches_pure_python_reference():
    # the uint64 stream and the uniforms are integer arithmetic: exact everywhere
    for seed in (0, 1, 42):
        want = stream_bits_py(seed, 100_000)
        assert _streamed_bits(seed, 100_000).tolist() == want
        assert uniforms(100_000, seed).tolist() == [(b >> 11) * 2.0**-53 for b in want]


def test_normals_within_two_ulp_of_pure_python_reference():
    # numpy's log/cos/sin are its own SIMD code, not libm: a few draws in a
    # thousand differ from math.log/cos/sin in the last bit or two
    for seed in (0, 1, 42, 2**63, (1 << 64) - 1):
        got = standard_normal(20_000, seed)
        want = np.asarray(normals_py(20_000, seed))
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))


def _block_counts(block):
    """Counts on each side of the pair and normal boundaries of one block size."""
    return sorted(
        {0, 1, 2, 3, block - 1, block, block + 1, 2 * block + 7}
        | {2 * block - 1, 2 * block, 2 * block + 1, 4 * block + 7}
    )


@pytest.mark.parametrize("block", [1, 7, DEFAULT_BLOCK])
def test_streamed_normals_match_whole_array_reference(monkeypatch, block):
    monkeypatch.setattr(diffusion, "_BLOCK_PAIRS", block)
    counts = _block_counts(block) + ([320 * 64 * 64] if block == DEFAULT_BLOCK else [1001])
    for seed in STREAM_SEEDS:
        for count in counts:
            got = standard_normal(count, seed)
            assert got.shape == (count,)
            assert np.array_equal(got, standard_normal_whole(count, seed)), (seed, count)


@pytest.mark.parametrize("block", [1, 7, DEFAULT_BLOCK])
def test_streamed_uniforms_match_whole_array_reference(monkeypatch, block):
    monkeypatch.setattr(diffusion, "_BLOCK_PAIRS", block)
    for seed in STREAM_SEEDS:
        for count in _block_counts(block) + [1001]:
            assert np.array_equal(uniforms(count, seed), uniforms_whole(count, seed)), (seed, count)


@pytest.mark.parametrize("block", [1, 7])
def test_simulate_and_oracle_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch, block):
    def outputs(tag):
        clean = [make_map(np.random.default_rng(i).normal(size=(3, 5, 7)), f"img{i}", 1) for i in range(2)]
        manifest = load_manifest(write_dataset(tmp_path / tag / "clean", clean, 1))
        simulate_forward(manifest, linear_schedule(10), (1, 4, 10), seed=8, out_dir=tmp_path / tag / "sim", dtype="f32")
        profile = OracleProfile(2, 1.0, (0.5, 1.0, 0.2), 2)
        oracle_features(profile, linear_schedule(3), 2, (3, 9, 11), 4, tmp_path / tag / "oracle")
        return {
            p.relative_to(tmp_path / tag): p.read_bytes()
            for p in sorted((tmp_path / tag).rglob("*"))
            if p.is_file()
        }

    default = outputs("default")
    monkeypatch.setattr(diffusion, "_BLOCK_PAIRS", block)
    assert outputs("small") == default


def test_stream_known_first_output():
    # widely published first output of this mixing function for seed 0
    assert stream_bits_py(0, 1)[0] == 0xE220A8397B1DCDAF
    assert mix64_py(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_uniforms_range_and_determinism():
    u = uniforms(10000, 7)
    assert np.array_equal(u, uniforms(10000, 7))
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_deterministic_and_reasonable():
    a = standard_normal(200_000, 123)
    assert np.array_equal(a, standard_normal(200_000, 123))
    assert np.all(np.isfinite(a))
    assert abs(a.mean()) < 0.01
    assert abs(a.std() - 1.0) < 0.01
    # odd counts truncate the final pair
    assert np.array_equal(standard_normal(7, 5), standard_normal(8, 5)[:7])


def test_distinct_seeds_decorrelate():
    a = standard_normal(50_000, 1)
    b = standard_normal(50_000, 2)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_stream_seed_keying():
    assert stream_seed(3, 1, 2) == stream_seed(3, 1, 2)
    assert stream_seed(3, 1, 2) != stream_seed(3, 2, 1)
    assert stream_seed(3, 1) != stream_seed(4, 1)
    derived = {stream_seed(0, i, t) for i in range(30) for t in range(30)}
    assert len(derived) == 900


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
    noised_t10 = [values for _, values in map_loaded(back, lambda fmap: fmap.values, (10,))]
    for i, values in enumerate(noised_t10):
        assert np.array_equal(values, _noise((1, 8, 8), 4, i, 10))
    # source identity survives alongside the new timestep
    assert [e.image_id for e in back.entries_at(5)] == ["img0", "img1", "img2"]


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
        oracle_features(profile, linear_schedule(2), 2, (1, 16, 16), 0, tmp_path)


def test_oracle_curve_must_match_schedule_length(tmp_path):
    profile = OracleProfile(1, 1.0, (1.0, 0.5), 3)
    with pytest.raises(ProfileInvalid):
        oracle_features(profile, linear_schedule(5), 2, (1, 16, 16), 0, tmp_path)


def test_oracle_dataset_recovers_peak(tmp_path):
    total = 12
    curve = gaussian_bump_curve(total, 8, 1.5, 3.0)
    profile = OracleProfile(8, 1.0, curve, 4)
    manifest = oracle_features(
        profile, linear_schedule(total), 3, (2, 16, 16), seed=5, out_dir=tmp_path,
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
    total = 5
    profile = OracleProfile(5, 1.0, (0.0, 0.4, 0.8, 1.2, 1.6), 5)
    manifest = oracle_features(
        profile, linear_schedule(total), 1, (1, 20, 20), seed=3, out_dir=tmp_path
    )
    values = [value for _, value in map_loaded(manifest, lambda m: hfr(m, 30.0))]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_oracle_generation_deterministic(tmp_path):
    profile = OracleProfile(2, 1.0, (0.5, 1.0, 0.2), 4)
    for run in ("a", "b"):
        oracle_features(profile, linear_schedule(3), 2, (1, 12, 12), 1, tmp_path / run)
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
