import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsel import (
    decompose,
    extract_high_freq,
    hfr,
    pool_tokens,
    spectral,
)
from freqsel.errors import NonFiniteValue, NonPositiveCutoff, ZeroEnergyFeature
from freqsel.spectral import _gains, _hartley
from freqsel.tensor_io import write_array

from util import (
    cli_peak_rss_kb,
    energy,
    hfr_per_step,
    high_freq_whole_map,
    kernel_gains,
    make_map,
    reference_gains,
    rel_err,
)


def rand_map(c, h, w, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return make_map(scale * rng.normal(size=(c, h, w)))


# --- the gains of the kernel -------------------------------------------------
# No gain grid exists in the library: util.kernel_gains measures the
# kernel's gains from its impulse response.

def test_mask_basic_properties():
    gains = kernel_gains(16, 12, 5.0)
    assert gains.shape == (16, 12)
    # DC is suppressed (to rounding) and every gain lies in [0, 1)
    assert abs(gains[0, 0]) < 1e-12
    assert np.all((gains > -1e-12) & (gains < 1.0))
    # monotone in distance along an axis away from DC
    assert np.all(np.diff(gains[0, :7]) > 0)


def test_mask_matches_formula():
    cutoff = 7.3
    assert np.abs(kernel_gains(9, 14, cutoff) - reference_gains(9, 14, cutoff)).max() < 1e-12


@pytest.mark.parametrize("h,w", [(8, 8), (7, 9), (6, 11), (5, 4)])
def test_mask_conjugate_symmetric_unshifted(h, w):
    g = kernel_gains(h, w, 3.0)
    mirrored = g[(-np.arange(h)) % h][:, (-np.arange(w)) % w]
    assert np.abs(g - mirrored).max() < 1e-12


def test_mask_gain_rises_with_smaller_cutoff():
    wide = kernel_gains(16, 16, 20.0)
    narrow = kernel_gains(16, 16, 2.0)
    off_dc = np.ones((16, 16), dtype=bool)
    off_dc[0, 0] = False
    assert np.all(narrow[off_dc] > wide[off_dc])


def test_mask_validation_and_caching():
    fmap = rand_map(1, 8, 8, 0)
    for cutoff in (0.0, -3.0):
        for call in (extract_high_freq, decompose, hfr):
            with pytest.raises(NonPositiveCutoff):
                call(fmap, cutoff)
    # one read-only basis per size and gain grid per (size, cutoff), whatever
    # type the cutoff came in
    hfr(fmap, 5)
    assert _hartley(8) is _hartley(8) and not _hartley(8).flags.writeable
    assert _gains(8, 8, 5) is _gains(8, 8, 5.0) and not _gains(8, 8, 5.0).flags.writeable


# --- hfr ------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=3),
    h=st.integers(min_value=2, max_value=12),
    w=st.integers(min_value=2, max_value=12),
    cutoff=st.floats(min_value=0.5, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_hfr_bounded(c, h, w, cutoff, seed):
    value = hfr(rand_map(c, h, w, seed), cutoff)
    assert 0.0 <= value < 1.0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.sampled_from([2.0, 1024.0, 0.125, 1000.0, 1e-6, 3.7e5]),
)
def test_hfr_scale_invariant(seed, scale):
    base = rand_map(2, 10, 10, seed)
    scaled = make_map(base.values * scale)
    assert abs(hfr(base) - hfr(scaled)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    exponent=st.integers(min_value=-300, max_value=300),
)
def test_hfr_finite_and_scale_free_over_float64_range(seed, exponent):
    base = rand_map(2, 10, 9, seed)
    value = hfr(make_map(base.values * 10.0**exponent))
    assert np.isfinite(value) and 0.0 <= value < 1.0
    assert abs(value - hfr(base)) <= 1e-12 * hfr(base)


def test_hfr_scale_invariance_bitwise_for_pow2():
    base = rand_map(1, 16, 16, 5)
    scaled = make_map(base.values * 1024.0)
    assert hfr(base, 4.0) == hfr(scaled, 4.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_hfr_monotone_in_cutoff(seed):
    fmap = rand_map(2, 12, 12, seed)
    cutoffs = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
    values = [hfr(fmap, c) for c in cutoffs]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("u,v", [(1, 0), (0, 1), (3, 2), (5, 5), (2, 7)])
def test_single_frequency_map_hits_its_gain(u, v):
    h = w = 16
    hh = np.arange(h)[:, None]
    ww = np.arange(w)[None, :]
    pattern = np.cos(2 * np.pi * (u * hh / h + v * ww / w) + 0.3)
    fmap = make_map(pattern[None])
    gains = reference_gains(h, w, 5.0)
    # both conjugate bins sit at the same distance, hence the same gain
    assert gains[u, v] == gains[(-u) % h, (-v) % w]
    assert abs(hfr(fmap, 5.0) - gains[u, v] ** 2) < 1e-8


def fft_reference(values, cutoff):
    """(hfr, high part) through numpy's FFT and util.reference_gains, the
    ratio's sums taken with math.fsum."""
    spectrum = np.fft.fft2(values)
    power = spectrum.real**2 + spectrum.imag**2
    gains = reference_gains(*values.shape[-2:], cutoff)
    ratio = math.fsum((gains * gains * power).ravel()) / math.fsum(power.ravel())
    return ratio, np.fft.ifft2(gains * spectrum).real


@pytest.mark.parametrize("cutoff", [30.0, 1e4, 1e8, 1e12])
@pytest.mark.parametrize("shape", [(4, 64, 64), (1280, 16, 16), (8, 96, 96)])
def test_hfr_and_filter_accurate_at_every_cutoff(shape, cutoff):
    # at a large cutoff the high part is a vanishing share of the map; a
    # kernel that forms it as a difference of nearly equal maps loses digits
    values = np.random.default_rng(sum(shape)).normal(size=shape)
    ratio, high = fft_reference(values, cutoff)
    assert abs(hfr(make_map(values), cutoff) / ratio - 1.0) <= 1e-14
    assert rel_err(extract_high_freq(make_map(values), cutoff).values, high) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(
    c=st.integers(min_value=1, max_value=3),
    h=st.integers(min_value=1, max_value=12),
    w=st.integers(min_value=1, max_value=12),
    cutoff=st.floats(min_value=1e-300, max_value=1e300),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_hfr_within_zero_and_one_at_any_cutoff(c, h, w, cutoff, seed):
    assert 0.0 <= hfr(rand_map(c, h, w, seed), cutoff) <= 1.0


def test_hfr_of_a_zero_mean_map_is_one_at_a_tiny_cutoff():
    # integer columns that sum to 0 on a 16x16 grid, where H's DC row is
    # exactly 1/4: the DC coefficient is exactly 0, every other gain is
    # exactly 1 at cutoff 1e-3, and so both sums are the same sum
    y = np.random.default_rng(9).integers(-3, 4, size=(3, 16, 16)).astype(np.float64)
    assert hfr(make_map(y - np.roll(y, 1, axis=1)), 1e-3) == 1.0


def test_hfr_zero_energy_rejected():
    with pytest.raises(ZeroEnergyFeature):
        hfr(make_map(np.zeros((1, 8, 8))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_map_rejected_with_its_identity(bad):
    values = np.ones((2, 8, 8))
    values[1, 3, 4] = bad
    fmap = make_map(values, image_id="img0007", timestep=42)
    for call in (lambda: hfr(fmap), lambda: decompose(fmap, 3.0), lambda: extract_high_freq(fmap, 3.0),
                 lambda: pool_tokens(fmap)):
        with pytest.raises(NonFiniteValue, match=r"'img0007' \(t=42\)"):
            call()


# The two tests below hold hfr within 1e-15 relative of the exactly rounded
# per-step reference; hfr rounds its chunk sums, so the bits may differ.
@pytest.mark.parametrize(
    "shape, cutoff, scale",
    [((1, 1, 1), 30.0, 1.0), ((3, 17, 29), 5.0, 1e-200), ((4, 64, 64), 30.0, 1e250),
     ((2, 96, 96), 12.5, 1.0), ((320, 64, 64), 30.0, 3.0),
     # several chunks with a ragged last one; an odd H*W; one channel above a chunk
     ((33, 64, 64), 30.0, 1.0), ((40, 96, 96), 12.5, 1e-200), ((300, 17, 19), 5.0, 1e250),
     ((129, 32, 32), 7.5, 1.0), ((1, 512, 512), 30.0, 1.0),
     # the longest channel sums: a whole chunk of 16x16 or 8x8 channels folds into each P
     ((1280, 16, 16), 5.0, 1.0), ((2000, 8, 8), 1.0, 1e-200)],
)
def test_hfr_bits_match_the_per_step_path(shape, cutoff, scale):
    values = scale * np.random.default_rng(sum(shape)).normal(size=shape)
    want = hfr_per_step(values, cutoff)
    assert abs(hfr(make_map(values), cutoff) - want) <= 1e-15 * want


@pytest.mark.parametrize("chunk", [1, 4097])
@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 17, 29), (40, 17, 29), (3, 64, 64), (130, 8, 8)])
def test_hfr_bits_do_not_depend_on_the_chunk_size(monkeypatch, chunk, shape):
    values = np.random.default_rng(sum(shape)).normal(size=shape)
    monkeypatch.setattr(spectral, "_PIECE", chunk)
    want = hfr_per_step(values, 5.0)
    assert abs(hfr(make_map(values), 5.0) - want) <= 1e-15 * want


def test_hfr_bits_hold_with_threads_scoring_mixed_shapes():
    # each thread keeps its own buffer; a shared one would mix up the maps
    maps = [np.random.default_rng(i).normal(size=shape)
            for i, shape in enumerate([(40, 17, 29), (3, 64, 64), (130, 8, 8), (40, 17, 29)] * 3)]
    want = [hfr(make_map(v), 5.0) for v in maps]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda v: hfr(make_map(v), 5.0), maps * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 4


def hfr_peak_kb(tmp_path, shape):
    """VmHWM of `hfr --threads 1` on one <f4 map of `shape`, in kB."""
    name = "x".join(map(str, shape))
    src = tmp_path / f"{name}.npy"
    write_array(np.random.default_rng(shape[0]).normal(size=shape), src, "f32")
    manifest = tmp_path / f"{name}.json"
    manifest.write_text(json.dumps({"total_timesteps": 1, "entries": [
        {"path": src.name, "image_id": "a", "timestep": 1, "group": ""}]}))
    return cli_peak_rss_kb("hfr", "--threads", "1", "--manifest", manifest,
                           "--out", tmp_path / f"{name}.csv")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_hfr_peak_rss_grows_only_by_the_read_copies(tmp_path):
    # the one float64 array the reader fills for the 448 extra channels,
    # plus slack: the <f4 payload is widened through a fixed staging buffer
    # and the kernel's scratch is fixed too, so neither grows with them
    extra_kb = 448 * 64 * 64 * 8 / 1024
    small, large = hfr_peak_kb(tmp_path, (64, 64, 64)), hfr_peak_kb(tmp_path, (512, 64, 64))
    assert large - small < extra_kb + 3 * 1024, (small, large)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_hfr_peak_rss_of_large_odd_channels_grows_only_by_the_read_copies(tmp_path):
    # each 1023x1023 channel is above a chunk and its size is odd: the chunk
    # sums add one partial per chunk, not per element
    extra_kb = 2 * 1023 * 1023 * 8 / 1024  # the float64 array of the two extra channels
    small, large = hfr_peak_kb(tmp_path, (1, 1023, 1023)), hfr_peak_kb(tmp_path, (3, 1023, 1023))
    assert large - small < extra_kb + 4 * 1024, (small, large)


def decompose_peak_kb(tmp_path, channels):
    """VmHWM of `decompose` on one <f4 map of channels x 64 x 64, in kB."""
    src = tmp_path / f"{channels}.npy"
    write_array(np.random.default_rng(channels).normal(size=(channels, 64, 64)), src, "f32")
    return cli_peak_rss_kb("decompose", "--tensor", src, "--out-high", tmp_path / f"{channels}_high.npy",
                           "--out-low", tmp_path / f"{channels}_low.npy")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_decompose_peak_rss_grows_by_its_input_and_two_parts(tmp_path):
    # the float64 input, the high part and the low part grow with the 256
    # extra channels, three float64 map-deltas (24 MiB); the filter's scratch
    # and the f64 parts' encoding, views of the parts, do not. A whole-map
    # filter also holds a scaled copy and Z: about 40 MiB in all.
    delta_kb = 256 * 64 * 64 * 8 / 1024
    small, large = decompose_peak_kb(tmp_path, 64), decompose_peak_kb(tmp_path, 320)
    assert large - small < 3.5 * delta_kb, (small, large)


def test_non_finite_peak_is_the_nan_check():
    # NaN anywhere and +-Inf at either end of the range: max |x| is not finite
    for bad, where in ((np.nan, 0), (np.inf, -1), (-np.inf, 5)):
        values = np.linspace(-1.0, 1.0, 2 * 6 * 6).reshape(2, 6, 6)
        values.flat[where] = bad
        with pytest.raises(NonFiniteValue, match="contains NaN or Inf"):
            hfr(make_map(values))


def test_hfr_bad_cutoff_rejected():
    with pytest.raises(NonPositiveCutoff):
        hfr(rand_map(1, 8, 8, 0), 0.0)


@pytest.mark.parametrize("cutoff", [np.inf, -np.inf, np.nan])
def test_non_finite_cutoff_rejected(cutoff):
    with pytest.raises(NonPositiveCutoff, match="must be finite and > 0"):
        decompose(rand_map(1, 8, 8, 0), cutoff)
    with pytest.raises(NonPositiveCutoff):
        hfr(rand_map(1, 8, 8, 0), cutoff)


@pytest.mark.parametrize("cutoff", [1e-300, 1e-200, 1e-160])
def test_tiny_cutoff_gives_the_mean_removed_ratio(cutoff):
    # below ~1.5e-154, 2 * cutoff^2 underflows to 0; the gains must still be
    # those of any cutoff far below one bin: zero at DC, one elsewhere
    fmap = rand_map(2, 9, 8, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hfr(fmap, cutoff) == hfr(fmap, 1e-3)


def test_hfr_independent_of_channel_order():
    fmap = rand_map(4, 8, 8, 21)
    swapped = make_map(fmap.values[::-1])
    assert hfr(fmap, 6.0) == pytest.approx(hfr(swapped, 6.0), abs=1e-15)


# --- filtering and decomposition ---------------------------------------------------

def test_extract_matches_spectral_numerator():
    # Parseval ties the filtered map's spatial energy to the hfr numerator
    fmap = rand_map(2, 12, 10, 3)
    high = extract_high_freq(fmap, 4.0)
    assert energy(high) / energy(fmap) == pytest.approx(hfr(fmap, 4.0), rel=1e-10)


def test_filter_exact_under_pow2_scaling_up_to_the_float64_limit():
    # the DC coefficient of this 64x64 map is ~64 * max |x|: unscaled, it
    # would overflow past 2^1018 and turn the whole filtered map to NaN
    values = 1.0 + 0.1 * np.random.default_rng(6).normal(size=(2, 64, 64))
    for exponent in (-1000, 1018):
        big = make_map(np.ldexp(values, exponent))
        want = np.ldexp(extract_high_freq(make_map(values), 3.0).values, exponent)
        assert np.array_equal(extract_high_freq(big, 3.0).values, want)
        assert np.array_equal(decompose(big, 3.0).low.values, big.values - want)


# (40, 64, 64): chunks of 16 channels and a ragged one of 8; (3, 300, 700):
# each channel above a chunk; (300, 17, 19): 202 channels and a ragged 98.
# Every other chunk's peak is 1e5 above its neighbours'.
@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("shape", [(40, 64, 64), (3, 300, 700), (300, 17, 19)])
def test_filter_bits_match_the_whole_map_path(shape, scale):
    c, h, w = shape
    per_chunk = max(1, spectral._PIECE // (h * w))
    apart = np.where(np.arange(c) // per_chunk % 2, 1e5, 1.0)[:, None, None]
    values = scale * apart * np.random.default_rng(sum(shape)).normal(size=shape)
    want = high_freq_whole_map(values, 12.5)
    fmap = make_map(values)
    parts = decompose(fmap, 12.5)
    assert extract_high_freq(fmap, 12.5).values.tobytes() == want.tobytes()
    assert parts.high.values.tobytes() == want.tobytes()
    assert parts.low.values.tobytes() == (values - want).tobytes()


def test_extract_impulse_recovers_mask_kernel():
    # filtering white input by a flat-one mask is the identity
    fmap = rand_map(1, 8, 8, 4)
    high = extract_high_freq(fmap, 1e-9)  # gains ~ 1 off DC
    dc_term = fmap.values.mean()
    assert np.allclose(high.values, fmap.values - dc_term, atol=1e-10)


def test_decompose_recomposes_within_tolerance():
    fmap = rand_map(3, 9, 7, 8)
    parts = decompose(fmap, 3.0)
    recomposed = parts.high.values + parts.low.values
    scale = float(np.max(np.abs(fmap.values)))
    assert np.max(np.abs(recomposed - fmap.values)) <= 1e-9 * scale
    assert parts.high.meta == fmap.meta and parts.low.meta == fmap.meta


def test_low_pass_part_keeps_dc():
    fmap = make_map(np.full((1, 6, 6), 2.5))
    parts = decompose(fmap, 3.0)
    # constant input is pure DC: high part vanishes, low part is the input
    assert np.allclose(parts.high.values, 0.0, atol=1e-12)
    assert np.allclose(parts.low.values, fmap.values, atol=1e-12)
