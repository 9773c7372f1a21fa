"""Fourier-definition checks for the closed-form high-pass kernel.

``extract_high_freq`` computes X - A @ X @ B with real circulant factors
instead of transforming to the frequency domain. Each test here states
what that kernel must equal in Fourier terms, Re(IDFT(g * DFT(x))) with g
the mask gains, and evaluates the DFT straight from its definition.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsel import decompose, energy, extract_high_freq, gaussian_highpass_mask, hfr

from util import make_map, naive_dft2, rel_err

PRIME_SIZES = (2, 3, 5, 7, 11, 13, 17, 31)
MIXED_SIZES = (1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 27, 32)


def rand_real(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def fourier_high(x, gains):
    """Re(IDFT(gains * DFT(x))) per channel, both transforms from the definition."""
    h, w = x.shape[-2], x.shape[-1]
    # inverse DFT through the forward oracle: conj(DFT(conj(Y))) / (H*W)
    return np.conj(naive_dft2(np.conj(gains * naive_dft2(x)))).real / (h * w)


@pytest.mark.parametrize("n", PRIME_SIZES + MIXED_SIZES)
def test_fft_1d_matches_definition(n):
    # a 1 x n map isolates the width factor B: the height factor of size 1 is [[1]]
    x = rand_real((n,), n)
    mask = gaussian_highpass_mask(1, n, 1.5 + n / 8.0)
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n)
    want = (np.conj(dft) @ (mask.unshifted()[0] * (dft @ x))).real / n
    assert rel_err(extract_high_freq(make_map(x[None, :]), mask).values[0, 0], want) < 1e-12


@pytest.mark.parametrize("h", (1, 4, 7, 13, 16))
@pytest.mark.parametrize("w", (1, 5, 8, 27, 31))
def test_fft2_matches_definition(h, w):
    x = rand_real((2, h, w), h * 100 + w)
    mask = gaussian_highpass_mask(h, w, 0.5 + (h + w) / 6.0)
    got = extract_high_freq(make_map(x), mask).values
    assert rel_err(got, fourier_high(x, mask.unshifted())) < 1e-12


def test_batched_equals_per_channel():
    x = rand_real((5, 12, 9), 3)
    mask = gaussian_highpass_mask(12, 9, 2.5)
    batched = extract_high_freq(make_map(x), mask).values
    for c in range(5):
        assert np.array_equal(batched[c], extract_high_freq(make_map(x[c][None]), mask).values[0])


@pytest.mark.parametrize("h,w", [(8, 8), (7, 5), (16, 12), (31, 31)])
def test_roundtrip(h, w):
    # a cutoff far beyond the grid makes every factor e(k) = 1, so the low-pass
    # circulants are the DFT followed by its inverse: the identity
    x = rand_real((1, h, w), h + w)
    parts = decompose(make_map(x), gaussian_highpass_mask(h, w, 1e8))
    assert rel_err(parts.low.values, x) < 1e-12
    assert np.linalg.norm(parts.high.values) < 1e-12 * np.linalg.norm(x)
    v = rand_real((1, w), w)
    low = decompose(make_map(v), gaussian_highpass_mask(1, w, 1e8)).low.values[0]
    assert rel_err(low, v) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=20),
    w=st.integers(min_value=1, max_value=20),
    cutoff=st.floats(min_value=0.5, max_value=60.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_parseval(h, w, cutoff, seed):
    x = rand_real((h, w), seed)
    power = np.abs(naive_dft2(x)) ** 2
    gains = gaussian_highpass_mask(h, w, cutoff).unshifted()
    assert rel_err(energy(make_map(x)), np.sum(power) / (h * w)) <= 1e-10
    assert rel_err(hfr(make_map(x), cutoff), np.sum(gains**2 * power) / np.sum(power)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(min_value=1, max_value=16),
    w=st.integers(min_value=1, max_value=16),
    a=st.floats(min_value=-10, max_value=10, allow_subnormal=False),
    b=st.floats(min_value=-10, max_value=10, allow_subnormal=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_linearity(h, w, a, b, seed):
    x = rand_real((h, w), seed)
    y = rand_real((h, w), seed + 1)
    mask = gaussian_highpass_mask(h, w, 3.0)

    def high(v):
        return extract_high_freq(make_map(v), mask).values

    assert rel_err(high(a * x + b * y), a * high(x) + b * high(y)) < 1e-11


def test_known_transforms():
    # impulse at the origin -> the inverse DFT of the gain grid
    imp = np.zeros((6, 6))
    imp[0, 0] = 1.0
    mask = gaussian_highpass_mask(6, 6, 1.5)
    kernel = np.conj(naive_dft2(mask.unshifted())).real / 36.0
    assert np.allclose(extract_high_freq(make_map(imp), mask).values[0], kernel, atol=1e-12)
    # constant map -> all energy in the DC bin, whose gain is zero
    const = np.ones((4, 10))
    parts = decompose(make_map(const), gaussian_highpass_mask(4, 10, 2.0))
    assert np.abs(parts.high.values).max() < 1e-12
    assert np.allclose(parts.low.values, 1.0, atol=1e-12)


def test_real_input_conjugate_symmetry():
    # conjugate-symmetric real gains make the filter self-adjoint: <Hx, y> == <x, Hy>
    x = rand_real((8, 12), 9)
    y = rand_real((8, 12), 10)
    mask = gaussian_highpass_mask(8, 12, 2.0)
    hx = extract_high_freq(make_map(x), mask).values[0]
    hy = extract_high_freq(make_map(y), mask).values[0]
    assert abs(np.sum(hx * y) - np.sum(x * hy)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


@pytest.mark.parametrize("h,w", [(2, 2), (3, 3), (4, 6), (5, 8), (7, 7)])
def test_shift_roundtrip_all_parities(h, w):
    mask = gaussian_highpass_mask(h, w, 1.5)
    assert np.array_equal(np.roll(mask.unshifted(), (h // 2, w // 2), axis=(0, 1)), mask.gains)
    assert mask.unshifted()[0, 0] == 0.0
    assert mask.gains[h // 2, w // 2] == 0.0


def test_shift_documented_layout():
    # 2x2: centring swaps quadrants
    mask = gaussian_highpass_mask(2, 2, 1.0)
    assert np.array_equal(mask.gains, mask.unshifted()[::-1, ::-1])
    # the DC bin at [0, 0] sits at the centre bin (floor(n/2)) and is the only zero
    gains = gaussian_highpass_mask(5, 4, 1.0).gains
    assert gains[2, 2] == 0.0 and np.count_nonzero(gains == 0.0) == 1


def test_input_left_untouched():
    x = rand_real((2, 8, 8), 2)
    fmap = make_map(x)
    before = fmap.values.copy()
    mask = gaussian_highpass_mask(8, 8, 2.0)
    extract_high_freq(fmap, mask)
    decompose(fmap, mask)
    hfr(fmap, 2.0)
    assert np.array_equal(fmap.values, before)
    assert np.array_equal(fmap.values, x)
