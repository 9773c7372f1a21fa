"""The closed-form high-pass kernel checked against the Fourier definition.

No FFT is involved anywhere: ``extract_high_freq`` computes
H_h @ (G * Z) @ H_w with Z = H_h @ X @ H_w, in the real orthonormal
Hartley basis H, instead of a complex spectrum. Each test here states what
that kernel must equal in Fourier terms, Re(IDFT(g * DFT(x))) with g the
gains of ``util.reference_gains``, and evaluates the DFT straight from its
definition.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqsel import decompose, extract_high_freq, hfr

from util import energy, fourier_high, kernel_gains, make_map, naive_dft2, reference_gains, rel_err

PRIME_SIZES = (2, 3, 5, 7, 11, 13, 17, 31)
MIXED_SIZES = (1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 27, 32)


def rand_real(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


@pytest.mark.parametrize("n", PRIME_SIZES + MIXED_SIZES)
def test_fft_1d_matches_definition(n):
    # a 1 x n map isolates the width factor B: the height factor of size 1 is [[1]]
    x = rand_real((n,), n)
    cutoff = 1.5 + n / 8.0
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n)
    want = (np.conj(dft) @ (reference_gains(1, n, cutoff)[0] * (dft @ x))).real / n
    assert rel_err(extract_high_freq(make_map(x[None, :]), cutoff).values[0, 0], want) < 1e-12


@pytest.mark.parametrize("h", (1, 4, 7, 13, 16))
@pytest.mark.parametrize("w", (1, 5, 8, 27, 31))
def test_fft2_matches_definition(h, w):
    x = rand_real((2, h, w), h * 100 + w)
    cutoff = 0.5 + (h + w) / 6.0
    got = extract_high_freq(make_map(x), cutoff).values
    assert rel_err(got, fourier_high(x, reference_gains(h, w, cutoff))) < 1e-12


def test_batched_equals_per_channel():
    x = rand_real((5, 12, 9), 3)
    batched = extract_high_freq(make_map(x), 2.5).values
    for c in range(5):
        assert np.array_equal(batched[c], extract_high_freq(make_map(x[c][None]), 2.5).values[0])


@pytest.mark.parametrize("h,w", [(8, 8), (7, 5), (16, 12), (31, 31)])
def test_roundtrip(h, w):
    # a cutoff far beyond the grid makes every gain ~0, so the low part is
    # the map itself
    x = rand_real((1, h, w), h + w)
    parts = decompose(make_map(x), 1e8)
    assert rel_err(parts.low.values, x) < 1e-12
    assert np.linalg.norm(parts.high.values) < 1e-12 * np.linalg.norm(x)
    v = rand_real((1, w), w)
    low = decompose(make_map(v), 1e8).low.values[0]
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
    gains = reference_gains(h, w, cutoff)
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

    def high(v):
        return extract_high_freq(make_map(v), 3.0).values

    assert rel_err(high(a * x + b * y), a * high(x) + b * high(y)) < 1e-11


def test_known_transforms():
    # impulse at the origin -> the inverse DFT of the gain grid
    imp = np.zeros((6, 6))
    imp[0, 0] = 1.0
    kernel = np.conj(naive_dft2(reference_gains(6, 6, 1.5))).real / 36.0
    assert np.allclose(extract_high_freq(make_map(imp), 1.5).values[0], kernel, atol=1e-12)
    # constant map -> all energy in the DC bin, whose gain is zero
    const = np.ones((4, 10))
    parts = decompose(make_map(const), 2.0)
    assert np.abs(parts.high.values).max() < 1e-12
    assert np.allclose(parts.low.values, 1.0, atol=1e-12)


def test_real_input_conjugate_symmetry():
    # conjugate-symmetric real gains make the filter self-adjoint: <Hx, y> == <x, Hy>
    x = rand_real((8, 12), 9)
    y = rand_real((8, 12), 10)
    hx = extract_high_freq(make_map(x), 2.0).values[0]
    hy = extract_high_freq(make_map(y), 2.0).values[0]
    assert abs(np.sum(hx * y) - np.sum(x * hy)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


@pytest.mark.parametrize("h,w", [(2, 2), (3, 3), (4, 6), (5, 8), (7, 7)])
def test_shift_roundtrip_all_parities(h, w):
    # a convolution commutes with circular shifts: shift by half the
    # grid, filter, shift back, and the filtered map comes out
    x = rand_real((2, h, w), 10 * h + w)
    half = (h // 2, w // 2)
    back = np.roll(extract_high_freq(make_map(np.roll(x, half, axis=(1, 2))), 1.5).values,
                   (-half[0], -half[1]), axis=(1, 2))
    assert rel_err(back, extract_high_freq(make_map(x), 1.5).values) < 1e-12


def test_shift_documented_layout():
    # d(k) is the centred bin distance: in DFT layout the DC bin [0, 0] is the
    # only zero gain, and the bin farthest from DC, (h // 2, w // 2), the largest
    for h, w in ((2, 2), (5, 4), (6, 9)):
        gains = kernel_gains(h, w, 1.0)
        assert abs(gains[0, 0]) < 1e-12
        assert np.count_nonzero(np.abs(gains) < 1e-6) == 1
        assert gains.max() - gains[h // 2, w // 2] < 1e-12


def test_input_left_untouched():
    x = rand_real((2, 8, 8), 2)
    fmap = make_map(x)
    before = fmap.values.copy()
    extract_high_freq(fmap, 2.0)
    decompose(fmap, 2.0)
    hfr(fmap, 2.0)
    assert np.array_equal(fmap.values, before)
    assert np.array_equal(fmap.values, x)
