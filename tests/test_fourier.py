"""Spectral toolbox checked against closed forms and dense quadrature.

The oracles here are deliberately independent of the code under test:
direct trigonometric evaluation, hand-differentiated formulas, and brute
Riemann sums on dense grids.
"""

import numpy as np
import pytest

from engel import curves, fourier, models
from engel.curves import TrigSeries
from engel.errors import BadDescription

from helpers import assert_channels_bitwise_equal, fd_derivative, resample


def trig_series(s, const, cos_terms, sin_terms):
    """Direct evaluation oracle for a finite trig series."""
    out = np.full_like(np.asarray(s, dtype=float), const)
    for k, a in cos_terms.items():
        out = out + a * np.cos(fourier.TAU * k * s)
    for k, b in sin_terms.items():
        out = out + b * np.sin(fourier.TAU * k * s)
    return out


def trig_series_derivative(s, cos_terms, sin_terms):
    out = np.zeros_like(np.asarray(s, dtype=float))
    for k, a in cos_terms.items():
        out = out - a * fourier.TAU * k * np.sin(fourier.TAU * k * s)
    for k, b in sin_terms.items():
        out = out + b * fourier.TAU * k * np.cos(fourier.TAU * k * s)
    return out


def trig_series_antiderivative(s, const, cos_terms, sin_terms):
    """Closed-form integral from 0 to s."""
    out = const * np.asarray(s, dtype=float)
    for k, a in cos_terms.items():
        out = out + a * np.sin(fourier.TAU * k * s) / (fourier.TAU * k)
    for k, b in sin_terms.items():
        out = out + b * (1.0 - np.cos(fourier.TAU * k * s)) / (fourier.TAU * k)
    return out


def random_series(rng, max_harmonic=10):
    const = rng.normal()
    cos_terms = {k: rng.normal() / k for k in range(1, max_harmonic + 1)}
    sin_terms = {k: rng.normal() / k for k in range(1, max_harmonic + 1)}
    return const, cos_terms, sin_terms


def test_derivative_matches_closed_form():
    rng = np.random.default_rng(11)
    const, cos_t, sin_t = random_series(rng)
    s = fourier.grid(64)
    values = trig_series(s, const, cos_t, sin_t)
    got = fourier.derivative(values)
    want = trig_series_derivative(s, cos_t, sin_t)
    assert np.max(np.abs(got - want)) < 1e-11


def test_derivative_smooth_nonpolynomial():
    # f = exp(sin 2*pi*s) is not band-limited, but at N = 256 the spectral
    # derivative should be converged to machine level.
    s = fourier.grid(256)
    f = np.exp(np.sin(fourier.TAU * s))
    want = fourier.TAU * np.cos(fourier.TAU * s) * f
    got = fourier.derivative(f)
    assert np.max(np.abs(got - want)) < 1e-10


def test_nyquist_mode_handling():
    n = 32
    values = (-1.0) ** np.arange(n)  # pure Nyquist input, cos(pi*n*s) on grid
    assert np.max(np.abs(fourier.derivative(values))) == 0.0
    s = np.array([0.0, 1.0 / (2 * n), 0.31, 0.77])
    got = fourier.Interpolant(values).value(s)
    assert np.allclose(got, np.cos(np.pi * n * s), atol=1e-12)
    # derivative of the interpolant keeps the sine term off-grid
    gotd = fourier.Interpolant(values).value(s, 1)
    assert np.allclose(gotd, -np.pi * n * np.sin(np.pi * n * s), atol=1e-9)


def test_evaluate_off_grid_exact_for_trig():
    rng = np.random.default_rng(7)
    const, cos_t, sin_t = random_series(rng)
    values = trig_series(fourier.grid(64), const, cos_t, sin_t)
    s = rng.uniform(0.0, 1.0, size=40)
    assert np.max(np.abs(fourier.Interpolant(values).value(s) - trig_series(s, const, cos_t, sin_t))) < 1e-12
    assert (
        np.max(
            np.abs(
                fourier.Interpolant(values).value(s, 1)
                - trig_series_derivative(s, cos_t, sin_t)
            )
        )
        < 1e-10
    )


def test_evaluate_scalar_matches_grid():
    rng = np.random.default_rng(3)
    const, cos_t, sin_t = random_series(rng, max_harmonic=5)
    values = trig_series(fourier.grid(32), const, cos_t, sin_t)
    assert fourier.Interpolant(values).value(0.25) == pytest.approx(values[8], abs=1e-13)


def test_antiderivative_closed_form():
    rng = np.random.default_rng(23)
    const, cos_t, sin_t = random_series(rng)
    s = fourier.grid(128)
    values = trig_series(s, const, cos_t, sin_t)
    got, mean = fourier.antiderivative(values)
    want = trig_series_antiderivative(s, const, cos_t, sin_t)
    assert mean == pytest.approx(const, abs=1e-13)
    assert got[0] == 0.0
    assert np.max(np.abs(got - want)) < 1e-12


def test_antiderivative_against_riemann_sum():
    # Independent oracle: midpoint Riemann sum on two million cells.
    f = lambda s: np.exp(np.sin(fourier.TAU * s)) - 0.4 * np.cos(2 * fourier.TAU * s)
    for s_end in (0.37, 0.5, 0.93):
        cells = 2_000_000
        mid = (np.arange(cells) + 0.5) * (s_end / cells)
        oracle = float(np.sum(f(mid))) * (s_end / cells)
        got = fourier.antiderivative_evaluator(f(fourier.grid(512)))(s_end)
        assert got == pytest.approx(oracle, abs=2e-10)


def test_antiderivative_nyquist_sine_off_grid():
    n = 16
    values = (-1.0) ** np.arange(n)
    s = np.array([0.11, 1.0 / (4 * n), 0.6])
    got = fourier.antiderivative_evaluator(values)(s)
    assert np.allclose(got, np.sin(np.pi * n * s) / (np.pi * n), atol=1e-13)
    # and on the grid the samples vanish identically
    got_grid, mean = fourier.antiderivative(values)
    assert mean == 0.0
    assert np.max(np.abs(got_grid)) == 0.0


def test_fd_derivative_is_second_order():
    f = lambda s: np.exp(np.cos(fourier.TAU * s))
    fp = lambda s: -fourier.TAU * np.sin(fourier.TAU * s) * np.exp(np.cos(fourier.TAU * s))
    errs = []
    for n in (128, 256, 512):
        s = fourier.grid(n)
        errs.append(np.max(np.abs(fd_derivative(f(s)) - fp(s))))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_fd_derivative_handles_drift():
    drift = 0.7
    n = 256
    s = fourier.grid(n)
    values = drift * s + np.sin(fourier.TAU * s)
    got = fd_derivative(values, drift=drift)
    want = drift + fourier.TAU * np.cos(fourier.TAU * s)
    assert np.max(np.abs(got - want)) < 2e-3  # h^2 error, no seam artifact
    seam = abs(got[0] - want[0])
    assert seam < 2e-3


# ------------------------------------ helpers.resample, the upsampling oracle


def test_resample_band_limited_exact_both_ways():
    rng = np.random.default_rng(17)
    const, cos_t, sin_t = random_series(rng, max_harmonic=7)
    fine = trig_series(fourier.grid(256), const, cos_t, sin_t)
    coarse = trig_series(fourier.grid(32), const, cos_t, sin_t)
    assert np.max(np.abs(resample(fine, 32) - coarse)) < 1e-12
    assert np.max(np.abs(resample(coarse, 256) - fine)) < 1e-12


def test_resample_agrees_with_evaluate():
    # Upsampling must sample the same interpolant Interpolant evaluates,
    # Nyquist convention included.
    rng = np.random.default_rng(29)
    values = rng.normal(size=16)
    up = resample(values, 64)
    want = fourier.Interpolant(values).value(fourier.grid(64))
    assert np.max(np.abs(up - want)) < 1e-13


def test_resample_roundtrip_after_truncation():
    rng = np.random.default_rng(31)
    values = rng.normal(size=128)
    down = resample(values, 32)
    again = resample(resample(down, 128), 32)
    assert np.max(np.abs(again - down)) < 1e-13


# ------------------------------------------------ chopped shared evaluator


def direct_sum(c, n, s, order):
    """Slow oracle: (2/n) Re sum_k c_k (2 pi i k)^order exp(2 pi i k s),
    one np.exp per harmonic, plus the mean and the half-weight Nyquist
    cosine, over exactly the rfft coefficients c given."""
    s = np.asarray(s, dtype=float)
    out = np.full(s.shape, c[0].real / n if order == 0 else 0.0)
    for k in range(1, c.shape[0]):
        ck = 0.5 * c[k].real if 2 * k == n else c[k]
        out += (2.0 / n) * (ck * (2j * np.pi * k) ** order * np.exp(2j * np.pi * k * s)).real
    return out


def test_shared_evaluator_matches_the_direct_sum_at_full_bandwidth():
    # Noise keeps every harmonic up to Nyquist, the largest the chop can keep.
    n = 16384
    rng = np.random.default_rng(41)
    values = rng.normal(size=n)
    interp = fourier.Interpolant(values)
    assert int(interp.kept[0]) == n // 2 + 1
    c = np.fft.rfft(values)
    s = np.concatenate([rng.uniform(-1.0, 2.0, size=9), fourier.grid(n)[[0, 1, 4097]]])
    got = interp.value(s, (0, 1, 2))
    assert got.shape == (3,) + s.shape
    assert np.allclose(got[0][-3:], values[[0, 1, 4097]], rtol=0.0, atol=1e-12)
    for order in (0, 1, 2):
        scale = (2.0 / n) * np.sum((2 * np.pi * np.arange(c.shape[0])) ** order * np.abs(c))
        want = direct_sum(c, n, s, order)
        assert np.max(np.abs(got[order] - want)) <= 1e-10 * scale
        assert np.max(np.abs(interp.value(s, order) - want)) <= 1e-10 * scale


def test_stacked_channels_match_the_direct_sum_with_exact_drift():
    n = 16384
    s_grid = fourier.grid(n)
    rng = np.random.default_rng(43)
    const, cos_t, sin_t = random_series(rng, max_harmonic=300)
    periodic = trig_series(s_grid, const, cos_t, sin_t)
    rows = [np.cos(fourier.TAU * 7 * s_grid), periodic + 0.75 * s_grid]
    channels = [fourier.Interpolant(rows[0]), fourier.Interpolant(rows[1], drift=0.75)]
    assert [int(p.kept[0]) for p in channels] == [8, 301]
    both = fourier.Interpolant(np.stack(rows), drift=(0.0, 0.75))
    assert_channels_bitwise_equal(both, channels)
    s = rng.uniform(-2.0, 3.0, size=17)
    got = both.value(s, (0, 1, 2))
    assert got.shape == (3, 2, 17)
    for ch, (interp, drift) in enumerate(zip(channels, (0.0, 0.75))):
        c = interp._c[0]
        ramp = (drift * s, np.full_like(s, drift), np.zeros_like(s))
        for order in (0, 1, 2):
            scale = (2.0 / n) * np.sum((2 * np.pi * np.arange(c.shape[0])) ** order * np.abs(c))
            want = direct_sum(c, n, s, order) + ramp[order]
            tol = 1e-12 * max(scale, 1.0)
            assert np.max(np.abs(got[order, ch] - want)) <= tol
            assert np.max(np.abs(interp.value(s, order) - want)) <= tol
    # the drifting channel is the closed-form series plus its exact ramp
    assert np.allclose(got[0, 1], trig_series(s, const, cos_t, sin_t) + 0.75 * s,
                       rtol=0.0, atol=1e-11)
    assert np.allclose(got[1, 1], trig_series_derivative(s, cos_t, sin_t) + 0.75,
                       rtol=0.0, atol=1e-9)


def test_chop_error_on_the_grid_is_bounded_by_the_dropped_coefficients():
    n = 4096
    s = fourier.grid(n)
    smooth = np.exp(np.sin(fourier.TAU * s))
    c_smooth = np.fft.rfft(smooth)
    floor = np.finfo(float).eps * np.sqrt(n) * np.max(np.abs(c_smooth))
    # A cosine whose rfft magnitude sits at half the floor must be dropped.
    amp = 0.5 * floor * 2.0 / n
    values = smooth + amp * np.cos(fourier.TAU * 300 * s)
    interp = fourier.Interpolant(values)
    kept = int(interp.kept[0])
    assert kept < 300
    c = np.fft.rfft(values)
    dropped = (2.0 / n) * np.sum(np.abs(c[kept:]))
    assert dropped >= amp
    err = np.max(np.abs(interp.value(s) - values))
    assert err <= dropped + 8 * np.finfo(float).eps * np.max(np.abs(values))


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_trig_polynomial_of_degree_d_keeps_at_most_d_plus_one(n):
    # Samples accurate to unit roundoff: each phase k*j is reduced mod n
    # in integers before the cosine sees it (TAU * k * s_j would carry an
    # argument error of k * eps, far above the FFT floor at high degree).
    j = np.arange(n)
    rng = np.random.default_rng(n)
    for degree in (0, 1, 7, 60, 200):
        for _ in range(3):
            values = np.full(n, rng.normal())
            for k in range(1, degree + 1):
                a, b = rng.normal(size=2)
                phase = fourier.TAU * ((k * j) % n) / n
                values += a * np.cos(phase) + b * np.sin(phase)
            kept = int(fourier.Interpolant(values).kept[0])
            assert kept <= degree + 1
            # and the chop never cuts into the signal itself
            assert kept == degree + 1


@pytest.mark.parametrize("k", [1, 5, 40])
def test_bound_of_a_cosine_is_its_peak_derivative(k):
    s = fourier.grid(256)
    interp = fourier.Interpolant(np.cos(fourier.TAU * k * s))
    for q in range(4):
        assert interp.bound(q) == pytest.approx((fourier.TAU * k) ** q, rel=1e-13)
    # Summed by hand: the mean and the Nyquist cosine (samples (-1)^j) at
    # half share, a cos and a sin at the same k as one harmonic of size 1.
    mixed = fourier.Interpolant(
        0.75 + 0.6 * np.cos(fourier.TAU * k * s) - 0.8 * np.sin(fourier.TAU * k * s)
        + 0.3 * (-1.0) ** np.arange(256)
    )
    for q in range(4):
        want = 0.75 * (q == 0) + (fourier.TAU * k) ** q + 0.3 * (np.pi * 256) ** q
        assert mixed.bound(q) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [256, 4096])
def test_bound_covers_dense_values_of_random_spectra(n):
    rng = np.random.default_rng(n)
    s = fourier.grid(n)
    dense = rng.uniform(0.0, 1.0, 10**5)
    for degree in (3, 20, 60):
        values = np.full(n, rng.normal())
        for k in range(1, degree + 1):
            a, b = rng.normal(size=2) / k
            values += a * np.cos(fourier.TAU * k * s) + b * np.sin(fourier.TAU * k * s)
        drift = rng.normal()
        interp = fourier.Interpolant(values + drift * s, drift=drift)
        for q in range(4):
            # The bound covers the periodic part; the ramp drift * s adds
            # at most |drift| to values on [0, 1) and to first derivatives.
            ramp = abs(drift) if q < 2 else 0.0
            peak = max(
                float(np.max(np.abs(interp.value(part, q))))
                for part in np.array_split(dense, 10)
            )
            assert peak <= interp.bound(q) + ramp


def test_samples_are_the_interpolant_on_the_grid():
    n = 512
    s = fourier.grid(n)
    interp = fourier.Interpolant(np.cos(fourier.TAU * 3 * s) + 0.1 * np.sin(fourier.TAU * 40 * s))
    for q in range(4):
        want = interp.value(s, q)
        assert np.max(np.abs(interp.samples(q) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("order", [1, (0, 2)], ids=["one_order", "orders"])
def test_no_parameters_give_an_empty_value(channels, order):
    s = fourier.grid(16)
    rows = np.cos(fourier.TAU * s) if channels == 1 else np.stack([np.cos(fourier.TAU * s)] * 3)
    interp = fourier.Interpolant(rows)
    got = interp.value(np.array([]), order)
    lead = (2,) if isinstance(order, tuple) else ()
    assert got.shape == lead + ((3,) if channels == 3 else ()) + (0,)
    assert got.dtype == float


@pytest.mark.parametrize("n", [8, 17, 112, 1000])
def test_every_entry_point_refuses_a_grid_size_off_the_rule(n):
    # The rule is held in fourier; the generator refuses with its own class.
    message = "^grid size must be a power of two >= 16, got %d$" % n
    ones = np.ones(n)
    circle = (TrigSeries(cos={1: 1.0}), TrigSeries(sin={1: 1.0}))
    for refused in (
        lambda: fourier.grid(n),
        lambda: fourier.derivative(ones),
        lambda: fourier.Interpolant(ones),
        lambda: curves.sample_generator(circle, n),
        lambda: models.model_front(1, samples=n),
    ):
        with pytest.raises(ValueError, match=message):
            refused()
    with pytest.raises(BadDescription, match=message):
        curves.LegendrianGenerator(ones, ones)
