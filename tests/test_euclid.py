import numpy as np
import pytest

from gutzmerlab.euclid import (
    FlatError,
    FlatFunction,
    flat_band_limit,
    flat_dft_modes,
    flat_fourier,
    flat_gutzmer,
    flat_pw_check,
    flat_synth_bandlimited,
)
from gutzmerlab.grids import fft_grid
from gutzmerlab.specfun import jhat_imag


@pytest.fixture(scope="module")
def flat_fixture():
    return flat_synth_bandlimited(2.0, seed=7)


def gaussian_flat(nx=128, lx=16.0):
    g = fft_grid(nx, lx)
    X1, X2 = np.meshgrid(g, g, indexing="ij")
    return FlatFunction(2, g, np.exp(-(X1 ** 2 + X2 ** 2) / 2.0) + 0j)


class TestFlatFourier:
    def test_gaussian_self_transform_convention(self):
        # fhat(xi) = int f e^{-i xi.x} dx maps e^{-|x|^2/2} to 2 pi e^{-|xi|^2/2}
        f = gaussian_flat()
        lam, ang, vals = flat_fourier(f, n_lam=16, lam_max=4.0, n_angles=8)
        want = 2 * np.pi * np.exp(-lam ** 2 / 2.0)
        got = vals.real
        assert np.max(np.abs(got - want[:, None])) < 1e-8
        assert np.max(np.abs(vals.imag)) < 1e-10

    def test_translation_modulation(self):
        g = fft_grid(128, 16.0)
        h = g[1] - g[0]
        X1, X2 = np.meshgrid(g, g, indexing="ij")
        base = np.exp(-(X1 ** 2 + X2 ** 2) / 2.0)
        f0 = FlatFunction(2, g, base + 0j)
        shift = 4 * h
        f1 = FlatFunction(2, g, np.exp(-((X1 - shift) ** 2 + X2 ** 2) / 2.0) + 0j)
        lam, ang, v0 = flat_fourier(f0, n_lam=8, lam_max=3.0, n_angles=8)
        _, _, v1 = flat_fourier(f1, n_lam=8, lam_max=3.0, n_angles=8)
        xi1 = np.outer(lam, np.cos(ang))
        mod = np.exp(-1j * xi1 * shift)
        assert np.max(np.abs(v1 - v0 * mod)) < 1e-8

    def test_band_limited_round_trip(self, flat_fixture):
        f = flat_fixture
        freqs, amps = flat_dft_modes(f)
        rec = np.zeros_like(f.samples)
        g = f.grid
        X1, X2 = np.meshgrid(g, g, indexing="ij")
        for (f1, f2), a in zip(freqs, amps):
            rec += a * np.exp(1j * (f1 * X1 + f2 * X2))
        assert np.max(np.abs(rec - f.samples)) <= 1e-6 * np.max(np.abs(f.samples))

    @pytest.mark.parametrize("n", [2, 3])
    def test_dft_modes_phase_on_every_axis(self, n):
        # e^{i (pi/L) m.x} at one lattice point m with an odd entry on each
        # axis in turn: the FFT-offset correction (-1)^{m_1+...+m_n} must
        # give amplitude +1 whichever axis carries it
        g = fft_grid(8, 4.0)
        X = np.meshgrid(*([g] * n), indexing="ij")
        for ax in range(n):
            m = np.zeros(n, dtype=int)
            m[ax] = 1
            phase = (np.pi / 4.0) * sum(mj * xj for mj, xj in zip(m, X))
            f = FlatFunction(n, g, np.exp(1j * phase))
            freqs, amps = flat_dft_modes(f)
            assert freqs.shape == (1, n) and np.allclose(freqs[0], m * np.pi / 4.0)
            assert abs(amps[0] - 1.0) <= 1e-12

    def test_aliasing_guard(self):
        f = gaussian_flat()
        with pytest.raises(FlatError, match="alias"):
            flat_fourier(f, lam_max=0.99 * np.pi / f.h)


class TestFlatPhi:
    """The flat spherical kernel phi_lambda(iy) = jhat_{n/2-1}(lam |y|), which
    flat_gutzmer sums against (origin-normalized, real and positive)."""

    def test_removable_singularity(self):
        assert jhat_imag(0.0, 0.0) == pytest.approx(1.0)   # n = 2
        assert jhat_imag(0.5, 0.0) == pytest.approx(1.0)   # n = 3

    def test_n2_is_modified_bessel_growth(self):
        from scipy.special import iv

        for lam, r in [(1.0, 2.0), (0.5, 3.0)]:
            got = jhat_imag(0.0, lam * r)
            assert got == pytest.approx(iv(0, lam * r), rel=1e-10)

    def test_monotone_in_argument(self):
        vals = jhat_imag(0.0, np.array([0.0, 0.5, 1.0, 2.0]))
        assert np.all(np.diff(vals) > 0)

    def test_n3_half_integer_order(self):
        # j_{1/2}(is) normalized at 0 is sinh(s)/s
        y = np.array([0.4, 0.4, 0.2])
        s = 1.3 * np.linalg.norm(y)
        assert jhat_imag(0.5, s) == pytest.approx(np.sinh(s) / s, rel=1e-10)


class TestFlatGutzmer:
    def test_y_zero_is_plancherel(self, flat_fixture):
        f = flat_fixture
        lhs, rhs, rel = flat_gutzmer(f, [0.0, 0.0])
        assert lhs == pytest.approx(f.squared_norm(), rel=1e-10)
        assert rel < 1e-12

    def test_direction_independence(self, flat_fixture):
        f = flat_fixture
        vals = [flat_gutzmer(f, [np.cos(t), np.sin(t)])[0] for t in (0.0, 0.8, 2.3)]
        assert max(vals) - min(vals) <= 1e-9 * max(vals)

    @pytest.mark.parametrize("ymag", [0.5, 1.0, 2.0])
    def test_identity_fixture_suite(self, flat_fixture, ymag):
        lhs, rhs, rel = flat_gutzmer(flat_fixture, [ymag, 0.0])
        assert rel <= 1e-4


class TestFlatPW:
    def test_slope_recovers_band(self, flat_fixture):
        astar = flat_band_limit(flat_fixture)
        fit, a_hat, verdict = flat_pw_check(flat_fixture, astar)
        assert verdict == "ok"
        assert abs(fit.slope - 2 * astar) <= 0.05 * 2 * astar
        assert abs(a_hat - astar) <= 0.05 * astar

    def test_detector_three_radii(self):
        for a in (1.0, 1.5, 2.5):
            f = flat_synth_bandlimited(a, seed=3)
            astar = flat_band_limit(f)
            _, a_hat, verdict = flat_pw_check(f)
            assert verdict == "ok"
            assert abs(a_hat - astar) <= 0.05 * astar

    def test_half_band_slope(self):
        # spectrum inside a/2 keeps the slope at or below a (+5%)
        a = 2.0
        f = flat_synth_bandlimited(a / 2, seed=5)
        fit, a_hat, verdict = flat_pw_check(f)
        assert fit.slope <= a * 1.05

    def test_ray_samples_are_gutzmer_left_sides(self, flat_fixture):
        # the spectrum is taken once per check; each ray point is exactly
        # flat_gutzmer's orbital integral there
        fit, _, _ = flat_pw_check(flat_fixture)
        assert len(fit.samples) == 13
        for y, logv in fit.samples:
            assert logv == np.log(flat_gutzmer(flat_fixture, [y, 0.0])[0])

    def test_zero_inconclusive(self):
        g = fft_grid(64, 8.0)
        f = FlatFunction(2, g, np.zeros((64, 64), complex))
        fit, a_hat, verdict = flat_pw_check(f)
        assert verdict == "inconclusive"


def test_flat_function_validation():
    g = fft_grid(16, 4.0)
    with pytest.raises(FlatError):
        FlatFunction(1, g, np.zeros((16,), complex))
    with pytest.raises(FlatError):
        FlatFunction(2, g, np.zeros((16, 15), complex))
