import copy
import warnings

import numpy as np
import pytest

from conftest import small_spec
from gutzmerlab.grids import QuadratureSpec, fft_grid
from gutzmerlab.heatlab import (
    HeatError,
    gauss_bessel_check,
    heat_apply,
    heat_image_c,
    heat_image_norm,
    lemma63_check,
    thm35_converse_tail,
    thm35_forward,
    twisted_heat_kernel,
)
from gutzmerlab.hermite_modes import ModalSlice, ModalSliceND, multiindices_upto
from gutzmerlab.specfun import laguerre_phi
from gutzmerlab.spectral import (
    GridFunction,
    LambdaGrid,
    SpectralData,
    analyze,
    synth_bandlimited,
)
from twisted_conv_oracle import twisted_conv

BOX = [(k, lam, t, n) for n in (1, 2) for k in (0, 1, 4)
       for lam in (0.25, 1.0) for t in (0.1, 0.5)]


class TestGaussHeat:
    """At lam = 0 the twisted heat kernel is the Gauss heat kernel
    (4 pi t)^{-n} e^{-|w|^2/(4t)} on R^{2n}."""

    x = np.linspace(-30, 30, 601)
    h = x[1] - x[0]
    rho = x[:, None] ** 2 + x[None, :] ** 2

    def test_normalization(self):
        vals = twisted_heat_kernel(0.0, 0.7, self.rho)
        assert np.sum(vals) * self.h ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_exponential_moment_oracle(self):
        # integral e^{a.w} p_t(w) dw = e^{|a|^2 t}
        t, a = 0.4, 1.3
        vals = twisted_heat_kernel(0.0, t, self.rho) * np.exp(a * self.x)[:, None]
        assert np.sum(vals) * self.h ** 2 == pytest.approx(np.exp(a * a * t), rel=1e-9)

    def test_semigroup(self):
        # twisted convolution at lam = 0 is plain convolution: p_t * p_s = p_{t+s}
        t, s = 0.3, 0.5
        xg = fft_grid(48, 11.0)
        rho = xg[:, None] ** 2 + xg[None, :] ** 2
        f1 = twisted_heat_kernel(0.0, t, rho) + 0j
        f2 = twisted_heat_kernel(0.0, s, rho) + 0j
        conv = twisted_conv(f1, f2, 0.0, xg, xg)
        ref = twisted_heat_kernel(0.0, t + s, rho)
        assert np.max(np.abs(conv - ref)) < 1e-7

    def test_bad_time(self):
        with pytest.raises(HeatError):
            twisted_heat_kernel(0.0, -0.1, 0.0)


class TestGaussBessel:
    @pytest.mark.parametrize("k,lam,t,n", BOX)
    def test_identity_box(self, k, lam, t, n):
        assert gauss_bessel_check(k, lam, t, n) <= 1e-6

    def test_lambda_to_zero_reduces(self):
        assert gauss_bessel_check(0, 1e-6, 0.25, 1) <= 1e-6

    def test_t_to_zero_value_goes_to_one(self):
        # heat kernel -> delta: both sides -> 1
        assert gauss_bessel_check(2, 1.0, 1e-4, 1) <= 1e-5


class TestHeatApply:
    def test_zero_time_identity(self, fixture_small):
        _, _, sd = fixture_small
        assert heat_apply(sd, 0.0) is sd

    def test_semigroup(self, fixture_small):
        _, _, sd = fixture_small
        a = heat_apply(heat_apply(sd, 0.2), 0.3)
        b = heat_apply(sd, 0.5)
        assert np.max(np.abs(a.norms2 - b.norms2)) < 1e-14 * np.max(b.norms2)
        assert np.max(np.abs(a.projections[3] - b.projections[3])) < 1e-14

    def test_single_mode_scaling(self, fixture_small):
        _, _, sd = fixture_small
        t = 0.3
        sdh = heat_apply(sd, t)
        ks, js = np.nonzero(sd.norms2)
        k0, j0 = int(ks[0]), int(js[0])
        lam0 = sd.lam[j0]
        want = sd.norms2[k0, j0] * np.exp(-2 * t * lam0 ** 2 - 2 * (2 * k0 + 1) * abs(lam0) * t)
        assert sdh.norms2[k0, j0] == pytest.approx(want, rel=1e-12)

    def test_mode_list_slices(self):
        # n = 2 slices built from mode lists heat to the same coefficients as
        # the plain ModalSlice of the same tensor, keep their class, and the
        # input is left as it was
        rng = np.random.default_rng(5)
        lgrid = LambdaGrid(np.array([-0.8, 0.4, 1.2]), 0.4, np.ones(3))
        modes = [(alpha, beta) for beta in multiindices_upto(2, 2)
                 for alpha in multiindices_upto(2, 1)]
        coefs = rng.normal(size=(3, len(modes))) + 1j * rng.normal(size=(3, len(modes)))
        nd_modal = [ModalSliceND(lv, 2, modes, c) for lv, c in zip(lgrid.lam, coefs)]
        grid = fft_grid(8, 5.0)
        nd, dense = (SpectralData(n=2, lgrid=lgrid, kmax=2, xgrid=grid, ugrid=grid,
                                  norms2=np.stack([ms.proj_norms2(2) for ms in modal], axis=1),
                                  modal=modal, tail=np.zeros(3))
                     for modal in (nd_modal, [ModalSlice(ms.lam, ms.coef) for ms in nd_modal]))
        before = [ms.coef.copy() for ms in nd.modal]
        got, want = heat_apply(nd, 0.3), heat_apply(dense, 0.3)
        assert np.array_equal(got.norms2, want.norms2)
        for g, w, old, ms in zip(got.modal, want.modal, before, nd.modal):
            assert type(g) is ModalSliceND and g.lam == w.lam
            assert np.array_equal(g.coef, w.coef) and not np.array_equal(g.coef, old)
            assert np.array_equal(ms.coef, old)


class TestHeatImage:
    def test_t_independent(self, fixture_small):
        _, f, sd = fixture_small
        vals = [heat_image_norm(heat_apply(sd, t), t) for t in (0.1, 0.2, 0.4)]
        spread = (max(vals) - min(vals)) / vals[0]
        assert spread <= 1e-3

    def test_equals_frozen_constant_times_norm(self, fixture_small):
        _, f, sd = fixture_small
        v = heat_image_norm(heat_apply(sd, 0.2), 0.2)
        assert v == pytest.approx(heat_image_c(1) * f.squared_norm(), rel=1e-9)

    def test_empty_high_cells_do_not_overflow(self):
        # at kmax 80 the gain exponent of empty high-k cells overflows exp
        spec = QuadratureSpec(kmax=80)
        f, sd = synth_bandlimited(5.0, 30.0, 42, spec=spec)
        v = heat_image_norm(heat_apply(sd, 0.4), 0.4)
        assert np.isfinite(v)
        assert v == pytest.approx(heat_image_c(1) * f.squared_norm(), rel=1e-3)

    def test_zero_function(self, fixture_small):
        _, _, sd0 = fixture_small
        sd = copy.copy(sd0)
        sd.norms2 = np.zeros_like(sd0.norms2)
        assert heat_image_norm(heat_apply(sd, 0.1), 0.1) == 0.0

    def test_quadratic_scaling(self, fixture_small):
        _, _, sd0 = fixture_small
        sd = copy.copy(sd0)
        sd.norms2 = 4.0 * sd0.norms2  # |2 f|^2
        v0 = heat_image_norm(heat_apply(sd0, 0.1), 0.1)
        v1 = heat_image_norm(heat_apply(sd, 0.1), 0.1)
        assert v1 == pytest.approx(4.0 * v0, rel=1e-12)


class TestTwistedHeatKernel:
    def test_lambda_to_zero_limit(self):
        t, rho = 0.7, 2.3
        got = twisted_heat_kernel(1e-10, t, rho)
        want = (4 * np.pi) ** -1 * (1 / t) * np.exp(-rho / (4 * t))
        assert got == pytest.approx(want, rel=1e-9)

    def test_positive_at_real_arguments(self):
        for lam in (-1.2, 0.4, 2.0):
            for t in (0.1, 1.0):
                for rho in (0.0, 3.0, 20.0):
                    assert np.real(twisted_heat_kernel(lam, t, rho)) > 0

    @pytest.mark.parametrize("lam,k,t", [(1.0, 0, 0.5), (1.0, 2, 0.5), (-0.8, 1, 0.4)])
    def test_laguerre_eigenrelation_oracle(self, lam, k, t):
        # phi_k *_lam p_t^lam = e^{-(2k+1)|lam| t} phi_k via twisted_conv
        N, L = 48, 11.0
        xg = fft_grid(N, L)
        rho = np.abs(xg[:, None] + 1j * xg[None, :]) ** 2
        phik = np.real(laguerre_phi(k, 0, rho, lam)) + 0j
        pt = np.real(twisted_heat_kernel(lam, t, rho)) + 0j
        conv = twisted_conv(phik, pt, lam, xg, xg)
        want = np.exp(-(2 * k + 1) * abs(lam) * t) * phik
        assert np.max(np.abs(conv - want)) <= 1e-4 * np.max(np.abs(want))

    def test_bad_time(self):
        with pytest.raises(HeatError):
            twisted_heat_kernel(1.0, 0.0, 1.0)


class TestLemma63:
    @pytest.mark.parametrize("k,lam,t", [(k, lam, t) for k in (0, 1, 4)
                                         for lam in (0.25, 1.0) for t in (0.1, 0.5)])
    def test_identity_box_n1(self, k, lam, t):
        assert lemma63_check(k, lam, t, 1) <= 1e-5

    def test_n2(self):
        assert lemma63_check(2, 0.5, 0.3, 2) <= 1e-5

    def test_ratio_between_levels(self):
        # target ratio k=1 vs k=0 at n=1 is e^{2 lam t}
        lam, t = 1.0, 0.5
        r0 = lemma63_check(0, lam, t, 1)
        r1 = lemma63_check(1, lam, t, 1)
        assert max(r0, r1) <= 1e-5  # both match their targets, ratio implied

    def test_small_lambda_gaussian_moment(self):
        assert lemma63_check(2, 1e-3, 0.5, 1) <= 1e-5

    def test_zero_lambda_refused(self):
        # refused before coth(|lam| t) divides by sinh(0)
        with pytest.raises(HeatError, match="zero central parameter"):
            lemma63_check(1, 0.0, 0.5)


@pytest.fixture(scope="module")
def positive_sd():
    spec = small_spec()
    _, sd = synth_bandlimited(1.0, 5.0, seed=13, spec=spec)
    sd.norms2[:, sd.lam < 0] = 0.0
    for j, lv in enumerate(sd.lam):
        if lv < 0:
            sd.modal[j].coef[:] = 0.0
    return sd


class TestThm35:

    def test_forward_bound(self, positive_sd):
        bl = positive_sd.achieved_band()
        rep = thm35_forward(positive_sd, bl.A, bl.B)
        assert rep["passes"]
        assert rep["max_slope"] <= rep["slope_bound"]

    def test_scaled_values_bounded_in_t(self, positive_sd):
        bl = positive_sd.achieved_band()
        rep = thm35_forward(positive_sd, bl.A, bl.B, t_grid=(1.0, 2.0, 4.0))
        for pt in rep["points"]:
            assert pt["sup_scaled"] < np.inf

    def test_long_t_grid_stays_finite(self, positive_sd):
        # 2 t lambda reaches 800 at lambda = 1, t = 400, where sinh overflows
        bl = positive_sd.achieved_band()
        assert np.max(positive_sd.lam[np.any(positive_sd.norms2 > 0, axis=0)]) >= 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = thm35_forward(positive_sd, bl.A, bl.B, t_grid=(2, 4, 8, 16, 32, 400))
        for pt in rep["points"]:
            assert np.all(np.isfinite(pt["values"])) and np.all(np.asarray(pt["values"]) > 0)
            assert np.isfinite(pt["slope"])

    def test_single_mode_slope_bound(self):
        spec = small_spec()
        _, sd = synth_bandlimited(1.0, 5.0, seed=4, spec=spec)
        from test_complexification import single_cell

        j0 = int(np.argmin(np.abs(sd.lam - 0.875)))
        sd = single_cell(sd, 1, j0, 1.0)
        lam0 = sd.lam[j0]
        rep = thm35_forward(sd, lam0, (2 * 1 + 1) * lam0)
        assert rep["max_slope"] <= 2 * (lam0 ** 2 + 3 * lam0)

    def test_nonpositive_time_rejected(self, positive_sd):
        with pytest.raises(HeatError, match="positive"):
            thm35_forward(positive_sd, 1.0, 5.0, t_grid=(0.0, 1.0))

    def test_negative_mass_rejected(self, fixture_small):
        _, _, sd = fixture_small
        with pytest.raises(HeatError, match="lambda < 0"):
            thm35_forward(sd, 1.0, 5.0)

    def test_tail_supported(self, positive_sd):
        bl = positive_sd.achieved_band()
        rep = thm35_converse_tail(positive_sd, bl.B)
        assert rep["verdict"] == "supported"

    def test_tail_violated_by_planted_cell(self, positive_sd):
        sd = copy.copy(positive_sd)
        sd.norms2 = positive_sd.norms2.copy()
        B = positive_sd.achieved_band().B
        lam_t = 2.0 * B / (2 * 3 + 1)
        j = int(np.argmin(np.abs(sd.lam - lam_t)))
        sd.norms2[3, j] += 0.1
        rep = thm35_converse_tail(sd, B, C=B + 0.5 * B)
        assert rep["verdict"] == "violated"
        assert rep["offending_cells"]

    def test_empty_spectrum_supported(self, positive_sd):
        sd = copy.copy(positive_sd)
        sd.norms2 = np.zeros_like(positive_sd.norms2)
        rep = thm35_converse_tail(sd, 1.0)
        assert rep["verdict"] == "supported"
