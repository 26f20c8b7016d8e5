"""The log-domain spectral sums behind gutzmer_spectral, apply_D and
thm35_forward: against the scalar per-cell loops they replaced, on long
growth rays, and as properties of random admissible spectra."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_spectral import N2_SPEC, n2_gridfn, pair_fits_modes
from gutzmerlab.complexification import (
    RayPlan,
    apply_D,
    detect_bandlimit,
    gutzmer_spectral,
    pw_forward_check,
)
from gutzmerlab.grids import QuadratureSpec, fft_grid
from gutzmerlab.heatlab import heat_apply, thm35_forward, twisted_heat_kernel
from gutzmerlab.heisenberg_core import ComplexPoint
from gutzmerlab.hermite_modes import ModalSlice, ModalSliceND, multiindices, multiindices_upto
from gutzmerlab.specfun import bessel_j_norm, binom_weight, laguerre_phi
from gutzmerlab.spectral import LambdaGrid, SpectralData, analyze, synth_bandlimited


def imag_pt(y, v, eta):
    y, v = np.atleast_1d(y), np.atleast_1d(v)
    return ComplexPoint.purely_imaginary(list(y), list(v), eta)


# ---------------------------------------------------------------------------
# the scalar double loops, one special-function call per (k, lambda) cell
# ---------------------------------------------------------------------------

def loop_gutzmer(sd, p):
    r2 = float(np.sum(p.zi ** 2) + np.sum(p.wi ** 2))
    total = 0.0
    for j, lv in enumerate(sd.lam):
        acc = 0.0
        for k in range(sd.kmax + 1):
            if sd.norms2[k, j] == 0.0:
                continue
            phi = laguerre_phi(k, sd.n - 1, -4.0 * r2, lv)
            acc += sd.norms2[k, j] * binom_weight(k, sd.n) * float(np.real(phi))
        total += sd.wmu[j] * np.exp(2.0 * lv * p.zeta_i) * acc
    return float(total)


def loop_apply_D(sd, p):
    r = np.sqrt(float(np.sum(p.zi ** 2) + np.sum(p.wi ** 2)))
    total = 0.0
    for j, lv in enumerate(sd.lam):
        acc = 0.0
        for k in range(sd.kmax + 1):
            if sd.norms2[k, j] == 0.0:
                continue
            a = np.sqrt((2 * k + sd.n) * abs(lv))
            acc += sd.norms2[k, j] * float(np.real(bessel_j_norm(sd.n - 1, 2j * a * r)))
        total += sd.wmu[j] * np.exp(2.0 * lv * p.zeta_i) * acc
    return float(total)


def loop_thm35_values(sd, alpha, beta, t_grid=(1.0, 2.0, 4.0),
                      points=((0.25,), (0.5,), (1.0,))):
    out = []
    for (r,) in points:
        r2 = r * r
        vals = []
        for t in t_grid:
            acc = 0.0
            for j, lv in enumerate(sd.lam):
                if lv <= 0 or lv > alpha + 1e-12:
                    continue
                pk = np.real(twisted_heat_kernel(lv, 2.0 * t, 16.0 * r2, n=sd.n))
                s = 0.0
                for k in range(sd.kmax + 1):
                    if (2 * k + sd.n) * lv > beta + 1e-12 or sd.norms2[k, j] == 0:
                        continue
                    phi = float(np.real(laguerre_phi(k, sd.n - 1, -4.0 * r2, lv)))
                    s += sd.norms2[k, j] * binom_weight(k, sd.n) * phi
                acc += sd.wmu[j] * np.exp(2.0 * t * lv * lv) * s * pk
            vals.append(acc)
        out.append(vals)
    return out


@pytest.fixture(scope="module")
def desk():
    return synth_bandlimited(1.0, 9.0, 42)[1]


@pytest.fixture(scope="module")
def n2_sd():
    """n = 2: lambda = +-1 carry every admissible mode of the N2_SPEC grid."""
    spec = QuadratureSpec(**N2_SPEC)
    lgrid = LambdaGrid.build(spec, 1.0)
    rng = np.random.default_rng(7)
    slices = {}
    for j, lv in enumerate(lgrid.lam):
        modes = pair_fits_modes(spec, spec.kmax, lv, 2)
        degree = np.array([sum(a) + sum(b) for a, b in modes])
        coef = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
        slices[j] = ModalSliceND(lv, 2, modes, coef * np.exp(-degree))
    sd = analyze(n2_gridfn(spec, lgrid, slices), lgrid, spec.kmax, spec)
    assert np.count_nonzero(np.any(sd.norms2 > 0, axis=0)) == 2
    assert np.all(sd.norms2[:, np.argmin(np.abs(sd.lam - 1.0))] > 0)
    return sd


def positive_half(sd):
    out = copy.copy(sd)
    out.norms2 = np.where(sd.lam < 0, 0.0, sd.norms2)
    return out


def desk_points(sd, n):
    """The default and the band-scaled growth rays, plus off-axis points."""
    band = sd.achieved_band()
    pts = []
    for plan in (RayPlan(), RayPlan().scaled(band.A, band.B)):
        pts += [(np.zeros(n), np.zeros(n), e) for e in plan.etas]
        pts += [(np.r_[r, np.zeros(n - 1)], np.zeros(n), 0.0) for r in plan.rs]
    rng = np.random.default_rng(3)
    pts += [(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), rng.uniform(-3, 3)) for _ in range(8)]
    return [imag_pt(y, v, eta) for y, v, eta in pts]


class TestAgainstScalarLoops:
    @pytest.mark.parametrize("which", ["desk", "n2_sd"])
    def test_gutzmer_and_apply_D(self, which, request):
        sd = request.getfixturevalue(which)
        for p in desk_points(sd, sd.n):
            assert gutzmer_spectral(sd, p) == pytest.approx(loop_gutzmer(sd, p), rel=1e-12)
            assert apply_D(sd, p) == pytest.approx(loop_apply_D(sd, p), rel=1e-12)

    @pytest.mark.parametrize("which", ["desk", "n2_sd"])
    @pytest.mark.parametrize("scale", [(1.0, 1.0), (1.0, 0.6), (0.8, 1.0)],
                             ids=["band", "beta-inside", "alpha-inside"])
    def test_thm35_values(self, which, scale, request):
        # a scale below 1 drops the cells outside (alpha, beta) from the sum
        sd = positive_half(request.getfixturevalue(which))
        band = sd.achieved_band()
        alpha, beta = scale[0] * band.A, scale[1] * band.B
        rep = thm35_forward(sd, alpha, beta)
        want = loop_thm35_values(sd, alpha, beta)
        for pt, vals in zip(rep["points"], want):
            np.testing.assert_allclose(pt["values"], vals, rtol=1e-12)

    def test_thm35_empty_selection(self, desk):
        # no cell inside the band: zero values and a degenerate fit
        sd = positive_half(desk)
        rep = thm35_forward(sd, 0.01, 0.01)
        assert all(pt["values"] == [0.0, 0.0, 0.0] for pt in rep["points"])
        assert rep["max_slope"] == -np.inf


class TestLongRays:
    def test_past_the_float_range(self, desk):
        # e^{2 lambda eta} alone overflows at eta = 300; the sums do not
        for fn in (gutzmer_spectral, apply_D):
            val = fn(desk, imag_pt(0.0, 0.0, 300.0))
            assert np.isfinite(val) and val > 1e250
        assert gutzmer_spectral(desk, imag_pt(50.0, 0.0, 0.0)) == np.inf
        assert apply_D(desk, imag_pt(200.0, 0.0, 0.0)) == np.inf
        assert apply_D(desk, imag_pt(0.0, 0.0, -400.0)) > 0.0

    def test_thm35_far_point(self, desk):
        # at r = 40 the heat kernel's Gaussian factor underflows in linear scale
        sd = positive_half(desk)
        band = sd.achieved_band()
        rep = thm35_forward(sd, band.A, band.B, points=((40.0,),))
        assert np.isfinite(rep["points"][0]["slope"]) and rep["passes"]

    def test_detect_recovers_band(self, desk):
        plan = RayPlan(etas=np.linspace(0, 400, 13), rs=np.linspace(0, 300, 13))
        rep = detect_bandlimit(desk, plan)
        assert rep.verdict == "ok"
        assert abs(rep.A_hat - 1.0) <= 1e-3
        assert abs(rep.B_hat - 9.0) <= 1e-3

    def test_forward_check_constants(self, desk):
        plan = RayPlan(etas=np.linspace(0, 400, 13), rs=np.linspace(0, 300, 13))
        rep = pw_forward_check(desk, desk.achieved_band(), plan)
        assert not rep["violations"]
        assert 0.0 < rep["C_eta"] < np.inf and 0.0 < rep["C_radial"] < np.inf
        assert rep["eta_slope"] == pytest.approx(2.0, rel=1e-9)


# ---------------------------------------------------------------------------
# properties of random admissible spectra at small grids
# ---------------------------------------------------------------------------

LGRID = LambdaGrid.build(QuadratureSpec(nodes_per_A=2, margin_nodes=1), 1.0)
KMAX = 3
N2_MODES = [(a, b) for deg in range(KMAX + 1) for b in multiindices(2, deg)
            for a in multiindices_upto(2, 1)]
PARTS = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))
PROPS = settings(max_examples=30, deadline=None)


@st.composite
def spectra(draw, n):
    """SpectralData at n = 1 or 2 whose norms2 come from random modal
    coefficients (zeros included), on the six-node lambda grid."""
    shape = (KMAX + 1, KMAX + 1) if n == 1 else (len(N2_MODES),)
    modal = []
    for lv in LGRID.lam:
        parts = draw(hnp.arrays(np.float64, shape + (2,), elements=PARTS))
        coef = parts[..., 0] + 1j * parts[..., 1]
        modal.append(ModalSlice(lv, coef) if n == 1 else ModalSliceND(lv, 2, N2_MODES, coef))
    norms2 = np.stack([ms.proj_norms2(KMAX) for ms in modal], axis=1)
    grid = fft_grid(8, 5.0)
    return SpectralData(n=n, lgrid=LGRID, kmax=KMAX, xgrid=grid, ugrid=grid,
                        norms2=norms2, modal=modal, tail=np.zeros(LGRID.lam.size))


class TestProperties:
    @PROPS
    @given(data=st.data(), n=st.sampled_from([1, 2]))
    def test_origin_is_total_mass(self, data, n):
        sd = data.draw(spectra(n))
        origin = imag_pt(np.zeros(n), np.zeros(n), 0.0)
        mass = sd.total_mass()
        assert gutzmer_spectral(sd, origin) == pytest.approx(mass, rel=1e-12)
        if n == 1:
            assert apply_D(sd, origin) == pytest.approx(mass, rel=1e-12)

    @PROPS
    @given(data=st.data(), n=st.sampled_from([1, 2]),
           s=st.floats(0.0, 1.5), t=st.floats(0.0, 1.5))
    def test_heat_semigroup(self, data, n, s, t):
        sd = data.draw(spectra(n))
        two_steps = heat_apply(heat_apply(sd, s), t)
        one_step = heat_apply(sd, s + t)
        np.testing.assert_allclose(two_steps.norms2, one_step.norms2, rtol=1e-12, atol=0)
        for a, b in zip(two_steps.modal, one_step.modal):
            np.testing.assert_allclose(a.coef, b.coef, rtol=1e-12, atol=0)

    @PROPS
    @given(data=st.data(), n=st.sampled_from([1, 2]), r=st.floats(0.0, 2.5),
           eta=st.floats(-2.0, 2.0))
    def test_rotation_invariance(self, data, n, r, eta):
        sd = data.draw(spectra(n))
        dirs = st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n).filter(
            lambda u: np.linalg.norm(u) > 0.1)
        pts = []
        for _ in range(2):
            u = np.asarray(data.draw(dirs))
            w = r * u / np.linalg.norm(u)
            pts.append(imag_pt(w[:n], w[n:], eta))
        for fn in (gutzmer_spectral, apply_D):
            assert fn(sd, pts[0]) == pytest.approx(fn(sd, pts[1]), rel=1e-12)
