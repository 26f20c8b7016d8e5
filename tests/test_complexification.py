import dataclasses

import numpy as np
import pytest

from conftest import small_spec
from gutzmerlab import complexification, hermite_modes
from gutzmerlab.complexification import (
    OrbitalError,
    RayPlan,
    apply_D,
    detect_bandlimit,
    fit_growth,
    gutzmer_spectral,
    orbital_direct,
    pw_forward_check,
)
from gutzmerlab.heatlab import heat_apply, heat_image_norm
from gutzmerlab.heisenberg_core import ComplexPoint
from gutzmerlab.grids import QuadratureSpec, gauss_legendre_on
from gutzmerlab.growth import GrowthFit
from gutzmerlab.hermite_modes import (ModalSlice, abs_lam_groups, mode_monomial_base, norm_ratio,
                                     slice_powers)
from gutzmerlab.specfun import bessel_j_norm, laguerre_all, laguerre_phi
from gutzmerlab.spectral import LambdaGrid, synth_bandlimited


def imag_pt(y, v, eta):
    return ComplexPoint.purely_imaginary([y], [v], eta)


def single_cell(sd, k0, j0, mass=1.7):
    """Collapse a fixture to one populated (k, lambda) cell, renormalized."""
    for j in range(sd.lam.size):
        if j != j0:
            sd.modal[j].coef[:] = 0.0
    keep = sd.modal[j0].coef[k0].copy()
    sd.modal[j0].coef[:] = 0.0
    if not np.any(keep):
        keep = np.zeros(sd.modal[j0].coef.shape[1], complex)
        keep[:2] = [1.0, 0.5j]
    scale = 2 * np.pi / abs(sd.lam[j0])
    keep *= np.sqrt(mass / (scale * np.sum(np.abs(keep) ** 2)))
    sd.modal[j0].coef[k0] = keep
    nz = np.zeros_like(sd.norms2)
    nz[k0, j0] = mass
    sd.norms2 = nz
    return sd


def table_field(ms, zc, zm):
    """A ModalSlice field the long way: one laguerre_all table per offset d,
    contracted with its weights, each lambda on its own."""
    al = abs(ms.lam)
    rho = zc * zm
    s = 0.5 * al * rho
    var_row, var_col = mode_monomial_base(ms.lam, zc, zm)
    out = np.zeros(np.broadcast(zc, zm).shape, dtype=complex)
    for d in range(max(ms.kmax, ms.acap) + 1):
        wc = np.array([ms.coef[m + d, m] * norm_ratio(m, d)
                       for m in range(min(ms.kmax - d, ms.acap) + 1)])
        wr = np.array([ms.coef[m, m + d] * norm_ratio(m, d)
                       for m in range(min(ms.kmax, ms.acap - d) + 1)]) if d else np.empty(0)
        if wc.size + wr.size == 0:
            continue
        Ltab = laguerre_all(max(wc.size, wr.size) - 1, d, s)
        if wc.size:
            out += var_col ** d * np.tensordot(wc, Ltab[: wc.size], axes=(0, 0))
        if wr.size:
            out += var_row ** d * np.tensordot(wr, Ltab[: wr.size], axes=(0, 0))
    return np.sqrt(al / (2.0 * np.pi)) * out * np.exp(-0.25 * al * rho)


def table_orbital_direct(sd, p, spec):
    """orbital_direct's quadrature with fields from table_field."""
    w0 = float(p.zi[0]) + 1j * float(p.wi[0])
    acap = max(int(np.max(np.nonzero(ms.coef)[1], initial=0)) for ms in sd.modal)
    mtheta = acap + sd.kmax + 2
    npad = int(round(complexification.PAD_FACTOR * sd.xgrid.size))
    hx = float(sd.xgrid[1] - sd.xgrid[0])
    xg = (np.arange(npad) - npad // 2) * hx
    Z = xg[:, None] + 1j * xg[None, :]
    w_all = np.exp(2j * np.pi * np.arange(mtheta) / mtheta) * w0
    Zb = Z[None] + 1j * w_all[:, None, None]
    Zmb = np.conj(Z)[None] + 1j * np.conj(w_all)[:, None, None]
    total = 0.0
    for j, lv in enumerate(sd.lam):
        if not np.any(sd.norms2[:, j]):
            continue
        pref = sd.wmu[j] * abs(lv) / (2 * np.pi) * np.exp(2 * lv * p.zeta_i)
        wgt = np.exp(lv * (Z.imag[None] * w_all.real[:, None, None]
                           - Z.real[None] * w_all.imag[:, None, None]))
        cell = np.abs(2 * np.pi / abs(lv) * table_field(sd.modal[j], Zb, Zmb)) ** 2 * wgt
        total += pref * np.mean(np.sum(cell, axis=(1, 2))) * hx * hx
    return float(total)


def full_grid_orbital_direct(sd, p):
    """orbital_direct as it ran before the fold: the theta-mean powers at the
    displacement w itself, unrotated, on every point of the npad x npad grid,
    with the same grid sizes, frame check and fallback."""
    w0 = float(p.zi[0]) + 1j * float(p.wi[0])
    hx = float(sd.xgrid[1] - sd.xgrid[0])
    cap = int(round(complexification.PAD_FACTOR * sd.xgrid.size))
    live = [j for group in abs_lam_groups(sd.lam) for j in group if sd.modal[j].coef.any()]
    for npad in sorted({complexification._orbital_points(sd.xgrid.size, hx, abs(w0)), cap}):
        xg = (np.arange(npad) - npad // 2) * hx
        Z = xg[:, None] + 1j * xg[None, :]
        frame = np.zeros(Z.shape, dtype=bool)
        frame[:2, :] = frame[-2:, :] = frame[:, :2] = frame[:, -2:] = True
        zc = Z + 1j * w0
        zm = np.conj(Z) + 1j * np.conj(w0)
        phase = Z.imag * w0.real - Z.real * w0.imag
        total = shell = 0.0
        for j, power in zip(live, slice_powers([sd.modal[j] for j in live], zc, zm)):
            lv = sd.lam[j]
            pref = sd.wmu[j] * 2.0 * np.pi / abs(lv) * np.exp(2.0 * lv * p.zeta_i) * hx * hx
            cell = power[0] * np.exp(lv * phase)
            total += pref * float(np.sum(cell))
            shell += pref * float(np.sum(cell[frame]))
        if not (total > 0 and shell > complexification.SHELL_TOL * total):
            return float(total)
    raise OrbitalError("orbital quadrature truncation above tolerance")


class TestGutzmerIdentity:
    def test_origin_reduces_to_plancherel(self, fixture_small):
        spec, f, sd = fixture_small
        val = gutzmer_spectral(sd, imag_pt(0.0, 0.0, 0.0))
        assert val == pytest.approx(sd.total_mass(), rel=1e-12)

    def test_orbital_at_origin_is_norm(self, fixture_small):
        spec, f, sd = fixture_small
        od = orbital_direct(sd, imag_pt(0.0, 0.0, 0.0), spec)
        assert od == pytest.approx(f.squared_norm(), rel=1e-3)

    @pytest.mark.parametrize("pt", [(0.4, 0.0, 0.0), (0.3, 0.4, 0.5), (0.0, 0.6, 1.0)])
    def test_cross_oracle(self, fixture_small, pt):
        spec, f, sd = fixture_small
        p = imag_pt(*pt)
        od = orbital_direct(sd, p, spec)
        gs = gutzmer_spectral(sd, p)
        assert abs(od - gs) <= 1e-3 * abs(gs)

    @pytest.mark.parametrize("pt", [(0.35, -0.25, 0.4), (1.06, 1.06, 0.0),
                                    (0.0, -1.5, 1.0), (-0.9, 0.4, -1.0),
                                    (3.0, 0.0, 0.5), (2.121, 2.121, 0.5)])
    def test_matches_table_based_evaluation(self, fixture_small, pt):
        # theta by Parseval, with the running-sum evaluator shared across
        # +-lambda, against the theta-node quadrature of per-lambda
        # laguerre_all table contractions; the table side always integrates
        # on the PAD_FACTOR grid (60^2 here), the wide points on a 56^2 one
        spec, f, sd = fixture_small
        p = imag_pt(*pt)
        assert orbital_direct(sd, p, spec) == pytest.approx(
            table_orbital_direct(sd, p, spec), rel=1e-12)

    @pytest.mark.parametrize("pt", [(0.0, 0.0, 0.0), (0.3, -0.4, 0.5)])
    def test_all_zero_slice_adds_nothing(self, fixture_small, pt):
        # a node past the grid whose slice is all zero: same value, bit for bit
        spec, f, sd = fixture_small
        lam = np.append(sd.lam, sd.lam[-1] + sd.lgrid.dl)
        wmu = np.append(sd.wmu, 1.0)
        wider = type(sd)(n=1, lgrid=LambdaGrid(lam, sd.lgrid.dl, wmu), kmax=sd.kmax,
                         xgrid=sd.xgrid, ugrid=sd.ugrid,
                         norms2=np.hstack([sd.norms2, np.zeros((sd.kmax + 1, 1))]),
                         modal=sd.modal + [ModalSlice(lam[-1], np.zeros_like(sd.modal[0].coef))],
                         tail=np.append(sd.tail, 0.0))
        p = imag_pt(*pt)
        assert orbital_direct(wider, p, spec) == orbital_direct(sd, p, spec)

    def test_rotation_invariance(self, fixture_small):
        spec, f, sd = fixture_small
        vals = []
        for th in (0.0, 0.7, 2.1):
            y, v = 0.5 * np.cos(th), 0.5 * np.sin(th)
            vals.append(orbital_direct(sd, imag_pt(y, v, 0.2), spec))
        assert max(vals) - min(vals) <= 1e-3 * max(vals)

    def test_single_mode_closed_form(self):
        spec = small_spec()
        _, sd = synth_bandlimited(1.0, 5.0, seed=4, spec=spec)
        j0 = int(np.argmin(np.abs(sd.lam - 0.875)))
        k0, mass = 1, 1.7
        sd = single_cell(sd, k0, j0, mass)
        lam0 = sd.lam[j0]
        y, v, eta = 0.4, 0.3, 0.6
        r2 = y * y + v * v
        got = gutzmer_spectral(sd, imag_pt(y, v, eta))
        phi = np.real(laguerre_phi(k0, 0, -4.0 * r2, lam0))
        want = sd.wmu[j0] * mass * np.exp(2 * lam0 * eta) * phi
        assert got == pytest.approx(want, rel=1e-12)

    def test_requires_purely_imaginary(self, fixture_small):
        _, _, sd = fixture_small
        p = ComplexPoint([0.1], [0.2], [0.0], [0.0], 0.0, 0.0)
        with pytest.raises(OrbitalError, match="purely imaginary"):
            gutzmer_spectral(sd, p)

    def test_nonnegative(self, fixture_small):
        _, _, sd = fixture_small
        rng = np.random.default_rng(0)
        for _ in range(6):
            y, v = rng.uniform(-1, 1, 2)
            eta = rng.uniform(-1, 1)
            assert gutzmer_spectral(sd, imag_pt(y, v, eta)) >= 0
            assert apply_D(sd, imag_pt(y, v, eta)) >= 0

    def test_orbital_n2_rejected(self, fixture_small):
        _, _, sd = fixture_small
        sd2 = type(sd)(n=2, lgrid=sd.lgrid, kmax=sd.kmax, xgrid=sd.xgrid,
                       ugrid=sd.ugrid, norms2=sd.norms2, modal=sd.modal, tail=sd.tail)
        with pytest.raises(OrbitalError, match="n=1"):
            orbital_direct(sd2, ComplexPoint.purely_imaginary([0, 0], [0, 0], 0.0))

    @pytest.mark.parametrize("func", [orbital_direct, gutzmer_spectral, apply_D])
    def test_point_of_other_dimension_rejected(self, fixture_small, func):
        # a 2-D point on n = 1 data: neither its first coordinate alone nor
        # its full radius belongs to the data's C^3
        _, _, sd = fixture_small
        p = ComplexPoint.purely_imaginary([0.3, 0.9], [0.0, 0.0], 0.2)
        with pytest.raises(OrbitalError, match="point of dimension 2 for data of dimension 1"):
            func(sd, p)


@pytest.fixture(scope="module")
def desk_seed7():
    spec = QuadratureSpec()
    _, sd = synth_bandlimited(1.0, 9.0, seed=7, spec=spec)
    return spec, sd


class TestShellTruncation:
    """The outer-frame share of the orbital sum, on a desk fixture."""

    @pytest.mark.parametrize("pt", [(4.0, 0.0, 0.5), (2.4, -3.2, 0.5)])
    def test_wide_points_need_padding(self, desk_seed7, pt, monkeypatch):
        # |w| = 4 leaves 1.4e-5 of the sum in the frame of the unpadded grid
        spec, sd = desk_seed7
        with monkeypatch.context() as mp:
            mp.setattr(complexification, "PAD_FACTOR", 1.0)
            with pytest.raises(OrbitalError, match="enlarge PAD_FACTOR"):
                orbital_direct(sd, imag_pt(*pt), spec)
        p = imag_pt(*pt)
        assert orbital_direct(sd, p, spec) == pytest.approx(
            gutzmer_spectral(sd, p), rel=1e-12)

    def test_diagonal_point_fits_the_unpadded_grid(self, desk_seed7, monkeypatch):
        # the sum runs at the displacement itself, whose frame share on the
        # diagonal is below SHELL_TOL (the theta nodes' axis directions were not)
        spec, sd = desk_seed7
        p = imag_pt(2.121, 2.121, 0.5)
        monkeypatch.setattr(complexification, "PAD_FACTOR", 1.0)
        got = orbital_direct(sd, p, spec)
        assert got == pytest.approx(gutzmer_spectral(sd, p), rel=1e-6)

    def test_axis_points_fit_the_unpadded_grid(self, desk_seed7, monkeypatch):
        # every displacement runs rotated onto the diagonal, so |w| = 3 on an
        # axis fits the sample grid as the diagonal point does (unrotated, the
        # axis sums left 9e-5 and 2e-5 of themselves in the frame)
        spec, sd = desk_seed7
        pts = [imag_pt(3.0, 0.0, 0.5), imag_pt(0.0, 3.0, 0.5)]
        want = gutzmer_spectral(sd, pts[0])
        with monkeypatch.context() as mp:
            mp.setattr(complexification, "PAD_FACTOR", 1.0)
            got = [orbital_direct(sd, p, spec) for p in pts]
        assert got[0] == got[1] == pytest.approx(want, rel=1e-6)
        got = [orbital_direct(sd, p, spec) for p in pts]
        assert got[0] == got[1] == pytest.approx(want, rel=1e-12)


class TestDiagonalFold:
    """orbital_direct, folded across the diagonal at the rotated displacement,
    against the unrotated full-grid sum."""

    @pytest.mark.parametrize("pt", [
        # the criterion-3 box, |w| <= 1.5 and |eta| <= 1
        (0.479, -1.258, 0.031), (0.756, 0.267, -0.233), (0.92, 0.269, -0.902),
        (-0.863, -1.226, -0.531), (0.976, -0.16, 0.795), (-1.075, 0.862, -0.014),
        (1.145, 0.46, 0.111), (0.569, -0.536, -0.872),
        # the axes
        (0.9, 0.0, 0.5), (0.0, -0.9, 0.5), (3.0, 0.0, 0.5), (0.0, -3.0, 0.5),
        (5.0, 0.0, 0.5), (0.0, -5.0, 0.5),
        # the diagonals
        (0.849, 0.849, -0.5), (-0.849, 0.849, 0.3), (2.475, 2.475, -0.5),
        (-2.475, 2.475, 0.3), (3.536, 3.536, -0.5), (-3.536, -3.536, 0.3),
        # generic angles
        (1.911, 0.591, 0.2), (-1.748, 3.819, 0.2), (-3.268, -3.784, 0.2), (1.913, -1.905, 0.2),
    ])
    def test_matches_the_full_grid(self, desk_seed7, pt):
        spec, sd = desk_seed7
        p = imag_pt(*pt)
        assert orbital_direct(sd, p, spec) == pytest.approx(full_grid_orbital_direct(sd, p),
                                                            rel=1e-13)


class TestOrbitalGrid:
    """The orbital grid: the sample grid widened by |w| in whole cells plus
    the 2-cell frame, at most the PAD_FACTOR grid, which a failed frame
    check on a narrower grid falls back to."""

    @staticmethod
    def grid_sizes(monkeypatch):
        sizes = []

        def spy(slices, zc, zm, plan=None):
            # the folded point set: the npad(npad+1)/2 points with u >= x
            count, = zc.shape
            npad = int(np.sqrt(2 * count))
            assert npad * (npad + 1) // 2 == count
            sizes.append(npad)
            return slice_powers(slices, zc, zm, plan)

        monkeypatch.setattr(complexification, "slice_powers", spy)
        return sizes

    @pytest.mark.parametrize("pt, npad", [((0.0, 0.0, 0.0), 52), ((0.9, 0.0, 0.0), 56),
                                          ((3.0, 0.0, 0.5), 66), ((5.0, 0.0, 0.0), 72)])
    def test_points_per_axis(self, desk_seed7, pt, npad, monkeypatch):
        # desk spacing h = 22/48: |w| = 0.9 takes 2 cells, 3 takes 7, and
        # 5 would take 11 (74 points), past the 72-point cap
        spec, sd = desk_seed7
        sizes = self.grid_sizes(monkeypatch)
        orbital_direct(sd, imag_pt(*pt), spec)
        assert sizes == [npad]

    def test_failed_frame_falls_back_to_the_cap(self, monkeypatch):
        # a loose mode fit leaves more mass near the grid edge than the
        # 60-point grid at |w| = 1.5 can hold; the 72-point one holds it
        spec = QuadratureSpec(fit_tol=1e-2)
        _, sd = synth_bandlimited(0.5, 2.0, 5, spec=spec)
        p = imag_pt(1.5, 0.0, 1.0)
        with monkeypatch.context() as mp:
            sizes = self.grid_sizes(mp)
            got = orbital_direct(sd, p, spec)
            assert sizes == [60, 72]
        cap = int(round(complexification.PAD_FACTOR * sd.xgrid.size))
        monkeypatch.setattr(complexification, "_orbital_points", lambda nx, hx, w0: cap)
        assert got == orbital_direct(sd, p, spec)


class TestKeptPlan:
    """orbital_direct keeps the populated slices and their _offset_plan on
    the SpectralData, and rebuilds them once a coefficient changes."""

    PT = (0.6, -0.4, 0.3)

    @staticmethod
    def fresh():
        return synth_bandlimited(1.0, 7.0, seed=11, spec=small_spec())[1]

    @staticmethod
    def plan_builds(monkeypatch):
        builds, build = [], hermite_modes._offset_plan

        def spy(slices):
            builds.append(len(slices))
            return build(slices)

        monkeypatch.setattr(complexification, "_offset_plan", spy)
        monkeypatch.setattr(hermite_modes, "_offset_plan", spy)
        return builds

    def test_one_build_for_an_unchanged_fixture(self, monkeypatch):
        sd = self.fresh()
        builds = self.plan_builds(monkeypatch)
        got = [orbital_direct(sd, imag_pt(*self.PT)) for _ in range(5)]
        assert len(builds) == 1 and len(set(got)) == 1

    def test_in_place_edit_rebuilds(self, monkeypatch):
        sd = self.fresh()
        p = imag_pt(*self.PT)
        before = orbital_direct(sd, p)
        single_cell(sd, 2, 5)
        builds = self.plan_builds(monkeypatch)
        got = orbital_direct(sd, p)
        monkeypatch.undo()
        want = orbital_direct(single_cell(self.fresh(), 2, 5), p)
        assert builds == [1] and got == want and got != before

    def test_replaced_copy_starts_without_the_plan(self, monkeypatch):
        sd = self.fresh()
        p = imag_pt(*self.PT)
        want = orbital_direct(sd, p)
        copy = dataclasses.replace(sd)
        assert copy == sd and repr(copy) == repr(sd)
        builds = self.plan_builds(monkeypatch)
        assert orbital_direct(copy, p) == want and len(builds) == 1
        assert orbital_direct(sd, p) == want and len(builds) == 1


class TestApplyD:
    def test_origin_matches_gutzmer(self, fixture_small):
        # n=1: j_0(0) = 1 = binom phi at the origin, so the two sums agree
        _, _, sd = fixture_small
        p = imag_pt(0.0, 0.0, 0.0)
        assert apply_D(sd, p) == pytest.approx(gutzmer_spectral(sd, p), rel=1e-12)

    def test_single_mode_formula(self):
        spec = small_spec()
        _, sd = synth_bandlimited(1.0, 5.0, seed=4, spec=spec)
        j0 = int(np.argmin(np.abs(sd.lam - 0.875)))
        k0, mass = 2, 0.9
        sd = single_cell(sd, k0, j0, mass)
        lam0 = sd.lam[j0]
        y, v, eta = 0.5, 0.1, 0.3
        r = np.hypot(y, v)
        got = apply_D(sd, imag_pt(y, v, eta))
        jval = np.real(bessel_j_norm(0, 2j * np.sqrt((2 * k0 + 1) * lam0) * r))
        want = sd.wmu[j0] * mass * np.exp(2 * lam0 * eta) * jval
        assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_on_positive_lambda_fixture(self):
        spec = small_spec()
        _, sd = synth_bandlimited(1.0, 5.0, seed=6, spec=spec)
        sd.norms2[:, sd.lam < 0] = 0.0
        for fn in (apply_D, gutzmer_spectral):
            vals_r = [fn(sd, imag_pt(r, 0.0, 0.0)) for r in (0.0, 0.5, 1.0, 2.0)]
            assert np.all(np.diff(vals_r) > 0)
            vals_eta = [fn(sd, imag_pt(0.3, 0.0, e)) for e in (0.0, 0.5, 1.0, 2.0)]
            assert np.all(np.diff(vals_eta) > 0)

    def test_gaussian_pairing_matches_heat_image(self, fixture_small):
        # independent quadrature of integral D O(i.) p_{t/2} over R^3 against
        # the closed-form heat-image value
        spec, f, sd = fixture_small
        t = 0.25
        sdh = heat_apply(sd, t)
        want = heat_image_norm(sdh, t)
        r, wr = gauss_legendre_on(0.0, 12.0, 220)
        e, we = gauss_legendre_on(-14.0, 14.0, 260)
        dens_r = (2 * np.pi * t) ** -1 * np.exp(-r * r / (2 * t)) * 2 * np.pi * r
        dens_e = (2 * np.pi * t) ** -0.5 * np.exp(-e * e / (2 * t))
        # the (r, eta) dependence factorizes cell-by-cell, so pair the two
        # 1-D quadratures per (k, lambda) cell
        ks = np.arange(sd.kmax + 1)
        acc = 0.0
        for j, lv in enumerate(sd.lam):
            col = sdh.norms2[:, j]
            if not np.any(col):
                continue
            a = np.sqrt((2 * ks + 1) * abs(lv))
            jmat = np.real(bessel_j_norm(0, 2j * np.outer(a, r)))
            rad = np.tensordot(col, jmat, axes=(0, 0))
            rad_int = np.sum(rad * dens_r * wr)
            eta_int = np.sum(np.exp(2 * lv * e) * dens_e * we)
            acc += sdh.wmu[j] * rad_int * eta_int
        assert acc == pytest.approx(want, rel=1e-8)


class TestGrowthFits:
    def test_fit_recovers_pure_exponential(self):
        xs = np.linspace(0, 6, 13)
        logs = np.log(3.0) + 1.7 * xs
        fit = fit_growth(xs, logs, "eta")
        assert fit.slope == pytest.approx(1.7, rel=1e-12)
        assert fit.residual < 1e-12

    def test_radial_fit_removes_envelope(self):
        xs = np.linspace(0.5, 6, 12)
        logs = 2.4 * xs - 0.5 * np.log(xs)
        fit = fit_growth(xs, logs, "radial")
        assert fit.slope == pytest.approx(2.4, rel=1e-9)

    def test_tail_half_keeps_a_middle_sample_an_ulp_low(self):
        # np.linspace(0, L, 13) puts its middle sample an ulp below L/2 for
        # this L; the fit takes the same 7 samples as the exact ray does
        xs = np.linspace(0.0, 3.1016288099872855, 13)
        assert xs[6] < (xs[0] + xs[-1]) / 2
        exact = xs.copy()
        exact[6] = (xs[0] + xs[-1]) / 2
        logs = 1.7 * xs + 0.4 * np.sin(2.0 * xs)
        fit, want = fit_growth(xs, logs, "eta"), fit_growth(exact, logs, "eta")
        assert fit.slope == pytest.approx(want.slope, rel=1e-12)
        assert fit.intercept == pytest.approx(want.intercept, rel=1e-12)

    def test_degenerate_data(self):
        # logs of zero values
        fit = fit_growth(np.arange(5.0), np.full(5, -np.inf), "eta")
        assert not np.isfinite(fit.slope)


class TestPWForward:
    def test_bounds_hold_on_fixture(self, fixture_small):
        _, _, sd = fixture_small
        bl = sd.achieved_band()
        rep = pw_forward_check(sd, bl)
        assert not rep["violations"]
        assert rep["eta_slope"] <= 2 * bl.A + 1e-6
        assert rep["radial_slope"] <= 2 * np.sqrt(bl.B) + 1e-6
        assert rep["C_eta"] > 0 and rep["C_radial"] > 0

    def test_not_bandlimited_rejected(self, fixture_small):
        from gutzmerlab.spectral import BandLimit

        _, _, sd = fixture_small
        with pytest.raises(OrbitalError, match="band-limited"):
            pw_forward_check(sd, BandLimit(sd.achieved_band().A / 2, 1.0))

    def test_zero_function_bound_with_c_zero(self, fixture_small):
        import copy

        from gutzmerlab.spectral import BandLimit

        _, _, sd0 = fixture_small
        sd = copy.copy(sd0)
        sd.norms2 = np.zeros_like(sd0.norms2)
        rep = pw_forward_check(sd, BandLimit(1.0, 9.0))
        assert rep["C_eta"] == 0.0 and rep["C_radial"] == 0.0
        assert not rep["violations"]


class TestDetector:
    def test_detects_fixture_band(self, fixture_small):
        _, _, sd = fixture_small
        rep = detect_bandlimit(sd)
        bl = sd.band
        assert rep.verdict == "ok"
        assert abs(rep.A_hat - bl.A) <= 0.05 * bl.A
        assert abs(rep.B_hat - bl.B) <= 0.05 * bl.B

    def test_single_mode_is_exact(self):
        spec = small_spec()
        _, sd = synth_bandlimited(1.0, 5.0, seed=4, spec=spec)
        j0 = int(np.argmin(np.abs(sd.lam - 0.625)))
        k0 = 2
        sd = single_cell(sd, k0, j0, 1.0)
        rep = detect_bandlimit(sd)
        lam0 = abs(sd.lam[j0])
        assert rep.A_hat == pytest.approx(lam0, rel=1e-3)
        assert rep.B_hat == pytest.approx((2 * k0 + 1) * lam0, rel=5e-3)

    def test_zero_function_inconclusive(self, fixture_small):
        import copy

        _, _, sd0 = fixture_small
        sd = copy.copy(sd0)
        sd.norms2 = np.zeros_like(sd0.norms2)
        rep = detect_bandlimit(sd)
        assert rep.verdict == "inconclusive"

    def test_never_underestimates_badly(self):
        # detector soundness across seeds
        spec = small_spec()
        for seed in (1, 2, 3):
            _, sd = synth_bandlimited(0.75, 4.0, seed=seed, spec=spec)
            rep = detect_bandlimit(sd)
            assert rep.A_hat >= sd.band.A * 0.95
            assert rep.B_hat >= sd.band.B * 0.95

    def test_tail_test_flags_planted_cell(self, fixture_small):
        import copy

        _, _, sd0 = fixture_small
        sd = copy.copy(sd0)
        sd.norms2 = sd0.norms2.copy()
        B = sd0.band.B
        # plant a small cell with fan value ~ 1.3 B
        lam_t = B * 1.3 / (2 * 4 + 1)
        j = int(np.argmin(np.abs(np.abs(sd.lam) - lam_t)))
        sd.norms2[4, j] += 1e-3 * np.max(sd.norms2)
        rep = detect_bandlimit(sd)
        assert rep.verdict == "tail-violation"
        assert rep.tail_test["offending_cells"]
