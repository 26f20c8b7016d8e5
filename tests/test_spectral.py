import io

import numpy as np
import pytest

from conftest import rectangle, small_spec
from gutzmerlab import hermite_modes, spectral
from gutzmerlab.grids import QuadratureSpec, fft_grid
from gutzmerlab.heisenberg_core import ComplexPoint
from gutzmerlab.hermite_modes import ModalSliceND, basis_matrix, e1d, multiindices, multiindices_upto
from gutzmerlab.specfun import LaguerreArg, laguerre_phi
from gutzmerlab.spectral import (
    DecayError,
    GridFunction,
    LambdaGrid,
    SpectralError,
    _mode_mask,
    analyze,
    grid_coords,
    invert,
    invert_grid,
    partial_fourier_t,
    plancherel_check,
    synth_bandlimited,
    twisted_conv,
)


def make_gaussian_gridfn(spec, lgrid, s=1.0, st=2.0):
    """f(x,u,t) = phi-ground-state-like Gaussian x e^{-(t/st)^2}."""
    xg = fft_grid(spec.nx, spec.lx)
    tg = fft_grid(spec.nt, lgrid.t_half_window)
    X, U = np.meshgrid(xg, xg, indexing="ij")
    g = np.exp(-(X ** 2 + U ** 2) / (4.0 * s))
    samples = g[:, :, None] * np.exp(-((tg / st) ** 2))[None, None, :] + 0j
    return GridFunction(1, xg, xg, tg, samples, schwartz=True)


class TestPartialFourier:
    def test_gaussian_oracle(self):
        spec = small_spec()
        lgrid = LambdaGrid.build(spec, 1.0)
        f = make_gaussian_gridfn(spec, lgrid)
        for lam in (0.25, 1.0, -0.5):
            sl = partial_fourier_t(f, lam)
            xg = f.xgrid
            X, U = np.meshgrid(xg, xg, indexing="ij")
            want = (np.exp(-(X ** 2 + U ** 2) / 4.0)
                    * 2.0 * np.sqrt(np.pi) * np.exp(-lam ** 2))
            assert np.max(np.abs(sl - want)) < 1e-12

    def test_real_even_symmetry(self):
        spec = small_spec()
        lgrid = LambdaGrid.build(spec, 1.0)
        f = make_gaussian_gridfn(spec, lgrid)
        sl = partial_fourier_t(f, 0.7)
        assert np.max(np.abs(sl.imag)) < 1e-13

    def test_band_limited_slices_vanish_beyond_A(self, fixture_small):
        spec, f, sd = fixture_small
        beyond = [lv for lv in sd.lam if abs(lv) > sd.requested_band.A + 1e-12]
        assert beyond
        peak = max(np.max(np.abs(s)) for s in sd.slices)
        for lv in beyond:
            sl = partial_fourier_t(f, lv)
            assert np.max(np.abs(sl)) <= 1e-8 * peak

    @staticmethod
    def fat_gaussian(spec):
        xg = fft_grid(spec.nx, spec.lx)
        tg = fft_grid(32, 2.0)  # short window, fat Gaussian in t
        X, U = np.meshgrid(xg, xg, indexing="ij")
        samples = (np.exp(-(X ** 2 + U ** 2) / 4.0)[:, :, None]
                   * np.exp(-(tg ** 2) / 40.0)[None, None, :] + 0j)
        return GridFunction(1, xg, xg, tg, samples, schwartz=True)

    def test_insufficient_extent_error(self):
        f = self.fat_gaussian(small_spec(nt=32))
        with pytest.raises(DecayError, match="insufficient t-extent"):
            partial_fourier_t(f, 0.333)  # off the dual lattice

    def test_analyze_raises_at_the_first_off_dual_lambda(self, monkeypatch):
        # the t-edge scan runs only for lambda off the dual lattice, so
        # analyze on lattice nodes never runs it
        spec = small_spec(nt=32)
        f = self.fat_gaussian(spec)
        dual = np.pi / f.t_half_window
        seen, scans = [], []
        scan = spectral._t_edges_decayed

        def recording(g, lam):
            seen.append(lam)
            return partial_fourier_t(g, lam)

        monkeypatch.setattr(spectral, "partial_fourier_t", recording)
        monkeypatch.setattr(spectral, "_t_edges_decayed", lambda g: scans.append(1) or scan(g))
        on_dual = np.array([-2.0, -1.0, 1.0, 2.0]) * dual
        sd = analyze(f, LambdaGrid(on_dual, dual, np.ones(4)), spec.kmax, spec)
        assert sd.modal[0].lam == on_dual[0] and seen == list(on_dual) and scans == []
        seen.clear()
        lam = np.array([dual, 2.0 * dual, 0.333, 3.0 * dual])
        with pytest.raises(DecayError, match="insufficient t-extent"):
            analyze(f, LambdaGrid(lam, dual, np.ones(4)), spec.kmax, spec)
        assert seen == [dual, 2.0 * dual, 0.333] and scans == [1]
        f.schwartz = False
        seen.clear()
        with pytest.raises(DecayError, match="schwartz"):
            analyze(f, LambdaGrid(on_dual, dual, np.ones(4)), spec.kmax, spec)
        assert seen == [on_dual[0]]

    def test_unflagged_rejected(self):
        spec = small_spec()
        lgrid = LambdaGrid.build(spec, 1.0)
        f = make_gaussian_gridfn(spec, lgrid)
        f.schwartz = False
        with pytest.raises(DecayError):
            partial_fourier_t(f, 0.5)


class TestTwistedConv:
    N, L = 36, 9.0

    def setup_method(self):
        self.xg = fft_grid(self.N, self.L)
        X, U = np.meshgrid(self.xg, self.xg, indexing="ij")
        self.X, self.U = X, U
        self.Z = X + 1j * U

    def test_lambda_zero_is_plain_convolution(self):
        rng = np.random.default_rng(5)
        F = np.exp(-(self.X ** 2 + self.U ** 2) / 3.0) * (1 + 0.3 * rng.standard_normal((self.N,) * 2))
        G = np.exp(-((self.X - 1) ** 2 + self.U ** 2) / 2.0)
        got = twisted_conv(F + 0j, G + 0j, 0.0, self.xg, self.xg)
        h = self.xg[1] - self.xg[0]
        c = self.N // 2
        i, j = c + 3, c - 2
        acc = 0.0
        for a in range(self.N):
            ia = i - a + c
            if not (0 <= ia < self.N):
                continue
            for b in range(self.N):
                jb = j - b + c
                if 0 <= jb < self.N:
                    acc += F[ia, jb] * G[a, b]
        assert got[i, j] == pytest.approx(acc * h * h, rel=1e-12)

    def test_mollifier_converges(self):
        # finer grid so the narrow mollifier stays resolved
        N, L = 64, 8.0
        xg = fft_grid(N, L)
        X, U = np.meshgrid(xg, xg, indexing="ij")
        G = np.exp(-(X ** 2 + U ** 2) / 4.0) + 0j
        errs = []
        for w in (1.0, 0.5, 0.35):
            F = np.exp(-(X ** 2 + U ** 2) / (2 * w * w))
            F = F / (np.sum(F) * (xg[1] - xg[0]) ** 2) + 0j
            conv = twisted_conv(F, G, 0.6, xg, xg)
            c = N // 2
            sel = (slice(c - 10, c + 10),) * 2
            errs.append(np.max(np.abs(conv[sel] - G[sel])) / np.max(np.abs(G)))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.06

    def test_laguerre_orthogonality(self):
        lam = 1.1
        rho = np.abs(self.Z) ** 2
        pj = np.real(laguerre_phi(LaguerreArg(1, 0, rho), lam)) + 0j
        pk = np.real(laguerre_phi(LaguerreArg(3, 0, rho), lam)) + 0j
        conv = twisted_conv(pj, pk, lam, self.xg, self.xg)
        scale = (2 * np.pi / lam) * np.max(np.abs(pk))
        assert np.max(np.abs(conv)) <= 1e-6 * scale

    def test_laguerre_idempotent(self):
        lam = 1.1
        rho = np.abs(self.Z) ** 2
        pk = np.real(laguerre_phi(LaguerreArg(2, 0, rho), lam)) + 0j
        conv = twisted_conv(pk, pk, lam, self.xg, self.xg)
        want = (2 * np.pi / lam) * pk
        assert np.max(np.abs(conv - want)) <= 1e-8 * np.max(np.abs(want))

    def test_bilinearity_and_conjugation_symmetry(self):
        rng = np.random.default_rng(2)
        env = np.exp(-(self.X ** 2 + self.U ** 2) / 4.0)
        F = env * (rng.standard_normal((self.N,) * 2) + 1j * rng.standard_normal((self.N,) * 2))
        G = env * (rng.standard_normal((self.N,) * 2) + 1j * rng.standard_normal((self.N,) * 2))
        H = env * rng.standard_normal((self.N,) * 2)
        lam = 0.9
        lin = twisted_conv(2.0 * F + 3j * H, G, lam, self.xg, self.xg)
        ref = 2.0 * twisted_conv(F, G, lam, self.xg, self.xg) + 3j * twisted_conv(
            H + 0j, G, lam, self.xg, self.xg
        )
        assert np.max(np.abs(lin - ref)) < 1e-10 * np.max(np.abs(ref))
        lhs = np.conj(twisted_conv(F, G, lam, self.xg, self.xg))
        rhs = twisted_conv(np.conj(F), np.conj(G), -lam, self.xg, self.xg)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))

    def test_grid_mismatch(self):
        with pytest.raises(SpectralError):
            twisted_conv(np.zeros((4, 4), complex), np.zeros((5, 5), complex),
                         1.0, fft_grid(4, 1.0), fft_grid(5, 1.0))


def mode_mask_by_hand(spec, kmax, lv):
    mask = np.zeros((kmax + 1, spec.beta_cap + 1), dtype=bool)
    for k in range(min(kmax, spec.max_radial_level(lv)) + 1):
        mask[k, : spec.acap_for_k(k, lv, spec.beta_cap) + 1] = True
    return mask


class TestModeMask:
    """_mode_mask is memoized on every spec field, kmax and |lambda|."""

    def test_matches_hand_mask(self):
        spec = small_spec()
        for lv in LambdaGrid.build(spec, 1.0).lam:
            assert np.array_equal(_mode_mask(spec, spec.kmax, lv),
                                  mode_mask_by_hand(spec, spec.kmax, lv))

    @pytest.mark.parametrize("field, value", [("fit_tol", 1e-4), ("beta_cap", 10), ("lx", 6.0)])
    def test_changed_field_is_no_stale_hit(self, field, value):
        spec = small_spec()
        before = _mode_mask(spec, spec.kmax, 0.75)
        setattr(spec, field, value)
        after = _mode_mask(spec, spec.kmax, 0.75)
        assert np.array_equal(after, mode_mask_by_hand(spec, spec.kmax, 0.75))
        assert not np.array_equal(before, after)

    def test_read_only(self):
        mask = _mode_mask(small_spec(), 8, -0.75)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = False


class TestAnalyze:
    def test_zero_function(self):
        spec = small_spec()
        lgrid = LambdaGrid.build(spec, 1.0)
        xg = fft_grid(spec.nx, spec.lx)
        tg = fft_grid(spec.nt, lgrid.t_half_window)
        f = GridFunction(1, xg, xg, tg,
                         np.zeros((spec.nx, spec.nx, spec.nt), complex), schwartz=True)
        sd = analyze(f, lgrid, spec.kmax, spec)
        assert np.all(sd.norms2 == 0.0)

    def test_ground_state_concentrates_at_k0(self):
        spec = small_spec()
        lgrid = LambdaGrid.build(spec, 1.0)
        # ground state of the lam0-twisted oscillator: exactly k=0 at lam0
        lam0 = lgrid.lam[np.argmin(np.abs(lgrid.lam - 1.0))]
        f = make_gaussian_gridfn(spec, lgrid, s=1.0 / abs(lam0))
        sd = analyze(f, lgrid, spec.kmax, spec)
        j = int(np.argmin(np.abs(lgrid.lam - lam0)))
        col = sd.norms2[:, j]
        assert col[0] > 0.999 * np.sum(col)

    def test_projections_match_twisted_conv_oracle(self, fixture_small, analyzed_small):
        # dual route: modal-coefficient projections vs direct quadrature of
        # slice *_lambda phi_k
        spec, f, sd_syn = fixture_small
        sd = analyzed_small
        j = int(np.argmin(np.abs(sd.lam - 1.0)))
        lam = sd.lam[j]
        # the oracle reads the raw slice, not one rebuilt from coefficients
        raw_slice = partial_fourier_t(f, lam)
        projections = sd.projections[j]
        rho = np.abs(sd.xgrid[:, None] + 1j * sd.ugrid[None, :]) ** 2
        for k in (0, 1, 3):
            pk = np.real(laguerre_phi(LaguerreArg(k, 0, rho), lam)) + 0j
            oracle = twisted_conv(raw_slice, pk, lam, sd.xgrid, sd.ugrid)
            got = projections[k]
            scale = max(np.max(np.abs(oracle)), 1e-12)
            assert np.max(np.abs(got - oracle)) < 2e-6 * scale

    def test_single_mode_idempotence_and_leakage(self):
        spec = small_spec()
        f, sd = synth_bandlimited(1.0, 3.0, seed=5, spec=spec)
        # keep exactly one populated (k, lambda) cell
        ks, js = np.nonzero(sd.norms2)
        k0, j0 = int(ks[-1]), int(js[-1])
        for ms in sd.modal:
            ms.coef[:] = 0.0
        keep = np.zeros_like(sd.norms2)
        target = 2.3
        sd.modal[j0].coef[k0, : 3] = [0.7, 0.4j, -0.2]
        scale = 2 * np.pi / abs(sd.lam[j0])
        raw = sd.modal[j0].coef[k0]
        sd.modal[j0].coef[k0] *= np.sqrt(target / (scale * np.sum(np.abs(raw) ** 2)))
        keep[k0, j0] = target
        sd.norms2 = keep
        f1 = invert_grid(sd, f.tgrid)
        sd2 = analyze(f1, sd.lgrid, spec.kmax, spec)
        total = sd2.total_mass()
        inside = sd2.norms2[k0, j0] * sd2.wmu[j0]
        assert (total - inside) <= 1e-3 * total  # leakage
        assert sd2.norms2[k0, j0] == pytest.approx(target, rel=1e-6)


class TestPlancherel:
    def test_zero(self):
        spec = small_spec()
        lgrid = LambdaGrid.build(spec, 1.0)
        xg = fft_grid(spec.nx, spec.lx)
        tg = fft_grid(spec.nt, lgrid.t_half_window)
        f = GridFunction(1, xg, xg, tg,
                         np.zeros((spec.nx, spec.nx, spec.nt), complex), schwartz=True)
        sd = analyze(f, lgrid, spec.kmax, spec)
        lhs, rhs, rel = plancherel_check(f, sd)
        assert lhs == 0.0 and rhs == 0.0

    def test_synth_roundtrip(self, fixture_small, analyzed_small):
        spec, f, _ = fixture_small
        lhs, rhs, rel = plancherel_check(f, analyzed_small)
        assert rel <= 1e-6

    def test_scaling_homogeneity(self, fixture_small):
        spec, f, sd = fixture_small
        c = 2.5 - 1.5j
        f2 = GridFunction(1, f.xgrid, f.ugrid, f.tgrid, c * f.samples, schwartz=True)
        sd2 = analyze(f2, sd.lgrid, spec.kmax, spec)
        lhs1, _, _ = plancherel_check(f, sd)
        lhs2, rhs2, rel2 = plancherel_check(f2, sd2)
        assert lhs2 == pytest.approx(abs(c) ** 2 * lhs1, rel=1e-10)
        assert rel2 <= 1e-6

    def test_norms_recovery(self, fixture_small, analyzed_small):
        _, _, sd_syn = fixture_small
        scale = np.max(sd_syn.norms2)
        assert np.max(np.abs(analyzed_small.norms2 - sd_syn.norms2)) <= 1e-4 * scale


class TestInversion:
    def test_round_trip_interior(self, fixture_small, analyzed_small):
        spec, f, _ = fixture_small
        f2 = invert_grid(analyzed_small, f.tgrid)
        N = spec.nx
        sl = (slice(N // 4, 3 * N // 4),) * 2 + (slice(None),)
        num = np.max(np.abs(f2.samples[sl] - f.samples[sl]))
        den = np.max(np.abs(f.samples[sl]))
        assert num / den <= 1e-4

    def test_grid_matches_projection_sum(self, fixture_small, analyzed_small):
        # invert_grid sums one slice field per lambda; the reference sums the
        # per-k projections, so only the summation order differs
        spec, f, _ = fixture_small
        sd = analyzed_small
        got = invert_grid(sd, f.tgrid).samples
        ref = sum(w * np.sum(pk, axis=0)[..., None] * np.exp(-1j * lv * f.tgrid)
                  for w, lv, pk in zip(sd.wmu, sd.lam, sd.projections))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_point_eval_matches_grid(self, fixture_small, analyzed_small):
        spec, f, _ = fixture_small
        sd = analyzed_small
        i, j, m = spec.nx // 2 + 3, spec.nx // 2 - 2, spec.nt // 3
        p = ComplexPoint([f.xgrid[i]], [0.0], [f.ugrid[j]], [0.0], f.tgrid[m], 0.0)
        val = invert(sd, p)
        assert val == pytest.approx(complex(f.samples[i, j, m]), abs=1e-8 * np.max(np.abs(f.samples)))

    def test_eta_growth_envelope(self, fixture_small, analyzed_small):
        spec, f, _ = fixture_small
        sd = analyzed_small
        A = sd.requested_band.A if sd.requested_band else 1.0
        x0, u0 = f.xgrid[spec.nx // 2 + 2], f.ugrid[spec.nx // 2 - 1]
        projections = sd.projections
        env = sum(
            sd.wmu[j] * abs(complex(np.sum(projections[j], axis=0)[spec.nx // 2 + 2,
                                                                   spec.nx // 2 - 1]))
            for j in range(sd.lam.size)
        )
        for eta in (0.5, 1.0, 2.0):
            p = ComplexPoint([x0], [0.0], [u0], [0.0], 0.3, eta)
            assert abs(invert(sd, p)) <= np.exp(A * abs(eta)) * env * (1 + 1e-9)

    def test_single_cell_formula(self):
        spec = small_spec()
        f, sd = synth_bandlimited(1.0, 3.0, seed=9, spec=spec)
        ks, js = np.nonzero(sd.norms2)
        k0, j0 = int(ks[0]), int(js[0])
        for jj in range(sd.lam.size):
            if jj != j0:
                sd.modal[jj].coef[:] = 0.0
        sd.modal[j0].coef[np.arange(sd.kmax + 1) != k0] = 0.0
        nz = np.zeros_like(sd.norms2)
        nz[k0, j0] = sd.norms2[k0, j0]
        sd.norms2 = nz
        lam0 = sd.lam[j0]
        y, v, xi, eta = 0.25, -0.4, 0.6, 0.8
        p = ComplexPoint([0.1], [y], [0.3], [v], xi, eta)
        got = invert(sd, p)
        ms = sd.modal[j0]
        zc = (0.1 + 1j * y) + 1j * (0.3 + 1j * v)
        zm = (0.1 + 1j * y) - 1j * (0.3 + 1j * v)
        proj_c = (2 * np.pi / abs(lam0)) * complex(ms.field(np.asarray(zc), np.asarray(zm)))
        want = sd.wmu[j0] * np.exp(-1j * lam0 * xi) * np.exp(lam0 * eta) * proj_c
        assert got == pytest.approx(want, rel=1e-12)


N2_SPEC = dict(n=2, nx=16, lx=7.5, nt=24, nodes_per_A=2, margin_nodes=1, kmax=2,
               beta_cap=3, fit_tol=1e-6)
N2_WIDE = dict(N2_SPEC, nx=24, kmax=4, beta_cap=8)


def n2_gridfn(spec, lgrid, slices):
    """n = 2 grid function whose slice at lgrid.lam[j] is the ModalSliceND slices[j]
    (lambda nodes without one stay empty)."""
    xg = fft_grid(spec.nx, spec.lx)
    tg = fft_grid(spec.nt, lgrid.t_half_window)
    zc, zm = grid_coords(2, xg, xg)
    samples = np.zeros(zc.shape[:-1] + (spec.nt,), dtype=complex)
    for j, ms in slices.items():
        lv = lgrid.lam[j]
        scale = (2 * np.pi / abs(lv)) ** 2
        samples += (lgrid.wmu[j] * scale * ms.field(zc, zm))[..., None] * np.exp(-1j * lv * tg)
    return GridFunction(2, xg, xg, tg, samples, schwartz=True)


def pair_fits_modes(spec, kmax, lam, n):
    """The admissible (alpha, beta) list as the per-mode analysis enumerated it."""
    kfit = min(kmax, max(0, spec.max_radial_level(lam)))
    modes = []
    for beta in [b for deg in range(kfit + 1) for b in multiindices(n, deg)]:
        acap = spec.acap_for_k(sum(beta), lam, spec.beta_cap)
        modes += [(alpha, beta) for alpha in multiindices_upto(n, max(acap, 0))
                  if spec.pair_fits(sum(alpha), sum(beta), lam)]
    return modes


def per_mode_coefs(f, lam, modes):
    """Each mode built as a full 2n-dimensional grid field through e1d and
    projected on its own: the independent reference for the per-plane path."""
    n = f.n
    sl = partial_fourier_t(f, lam)
    zc, zm = grid_coords(n, f.xgrid, f.ugrid)
    onorm = (abs(lam) / (2 * np.pi)) ** (n / 2)
    out = []
    for alpha, beta in modes:
        fld = onorm * np.prod([e1d(lam, alpha[ax], beta[ax], zc[..., ax], zm[..., ax])
                               for ax in range(n)], axis=0)
        out.append(np.sum(sl * np.conj(fld)) * f.hx ** (2 * n))
    return np.asarray(out, dtype=complex)


class TestAnalyzeN2:
    @pytest.mark.parametrize("kw", [N2_SPEC, N2_WIDE], ids=["nx16", "nx24"])
    def test_modal_round_trip_and_plancherel(self, kw):
        # hand-rolled n=2 fixture: one populated lambda slice, few modes
        spec = QuadratureSpec(**kw)
        lgrid = LambdaGrid.build(spec, 1.0)
        j0 = int(np.argmin(np.abs(lgrid.lam - 1.0)))
        lam0 = lgrid.lam[j0]
        modes = [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 0), (1, 1))]
        coefs = np.array([1.2, 0.7j, 0.5, -0.3 + 0.2j])
        for (al, be) in modes:
            assert spec.pair_fits(sum(al), sum(be), lam0)
        f = n2_gridfn(spec, lgrid, {j0: ModalSliceND(lam0, 2, modes, coefs)})
        sd = analyze(f, lgrid, spec.kmax, spec)
        scale = (2 * np.pi / abs(lam0)) ** 2
        want = np.zeros((spec.kmax + 1, lgrid.lam.size))
        for (al, be), c in zip(modes, coefs):
            want[sum(be), j0] += scale * abs(c) ** 2
        # recovery floor tracks the fit_tol=1e-6 admissibility of this grid
        assert np.max(np.abs(sd.norms2 - want)) <= 1e-7 * np.max(want)
        lhs, rhs, rel = plancherel_check(f, sd)
        assert rel <= 1e-7

    def test_coefficients_match_per_mode_projection(self):
        # lambda = 1 carries every admissible mode, lambda = 0.5 admits none
        spec = QuadratureSpec(**N2_SPEC)
        full = LambdaGrid.build(spec, 1.0)
        js = [int(np.argmin(np.abs(full.lam - lv))) for lv in (1.0, 0.5)]
        lgrid = LambdaGrid(full.lam[js], full.dl, full.wmu[js])
        modes = pair_fits_modes(spec, spec.kmax, 1.0, 2)
        rng = np.random.default_rng(4)
        coefs = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
        f = n2_gridfn(spec, lgrid, {0: ModalSliceND(1.0, 2, modes, coefs)})
        sd = analyze(f, lgrid, spec.kmax, spec)
        assert sd.modal[0].modes == modes and sd.modal[1].modes == []
        ref = per_mode_coefs(f, 1.0, modes)
        assert np.max(np.abs(sd.modal[0].coef - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert sd.modal[1].coef.size == 0 and np.all(sd.norms2[:, 1] == 0.0)

    @pytest.mark.parametrize("kw", [N2_SPEC, N2_WIDE], ids=["nx16", "nx24"])
    def test_mode_lists_match_pair_fits_enumeration(self, kw):
        spec = QuadratureSpec(**kw)
        lgrid = LambdaGrid.build(spec, 1.0)
        f = n2_gridfn(spec, lgrid, {})
        sd = analyze(f, lgrid, spec.kmax, spec)
        for ms, lv in zip(sd.modal, lgrid.lam):
            assert ms.modes == pair_fits_modes(spec, spec.kmax, lv, 2)
            assert all(_mode_mask(spec, spec.kmax, lv)[sum(b), sum(a)] for a, b in ms.modes)

    def test_derived_views(self):
        # lambda = +-1 carry every admissible mode (tapered to stay above the
        # grid's mode-norm floor); the other nodes admit none and stay empty
        spec = QuadratureSpec(**N2_SPEC)
        lgrid = LambdaGrid.build(spec, 1.0)
        rng = np.random.default_rng(7)
        slices = {}
        for j, lv in enumerate(lgrid.lam):
            modes = pair_fits_modes(spec, spec.kmax, lv, 2)
            degree = np.array([sum(a) + sum(b) for a, b in modes])
            coef = (rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes)))
            slices[j] = ModalSliceND(lv, 2, modes, coef * np.exp(-degree))
        f = n2_gridfn(spec, lgrid, slices)
        sd = analyze(f, lgrid, spec.kmax, spec)
        assert sorted({len(ms.modes) for ms in sd.modal}) == [0, 15]
        harea = f.hx ** 4
        sls, projs = sd.slices, sd.projections
        for j, lv in enumerate(sd.lam):
            raw = partial_fourier_t(f, lv)
            # the residual is the uncaptured energy; non-orthogonality on this
            # grid adds up to 2.1e-14 of the slice energy (measured)
            resid = np.sum(np.abs(raw - sls[j]) ** 2) * harea
            assert resid <= sd.tail[j] + 1e-12 * np.sum(np.abs(raw) ** 2) * harea
            want = (2 * np.pi / abs(lv)) ** 2 * sls[j]
            assert projs[j].shape == (spec.kmax + 1,) + want.shape
            err = np.max(np.abs(projs[j].sum(axis=0) - want))
            assert err <= 1e-13 * max(np.max(np.abs(want)), 1e-300)
        back = invert_grid(sd, f.tgrid)
        N = spec.nx
        inner = (slice(N // 4, 3 * N // 4),) * 4 + (slice(None),)
        peak = np.max(np.abs(f.samples[inner]))
        # measured 9.2e-8: the recovery floor of this fit_tol = 1e-6 grid
        assert np.max(np.abs(back.samples[inner] - f.samples[inner])) <= 1e-6 * peak
        i = (N // 2 + 2, N // 2 - 1, N // 2 + 1, N // 2 - 3)
        m = spec.nt // 3
        x = f.xgrid
        p = ComplexPoint([x[i[0]], x[i[1]]], [0.0, 0.0], [x[i[2]], x[i[3]]], [0.0, 0.0],
                         f.tgrid[m], 0.0)
        assert abs(invert(sd, p) - back.samples[i + (m,)]) <= 1e-12 * np.max(np.abs(back.samples))


    def test_views_scan_the_grid_once(self, monkeypatch):
        # projections and slices scan the sample grid once per access; the
        # values equal per-slice, per-level field calls exactly
        spec = QuadratureSpec(**N2_SPEC)
        lgrid = LambdaGrid.build(spec, 1.0)
        rng = np.random.default_rng(9)
        modal = []
        for lv in lgrid.lam:
            modes = pair_fits_modes(spec, spec.kmax, lv, 2)
            coef = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
            modal.append(ModalSliceND(lv, 2, modes, coef))
        xg = fft_grid(spec.nx, spec.lx)
        sd = spectral.SpectralData(2, lgrid, spec.kmax, xg, xg,
                                   np.zeros((spec.kmax + 1, lgrid.lam.size)), modal,
                                   np.zeros(lgrid.lam.size))
        scans = []
        scan = hermite_modes.point_planes
        for mod in (spectral, hermite_modes):
            monkeypatch.setattr(mod, "point_planes",
                                lambda zc, zm: scans.append(1) or scan(zc, zm))
        projs, sls = sd.projections, sd.slices
        assert scans == [1, 1]
        monkeypatch.undo()
        zc, zm = grid_coords(2, xg, xg)
        for ms, proj, sl in zip(modal, projs, sls):
            scale = (2 * np.pi / abs(ms.lam)) ** 2
            want = np.stack([scale * ms.field(zc, zm, k_select=k) for k in range(spec.kmax + 1)])
            assert np.array_equal(proj, want) and np.array_equal(sl, ms.field(zc, zm))
        assert sum(np.any(p) for p in projs) == 2


class TestAnalyzeN1:
    def test_matches_full_table_product(self, fixture_small, analyzed_small):
        # the per-plane path at n = 1 against conj(B) @ slice over the whole
        # (kmax+1) x (beta_cap+1) table
        spec, f, _ = fixture_small
        Z = f.xgrid[:, None] + 1j * f.ugrid[None, :]
        for j, lv in enumerate(analyzed_small.lam):
            mask = _mode_mask(spec, spec.kmax, lv)
            B = rectangle(basis_matrix(lv, spec.kmax, spec.beta_cap, Z, mask=mask), mask)
            want = (np.conj(B.reshape(mask.size, -1)) @ partial_fourier_t(f, lv).ravel()
                    * f.hx ** 2).reshape(mask.shape)
            got = analyzed_small.modal[j].coef
            assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(want)), 1e-300)


def analyze_per_node(f, lgrid, kmax, spec):
    """(coef list, norms2, tail) as analyze computed them node by node, one
    mask and one conjugated table per lambda, at n = 1 the table scattered
    into the (kmax+1) x (acap+1) rectangle, widened to two columns: the
    reference for the path that shares them across each +-lambda pair and
    contracts the admitted rows alone."""
    n = f.n
    Z, _ = grid_coords(1, f.xgrid, f.ugrid)
    harea = f.hx ** (2 * n)
    planes = [ax for j in range(n) for ax in (j, n + j)]
    coefs = []
    norms2 = np.zeros((kmax + 1, lgrid.lam.size))
    tail = np.zeros(lgrid.lam.size)
    for j, lv in enumerate(lgrid.lam):
        sl = partial_fourier_t(f, lv)
        mask = _mode_mask(spec, kmax, lv)
        kt, at = int(mask.any(axis=1).sum()), int(mask.any(axis=0).sum())
        at = min(max(at, 2), spec.beta_cap + 1)
        if n == 1:
            B = rectangle(basis_matrix(lv, kt - 1, at - 1, Z, mask=mask[:kt, :at]), mask[:kt, :at])
        else:
            B = basis_matrix(lv, kt - 1, at - 1, Z)
        Bc = np.conjugate(B, out=B).reshape(kt * at, Z.size)
        T = sl.transpose(planes).reshape((Z.size,) * n)
        for _ in range(n):
            T = np.moveaxis(np.tensordot(Bc, T, axes=(1, 0)), 0, -1)
        T = (T * harea).reshape((kt, at) * n)
        if n == 1:
            coef = np.zeros((kmax + 1, spec.beta_cap + 1), dtype=complex)
            coef[:kt, :at] = T
            norms2[:, j] = spectral.ModalSlice(lv, coef).proj_norms2()
        else:
            modes = [(alpha, beta) for k in range(kt) for beta in multiindices(n, k)
                     for alpha in multiindices_upto(n, at - 1) if mask[k, sum(alpha)]]
            coef = np.array([T[sum(zip(beta, alpha), ())] for alpha, beta in modes],
                            dtype=complex)
            norms2[:, j] = ModalSliceND(lv, n, modes, coef).proj_norms2(kmax)
        coefs.append(coef)
        tail[j] = max(0.0, float(np.sum(np.abs(sl) ** 2) * harea - np.sum(np.abs(coef) ** 2)))
    return coefs, norms2, tail


class TestAnalyzePairs:
    """analyze builds one mask and one table per +-lambda pair; the results
    equal the node-by-node path exactly."""

    @staticmethod
    def assert_same(sd, ref):
        coefs, norms2, tail = ref
        assert len(sd.modal) == len(coefs)
        for ms, lv, coef in zip(sd.modal, sd.lam, coefs):
            assert ms.lam == lv and np.array_equal(ms.coef, coef)
        assert np.array_equal(sd.norms2, norms2) and np.array_equal(sd.tail, tail)

    def test_n1_fixture(self, fixture_small, analyzed_small):
        spec, f, sd = fixture_small
        self.assert_same(analyzed_small, analyze_per_node(f, sd.lgrid, spec.kmax, spec))

    def test_unpaired_node(self, fixture_small):
        spec, f, _ = fixture_small
        dual = np.pi / f.t_half_window
        # pairs +-5, +-8 and a lone 6: populated dual-lattice nodes of the fixture
        lam = np.array([-8.0, -5.0, 5.0, 8.0, 6.0]) * dual
        lgrid = LambdaGrid(lam, dual, np.ones(lam.size))
        sd = analyze(f, lgrid, spec.kmax, spec)
        assert all(np.any(ms.coef) for ms in sd.modal)
        self.assert_same(sd, analyze_per_node(f, lgrid, spec.kmax, spec))

    def test_one_pair_group(self, fixture_small):
        # |lambda| = 4/8 admits the single pair (0, 0) on this grid: analyze
        # pads its one-row table with a zero row
        spec, f, sd = fixture_small
        lam = sd.lgrid.lam
        keep = np.flatnonzero(np.isin(np.round(np.abs(lam) * 8), (4, 5)))
        lgrid = LambdaGrid(lam[keep], sd.lgrid.dl, sd.lgrid.wmu[keep])
        counts = [int(_mode_mask(spec, spec.kmax, lv).sum()) for lv in lgrid.lam]
        assert sorted(counts) == [1, 1, 6, 6]
        sd1 = analyze(f, lgrid, spec.kmax, spec)
        assert all(np.count_nonzero(ms.coef) == c for ms, c in zip(sd1.modal, counts))
        self.assert_same(sd1, analyze_per_node(f, lgrid, spec.kmax, spec))

    def test_n2_fixture(self):
        spec = QuadratureSpec(**N2_SPEC)
        lgrid = LambdaGrid.build(spec, 1.0)
        rng = np.random.default_rng(8)
        slices = {}
        for j, lv in enumerate(lgrid.lam):
            modes = pair_fits_modes(spec, spec.kmax, lv, 2)
            coef = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
            slices[j] = ModalSliceND(lv, 2, modes, coef)
        f = n2_gridfn(spec, lgrid, slices)
        sd = analyze(f, lgrid, spec.kmax, spec)
        assert sum(ms.coef.size > 0 for ms in sd.modal) == 2
        self.assert_same(sd, analyze_per_node(f, lgrid, spec.kmax, spec))
        assert all(ms.modes == pair_fits_modes(spec, spec.kmax, lv, 2)
                   for ms, lv in zip(sd.modal, sd.lam))

    def test_desk_grid_tables_conjugate(self):
        # the identity analyze relies on, on every pair of the desk grid
        spec = QuadratureSpec()
        lam = LambdaGrid.build(spec, 1.0).lam
        Z, _ = grid_coords(1, fft_grid(spec.nx, spec.lx), fft_grid(spec.nx, spec.lx))
        pairs = [g for g in spectral.abs_lam_groups(lam) if len(g) == 2]
        assert len(pairs) == 16
        for j, jm in pairs:
            mask = _mode_mask(spec, spec.kmax, lam[j])
            assert np.array_equal(mask, _mode_mask(spec, spec.kmax, lam[jm]))
            B = rectangle(basis_matrix(lam[j], spec.kmax, spec.beta_cap, Z, mask=mask), mask)
            Bm = rectangle(basis_matrix(lam[jm], spec.kmax, spec.beta_cap, Z, mask=mask), mask)
            assert np.array_equal(Bm, np.conj(B))


class TestSynth:
    def test_deterministic(self):
        spec = small_spec()
        f1, sd1 = synth_bandlimited(1.0, 7.0, seed=11, spec=spec)
        f2, sd2 = synth_bandlimited(1.0, 7.0, seed=11, spec=spec)
        assert np.array_equal(f1.samples, f2.samples)
        assert np.array_equal(sd1.norms2, sd2.norms2)

    def test_seed_changes_masses_not_support(self):
        spec = small_spec()
        _, sd1 = synth_bandlimited(1.0, 7.0, seed=1, spec=spec)
        _, sd2 = synth_bandlimited(1.0, 7.0, seed=2, spec=spec)
        assert not np.allclose(sd1.norms2, sd2.norms2)
        assert np.array_equal(sd1.norms2 > 0, sd2.norms2 > 0)

    def test_band_exceeds_grid_rejected(self):
        spec = small_spec()
        with pytest.raises(SpectralError):
            synth_bandlimited(200.0, 9.0, seed=0, spec=spec)

    def test_tiny_band_pure_k0(self):
        spec = small_spec()
        f, sd = synth_bandlimited(1.0, 1.1, seed=3, spec=spec)
        ks, _ = np.nonzero(sd.norms2)
        assert np.all(ks == 0)

    def test_achieved_band_within_request(self, fixture_small):
        _, _, sd = fixture_small
        assert sd.band.A <= sd.requested_band.A + 1e-12
        assert sd.band.B <= sd.requested_band.B + 1e-12

    def test_validate_consistency(self, fixture_small):
        # norms2 against the grid norms of the projections rebuilt from modal
        _, _, sd = fixture_small
        assert np.all(sd.norms2 >= -1e-15) and np.all(np.abs(sd.lam) >= 1e-14)
        harea = sd.hx ** (2 * sd.n)
        got = np.stack([(abs(lv) / (2 * np.pi)) ** sd.n * harea * np.sum(np.abs(pk) ** 2, axis=(1, 2))
                        for lv, pk in zip(sd.lam, sd.projections)], axis=1)
        assert np.max(np.abs(got - sd.norms2)) <= 1e-8 * max(float(np.max(sd.norms2)), 1.0)
