import io
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from conftest import grid_stacks, level_cut, rectangle, single_cell, small_spec
from gutzmerlab import grids, hermite_modes, spectral
from gutzmerlab.grids import QuadratureSpec, fft_grid, laguerre_tail_mass
from gutzmerlab.heisenberg_core import ComplexPoint
from gutzmerlab.hermite_modes import ModalSliceND, basis_matrix, e1d, multiindices, multiindices_upto
from gutzmerlab.specfun import laguerre_phi
from gutzmerlab.spectral import (
    DecayError,
    GridFunction,
    LambdaGrid,
    SpectralError,
    _mode_mask,
    analyze,
    grid_planes,
    invert,
    invert_grid,
    partial_fourier_t,
    plancherel_check,
    synth_bandlimited,
)
from twisted_conv_oracle import twisted_conv


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
        with pytest.raises(DecayError, match="insufficient t-extent for lambda = 0.333$"):
            partial_fourier_t(f, 0.333)  # off the dual lattice
        # an array call names its first off-lattice node in grid order
        dual = np.pi / f.t_half_window
        with pytest.raises(DecayError, match="insufficient t-extent for lambda = 0.5$"):
            partial_fourier_t(f, np.array([dual, 0.5, 2.0 * dual, 0.333]))

    def test_node_array_matches_the_per_node_sum(self):
        spec = small_spec()
        lgrid = LambdaGrid.build(spec, 1.0)
        f = make_gaussian_gridfn(spec, lgrid)
        lam = lgrid.lam[:6].reshape(2, 3)
        got = partial_fourier_t(f, lam)
        assert got.shape == (2, 3, spec.nx, spec.nx)
        for idx in np.ndindex(lam.shape):
            # the node-by-node t sum; the product sums in another order
            want = np.tensordot(f.samples, np.exp(1j * lam[idx] * f.tgrid) * f.ht, axes=(-1, 0))
            one = partial_fourier_t(f, lam[idx])
            assert one.shape == (spec.nx, spec.nx)
            for sl in (got[idx], one):
                assert np.max(np.abs(sl - want)) <= 1e-14 * np.max(np.abs(want))

    def test_analyze_raises_at_the_first_off_dual_lambda(self, monkeypatch):
        # no edge scan when every node is on the dual lattice, one scan for
        # the whole call when a node is off it, and the schwartz flag checked
        # before any scan
        spec = small_spec(nt=32)
        f = self.fat_gaussian(spec)
        dual = np.pi / f.t_half_window
        scans = []
        scan = spectral._t_edges_decayed
        monkeypatch.setattr(spectral, "_t_edges_decayed", lambda g: scans.append(1) or scan(g))
        on_dual = np.array([-2.0, -1.0, 1.0, 2.0, 3.0]) * dual
        sd = analyze(f, LambdaGrid(on_dual, dual, np.ones(5)), spec.kmax, spec)
        assert [ms.lam for ms in sd.modal] == list(on_dual) and scans == []
        lam = on_dual.copy()
        lam[3] = 0.333
        with pytest.raises(DecayError, match="insufficient t-extent for lambda = 0.333$"):
            analyze(f, LambdaGrid(lam, dual, np.ones(5)), spec.kmax, spec)
        assert scans == [1]
        f.schwartz = False
        with pytest.raises(DecayError, match="schwartz"):
            analyze(f, LambdaGrid(lam, dual, np.ones(5)), spec.kmax, spec)
        assert scans == [1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_analyze_takes_every_slice_in_one_call(self, n, fixture_small, monkeypatch):
        if n == 1:
            spec, f, sd = fixture_small
            lgrid = sd.lgrid
        else:
            spec = QuadratureSpec(**N2_SPEC)
            lgrid = LambdaGrid.build(spec, 1.0)
            f = n2_gridfn(spec, lgrid, {})
        calls = []
        pft = spectral.partial_fourier_t
        monkeypatch.setattr(spectral, "partial_fourier_t",
                            lambda g, lam: calls.append(lam) or pft(g, lam))
        analyze(f, lgrid, spec.kmax, spec)
        assert len(calls) == 1 and np.array_equal(calls[0], lgrid.lam)

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
        pj = np.real(laguerre_phi(1, 0, rho, lam)) + 0j
        pk = np.real(laguerre_phi(3, 0, rho, lam)) + 0j
        conv = twisted_conv(pj, pk, lam, self.xg, self.xg)
        scale = (2 * np.pi / lam) * np.max(np.abs(pk))
        assert np.max(np.abs(conv)) <= 1e-6 * scale

    def test_laguerre_idempotent(self):
        lam = 1.1
        rho = np.abs(self.Z) ** 2
        pk = np.real(laguerre_phi(2, 0, rho, lam)) + 0j
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


def test_tail_mass_does_not_depend_on_call_order():
    # both S round to the cache key (3, 2, 30.0); the value must be the same
    # whichever of them fills the key
    values = []
    for first, second in ((30.0000004, 29.9999996), (29.9999996, 30.0000004)):
        grids._tail_mass.cache_clear()
        laguerre_tail_mass(3, 2, first)
        values.append(laguerre_tail_mass(3, 2, second))
    grids._tail_mass.cache_clear()
    assert values[0] == values[1] == laguerre_tail_mass(3, 2, 30.0)


def quadrature_tail_mass(m, d, S, cache={}):
    """laguerre_tail_mass as it was computed at every m before the closed
    form of its m = 0 column: a 400-node Gauss-Legendre rule on the
    orthonormal recurrence, cached under S rounded to 6 decimals."""
    from math import lgamma

    S = round(float(S), 6)
    if (m, d, S) not in cache:
        tp = 4.0 * m + 2.0 * d + 2.0
        hi = max(tp, S) + 60.0 + 10.0 * np.sqrt(tp)
        s, w = grids.gauss_legendre_on(S, hi, 400)
        log0 = 0.5 * (d * np.log(np.maximum(s, 1e-300)) - lgamma(d + 1)) - 0.5 * s
        l0 = np.exp(np.maximum(log0, -700.0))
        l0[log0 < -700.0] = 0.0
        lm1, lm = None, l0
        if m:
            lm1, lm = l0, (d + 1.0 - s) * l0 / np.sqrt(d + 1.0)
        for j in range(1, m):
            lm1, lm = lm, (((2.0 * j + d + 1.0 - s) * lm - np.sqrt(j * (j + d)) * lm1)
                           / np.sqrt((j + 1.0) * (j + 1.0 + d)))
        cache[m, d, S] = float(np.sum(lm * lm * w))
    return cache[m, d, S]


def quadrature_max_radial_level(spec, lam):
    """QuadratureSpec.max_radial_level as the pair_fits loop it was."""
    m = -1
    while m < 400 and spec.pair_fits(0, m + 1, lam):
        m += 1
    return m


CLI_BANDS = ((1.0, 9.0), (0.5, 2.0))


class TestPoissonColumn:
    """The a = 0 column of the tail masses in closed form, against the
    quadrature it replaces."""

    @staticmethod
    def desk_radii():
        spec = QuadratureSpec()
        lam, _, _ = spec.lambda_grid(1.0)
        return sorted({round(float(S), 6) for lv in lam for S in spec._fit_radii(lv)})

    def test_matches_quadrature(self):
        for S in self.desk_radii():
            col = grids._poisson_tail(400, S)
            want = np.array([quadrature_tail_mass(0, d, S) for d in range(401)])
            assert np.all(np.abs(col - want) <= 1e-11 * np.maximum(want, 1e-290))
            for d in (0, 1, 7, 64, 400):
                assert laguerre_tail_mass(0, d, S) == col[d]

    def test_zero_radius_holds_all_mass(self):
        assert np.array_equal(grids._poisson_tail(5, 0.0), np.ones(6))
        assert laguerre_tail_mass(0, 3, 0.0) == 1.0

    @staticmethod
    def specs_and_grids():
        """(spec, lambda nodes): the desk, n = 2 and unit-test specs at A = 1,
        and the tuned spec of each CLI band at its A."""
        out = [(sp, sp.lambda_grid(1.0)[0])
               for sp in (QuadratureSpec(), QuadratureSpec(**N2_SPEC), small_spec())]
        for A, B in CLI_BANDS:
            tuned = spectral._tune_grid(QuadratureSpec(), A, B, QuadratureSpec().kmax)
            out.append((tuned, tuned.lambda_grid(A)[0]))
        return out

    def test_levels_masks_and_tuned_specs_match_quadrature(self, monkeypatch):
        from dataclasses import astuple

        def masks(cases):
            return [[(sp.max_radial_level(lv),
                      spectral._mode_mask_of.__wrapped__(astuple(sp), sp.kmax, abs(float(lv))))
                     for lv in lam] for sp, lam in cases]

        cases = self.specs_and_grids()
        got = masks(cases)
        monkeypatch.setattr(grids, "laguerre_tail_mass", quadrature_tail_mass)
        monkeypatch.setattr(QuadratureSpec, "max_radial_level", quadrature_max_radial_level)
        monkeypatch.setattr(QuadratureSpec, "max_radial_levels", lambda sp, lams: np.array(
            [quadrature_max_radial_level(sp, lv) for lv in lams], dtype=int))
        want_cases = self.specs_and_grids()
        assert [sp for sp, _ in want_cases] == [sp for sp, _ in cases]
        for g, w in zip(got, masks(want_cases)):
            assert [lv for lv, _ in g] == [lv for lv, _ in w]
            assert all(np.array_equal(gm, wm) for (_, gm), (_, wm) in zip(g, w))


def tune_grid_asks(monkeypatch, A, B) -> list:
    """(trial spec, |lambda| asked, levels returned) of every
    max_radial_levels call that _tune_grid makes at band (A, B)."""
    calls = []
    levels = QuadratureSpec.max_radial_levels

    def recorded(self, lams):
        out = levels(self, lams)
        calls.append((replace(self), [abs(float(lv)) for lv in lams], out))
        return out

    with monkeypatch.context() as m:
        m.setattr(QuadratureSpec, "max_radial_levels", recorded)
        spectral._tune_grid(QuadratureSpec(), A, B, QuadratureSpec().kmax)
    return calls


def test_tune_grid_asks_each_abs_lambda_once(monkeypatch):
    # the +-lambda nodes of a trial grid share their populable level, and a
    # trial asks for all of its levels in one call
    calls = tune_grid_asks(monkeypatch, 1.0, 9.0)
    trials = {tuple(vars(trial).values()) for trial, _, _ in calls}
    assert len(calls) == len(trials) == 45
    assert all(len(al) == len(set(al)) for _, al, _ in calls)
    assert sum(len(al) for _, al, _ in calls) == 540


def poisson_row(dmax, S):
    """One _poisson_tail row as the 1-D running log-sum-exp it was before
    the rows of many S were formed as one array."""
    from math import lgamma, log

    log_fact = np.array([lgamma(i + 1.0) for i in range(dmax + 1)])
    return np.exp(np.logaddexp.accumulate(np.arange(dmax + 1) * log(S) - log_fact - S))


@pytest.mark.parametrize("A, B", CLI_BANDS)
def test_tune_grid_levels_equal_the_scalar_levels(monkeypatch, A, B):
    # one [lambda, radius, d] table per trial gives each lambda the level it
    # gets asked alone, and each radius its 1-D Poisson row, bit for bit
    for trial, al, got in tune_grid_asks(monkeypatch, A, B):
        assert got.tolist() == [trial.max_radial_level(a) for a in al]
        radii = [[round(float(S), 6) for S in trial._fit_radii(a)] for a in al]
        rows = grids._poisson_tail(400, radii)
        assert rows.shape == (len(al), 2, 401)
        for row, S in zip(rows.reshape(-1, 401), np.ravel(radii)):
            assert np.array_equal(row, poisson_row(400, S))
            assert np.array_equal(row, grids._poisson_tail(400, S))


def decimal_root(n, x0, digits=40):
    """(root, weight) of the n-point Gauss-Legendre rule next to x0: Newton
    on the Legendre recurrence in decimal arithmetic at `digits` digits."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = digits
        x = Decimal(float(x0))
        for _ in range(3):
            p0, p1 = Decimal(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1)
            x -= p1 / dp
        return float(x), float(2 / ((1 - x * x) * dp * dp))


class TestGaussLegendre:
    """grids._leggauss: Newton on the recurrence instead of numpy's leggauss,
    an eigensolve through LAPACK."""

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 400, 401, 600, 800])
    def test_matches_numpy_leggauss(self, n):
        from numpy.polynomial.legendre import leggauss

        x, w = grids._leggauss(n)
        X, W = leggauss(n)
        assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.max(np.abs(x - X)) <= 1e-14
        # leggauss's own weights next to +-1 are off by up to 2.6e-14 at
        # n = 400 (5.6e-10 of the weight), against the decimal reference
        assert np.max(np.abs(w - W)) <= 5e-14
        assert abs(np.sum(w) - 2.0) <= 1e-14 and not x.flags.writeable

    @pytest.mark.parametrize("n", [400, 600, 800])
    def test_matches_decimal_newton(self, n):
        # the outermost nodes carry the largest relative weight error
        x, w = grids._leggauss(n)
        for i in (0, 1, 2, 7, n // 2):
            xr, wr = decimal_root(n, x[i])
            assert abs(x[i] - xr) <= 2.3e-16
            assert abs(w[i] - wr) <= 1e-11 * wr


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
            pk = np.real(laguerre_phi(k, 0, rho, lam)) + 0j
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
        target = 2.3
        sd = single_cell(sd, k0, j0, target)
        f1 = invert_grid(sd, f.tgrid)
        sd2 = analyze(f1, sd.lgrid, spec.kmax, spec)
        total = sd2.total_mass()
        inside = sd2.norms2[k0, j0] * sd2.wmu[j0]
        assert (total - inside) <= 1e-3 * total  # leakage
        assert sd2.norms2[k0, j0] == pytest.approx(target, rel=1e-6)


class TestPlancherel:
    def test_squared_norm_in_real_arithmetic(self, fixture_small):
        # against the sum of |f|^2 through np.abs, at n = 1 and n = 2
        _, f, _ = fixture_small
        rng = np.random.default_rng(14)
        shape = (10,) * 4 + (16,)
        g = GridFunction(2, f.xgrid[::4], f.xgrid[::4], f.tgrid[::4],
                         rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for fn in (f, g):
            want = np.sum(np.abs(fn.samples) ** 2) * fn.hx ** (2 * fn.n) * fn.ht
            assert abs(fn.squared_norm() - want) <= 1e-14 * want

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

    def test_point_of_other_dimension_rejected(self, analyzed_small):
        p = ComplexPoint([0.1, 0.2], [0.0, 0.0], [0.3, -0.1], [0.0, 0.0], 0.0, 0.0)
        with pytest.raises(SpectralError, match="point of dimension 2 for data of dimension 1"):
            invert(analyzed_small, p)

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
        sd = single_cell(sd, k0, j0, sd.norms2[k0, j0])
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


@pytest.fixture(scope="module")
def desk():
    return synth_bandlimited(1.0, 9.0, seed=42)


class TestBlockedInvertGrid:
    """invert_grid fills one preallocated sample array block by block along
    the first grid axis; every block size gives the one-block samples bit
    for bit."""

    @pytest.mark.parametrize("block", [1, 60_000, 500_000])     # 48, 24 and 3 blocks
    def test_n1_blocks_match_one_block(self, desk, monkeypatch, block):
        f, sd = desk
        monkeypatch.setattr(spectral, "INVERT_BLOCK_BYTES", block)
        assert np.array_equal(invert_grid(sd, f.tgrid).samples, f.samples)

    @pytest.mark.parametrize("block", [1, 1_000_000, 2_500_000])    # 16, 8 and 3 blocks
    def test_n2_blocks_match_one_block(self, monkeypatch, block):
        spec = QuadratureSpec(**N2_SPEC)
        lgrid = LambdaGrid.build(spec, 1.0)
        xg, tg = fft_grid(spec.nx, spec.lx), fft_grid(spec.nt, lgrid.t_half_window)
        rng = np.random.default_rng(3)
        shape = (spec.nx,) * 4 + (spec.nt,)
        f = GridFunction(2, xg, xg, tg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        sd = analyze(f, lgrid, spec.kmax, spec)
        whole = invert_grid(sd, tg).samples
        monkeypatch.setattr(spectral, "INVERT_BLOCK_BYTES", block)
        assert np.array_equal(invert_grid(sd, tg).samples, whole)

    def test_desk_grid_is_one_block(self, desk, monkeypatch):
        f, sd = desk
        shapes = []
        fields = spectral.modal_fields
        monkeypatch.setattr(spectral, "modal_fields",
                            lambda modal, planes: shapes.append(planes[0]) or fields(modal, planes))
        invert_grid(sd, f.tgrid)
        assert shapes == [f.samples.shape[:-1]]

    def test_peak_is_the_samples_and_one_block(self, monkeypatch):
        # n = 1, nx 96, nt 192: 28 MB of samples, 4.7 MB of slices, blocks of
        # 2 rows (98 kB); the rest is the per-call working set of the field
        # evaluator (about 1.4 MB, whatever the block)
        spec = QuadratureSpec(nx=96)
        _, sd = synth_bandlimited(1.0, 9.0, seed=42, spec=spec)
        tg = fft_grid(192, sd.lgrid.t_half_window)
        monkeypatch.setattr(spectral, "INVERT_BLOCK_BYTES", 1 << 17)
        block = (1 << 17) // (sd.lam.size * 16 * spec.nx) * sd.lam.size * 16 * spec.nx
        tracemalloc.start()
        try:
            f = invert_grid(sd, tg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * f.samples.nbytes + block


N2_SPEC = dict(n=2, nx=16, lx=7.5, nt=24, nodes_per_A=2, margin_nodes=1, kmax=2,
               beta_cap=3, fit_tol=1e-6)
N2_WIDE = dict(N2_SPEC, nx=24, kmax=4, beta_cap=8)


def n2_gridfn(spec, lgrid, slices):
    """n = 2 grid function whose slice at lgrid.lam[j] is the ModalSliceND slices[j]
    (lambda nodes without one stay empty)."""
    xg = fft_grid(spec.nx, spec.lx)
    tg = fft_grid(spec.nt, lgrid.t_half_window)
    zc, zm = grid_stacks(2, xg, xg)
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


def support(ms):
    """The (alpha, beta) modes of the nonzero entries of ms.coef."""
    return {(idx[1::2], idx[0::2])
            for idx in (tuple(map(int, i)) for i in zip(*np.nonzero(ms.coef)))}


def coef_at(ms, modes):
    """ms.coef at each (alpha, beta) of modes."""
    return np.array([ms.coef[sum(zip(beta, alpha), ())] for alpha, beta in modes])


def per_mode_coefs(f, lam, modes):
    """Each mode built as a full 2n-dimensional grid field through e1d and
    projected on its own: the independent reference for the per-plane path."""
    n = f.n
    sl = partial_fourier_t(f, lam)
    zc, zm = grid_stacks(n, f.xgrid, f.ugrid)
    onorm = (abs(lam) / (2 * np.pi)) ** (n / 2)
    out = []
    for alpha, beta in modes:
        fld = onorm * np.prod([e1d(lam, alpha[ax], beta[ax], zc[..., ax], zm[..., ax])
                               for ax in range(n)], axis=0)
        out.append(np.sum(sl * np.conj(fld)) * f.hx ** (2 * n))
    return np.asarray(out, dtype=complex)


def grid_coords_stacks(n, xgrid, ugrid):
    """The tensor grid's coordinates as the package once built them: (nx, nu)
    arrays at n = 1, [(nx,)*n + (nu,)*n, n] stacks otherwise."""
    if n == 1:
        Z = xgrid[:, None] + 1j * ugrid[None, :]
        return Z, np.conj(Z)
    shape = (xgrid.size,) * n + (ugrid.size,) * n
    Zax = []
    for j in range(n):
        sx = [1] * (2 * n)
        sx[j] = xgrid.size
        su = [1] * (2 * n)
        su[n + j] = ugrid.size
        Zax.append((xgrid.reshape(sx) + 1j * ugrid.reshape(su)) * np.ones(shape))
    Zc = np.stack(Zax, axis=-1)
    return Zc, np.conj(Zc)


@pytest.mark.parametrize("n, nx, nu", [(1, 12, 10), (2, 6, 5), (3, 4, 3)])
def test_grid_planes_broadcast_to_the_coordinate_stacks(n, nx, nu):
    xg, ug = fft_grid(nx, 3.0), fft_grid(nu, 2.5)
    shape, axes = grid_planes(n, xg, ug)
    assert shape == (nx,) * n + (nu,) * n and len(axes) == n
    stacks = grid_coords_stacks(n, xg, ug)
    if n == 1:
        stacks = tuple(s[..., None] for s in stacks)
    for j, plane in enumerate(axes):
        want = [1] * (2 * n)
        want[j], want[n + j] = nx, nu
        for got, stack in zip(plane, stacks):
            assert got.shape == tuple(want)
            full = np.broadcast_to(got, shape)
            # bit for bit, signed zeros included
            assert full.tobytes() == np.ascontiguousarray(stack[..., j]).tobytes()


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
        assert support(sd.modal[0]) == set(modes) and not support(sd.modal[1])
        ref = per_mode_coefs(f, 1.0, modes)
        assert np.max(np.abs(coef_at(sd.modal[0], modes) - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert sd.modal[1].coef.shape == (spec.kmax + 1, spec.beta_cap + 1) * 2
        assert not np.any(sd.modal[1].coef) and np.all(sd.norms2[:, 1] == 0.0)

    @pytest.mark.parametrize("kw", [N2_SPEC, N2_WIDE], ids=["nx16", "nx24"])
    def test_mode_lists_match_pair_fits_enumeration(self, kw):
        # random samples carry content on every mode: analyze keeps exactly
        # the admissible ones and zeroes the rest of each tensor
        spec = QuadratureSpec(**kw)
        lgrid = LambdaGrid.build(spec, 1.0)
        xg = fft_grid(spec.nx, spec.lx)
        tg = fft_grid(spec.nt, lgrid.t_half_window)
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((spec.nx,) * 4) + 1j * rng.standard_normal((spec.nx,) * 4)
        samples = noise[..., None] * np.exp(-1j * np.outer(lgrid.lam, tg)).sum(axis=0)
        sd = analyze(GridFunction(2, xg, xg, tg, samples), lgrid, spec.kmax, spec)
        assert sum(bool(support(ms)) for ms in sd.modal) >= 2
        for ms, lv in zip(sd.modal, lgrid.lam):
            assert support(ms) == set(pair_fits_modes(spec, spec.kmax, lv, 2))
            assert all(_mode_mask(spec, spec.kmax, lv)[sum(b), sum(a)] for a, b in support(ms))

    def test_admitted_rows_and_layout(self, monkeypatch):
        # one basis_matrix table per +-lambda pair, holding the mask's
        # admitted rows alone; coef in the (kmax+1, beta_cap+1)^n layout
        spec = QuadratureSpec(**N2_WIDE)
        lgrid = LambdaGrid.build(spec, 1.0)
        rng = np.random.default_rng(6)
        slices = {j: ModalSliceND(lv, 2, modes, rng.standard_normal(len(modes)))
                  for j, lv in enumerate(lgrid.lam)
                  if (modes := pair_fits_modes(spec, spec.kmax, lv, 2))}
        f = n2_gridfn(spec, lgrid, slices)
        calls = []
        table = spectral.basis_matrix

        def spy(lam, kmax, acap, Z, mask=None, zm=None):
            out = table(lam, kmax, acap, Z, mask=mask, zm=zm)
            calls.append((lam, kmax, acap, mask, out.shape[0]))
            return out

        monkeypatch.setattr(spectral, "basis_matrix", spy)
        sd = analyze(f, lgrid, spec.kmax, spec)
        groups = spectral.abs_lam_groups(lgrid.lam)
        assert len(calls) == len(groups)
        for (lam, kmax, acap, mask, rows), g in zip(calls, groups):
            assert lam == lgrid.lam[g[0]] and (kmax, acap) == (spec.kmax, spec.beta_cap)
            assert np.array_equal(mask, _mode_mask(spec, spec.kmax, lam))
            assert rows == mask.sum()
        assert sum(rows > 0 for *_, rows in calls) == 2
        for ms, lv in zip(sd.modal, sd.lam):
            assert ms.coef.shape == (spec.kmax + 1, spec.beta_cap + 1) * 2
            assert support(ms) == set(pair_fits_modes(spec, spec.kmax, lv, 2))

    @pytest.mark.parametrize("kw", [N2_SPEC, N2_WIDE, {}], ids=["nx16", "nx24", "desk"])
    def test_mode_mask_is_down_closed(self, kw):
        # analyze's row tables rely on it: mask[k, a] admits every (k', a')
        # <= (k, a), so each factor (beta_j, alpha_j) of an admitted mode is
        # itself an admitted row
        spec = QuadratureSpec(**kw)
        for A in (1.0, 1.5):
            for lv in LambdaGrid.build(spec, A).lam:
                mask = _mode_mask(spec, spec.kmax, lv)
                closed = np.flip(np.logical_or.accumulate(
                    np.logical_or.accumulate(np.flip(mask), axis=0), axis=1))
                assert np.array_equal(closed, mask)

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
        assert sorted({int(np.count_nonzero(ms.coef)) for ms in sd.modal}) == [0, 15]
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
        # projections and slices take the grid's planes from grid_planes and
        # scan no point set; the values equal per-slice, per-level field
        # calls exactly
        spec = QuadratureSpec(**N2_SPEC)
        lgrid = LambdaGrid.build(spec, 1.0)
        rng = np.random.default_rng(9)
        modal = []
        for lv in lgrid.lam:
            modes = pair_fits_modes(spec, spec.kmax, lv, 2)
            coef = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
            modal.append(ModalSliceND(lv, 2, modes, coef))
        xg = fft_grid(spec.nx, spec.lx)
        sd = spectral.SpectralData(2, lgrid, spec.kmax, xg, xg, modal, np.zeros(lgrid.lam.size))
        scans = []
        scan = hermite_modes.point_planes
        for mod in (spectral, hermite_modes):
            monkeypatch.setattr(mod, "point_planes",
                                lambda zc, zm: scans.append(1) or scan(zc, zm))
        projs, sls = sd.projections, sd.slices
        assert scans == []
        monkeypatch.undo()
        zc, zm = grid_stacks(2, xg, xg)
        for ms, proj, sl in zip(modal, projs, sls):
            scale = (2 * np.pi / abs(ms.lam)) ** 2
            want = np.stack([scale * level_cut(ms, k).field(zc, zm) for k in range(spec.kmax + 1)])
            assert np.array_equal(proj, want) and np.array_equal(sl, ms.field(zc, zm))
        assert sum(np.any(p) for p in projs) == 2


class TestAnalyzeN1:
    def test_matches_full_table_product(self, fixture_small, analyzed_small):
        # the per-plane path at n = 1 against conj(B) @ slice over the whole
        # (kmax+1) x (beta_cap+1) table
        spec, f, _ = fixture_small
        Z = f.xgrid[:, None] + 1j * f.ugrid[None, :]
        sls = partial_fourier_t(f, analyzed_small.lam)
        for j, lv in enumerate(analyzed_small.lam):
            mask = _mode_mask(spec, spec.kmax, lv)
            B = rectangle(basis_matrix(lv, spec.kmax, spec.beta_cap, Z, mask=mask), mask)
            want = (np.conj(B.reshape(mask.size, -1)) @ sls[j].ravel()
                    * f.hx ** 2).reshape(mask.shape)
            got = analyzed_small.modal[j].coef
            assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(want)), 1e-300)


def analyze_by_table(f, lgrid, kmax, spec):
    """n = 1 coefficients as analyze computed them through basis tables: per
    +-lambda pair one basis_matrix table of the admitted rows at the first
    node l0, padded by a zero row when it has one row, contracted by
    tensordot with each slice (the table itself at -l0, its conjugate at l0)
    and scattered into coef[mask].  The slices come from the one
    partial_fourier_t array analyze reads."""
    _, [(Z, _)] = grid_planes(1, f.xgrid, f.ugrid)
    lam = lgrid.lam
    sls = partial_fourier_t(f, lam)
    coefs = [None] * lam.size
    for group in spectral.abs_lam_groups(lam):
        l0 = lam[group[0]]
        mask = _mode_mask(spec, kmax, l0)
        B = basis_matrix(l0, kmax, spec.beta_cap, Z, mask=mask).reshape(-1, Z.size)
        if B.shape[0] == 1:
            B = np.concatenate([B, np.zeros_like(B)])
        for j in group:
            Bc = B if lam[j] != l0 else np.conj(B)
            sl = sls[j].reshape(Z.size)
            coef = np.zeros(mask.shape, dtype=complex)
            coef[mask] = (np.tensordot(Bc, sl, axes=(1, 0)) * f.hx ** 2)[: mask.sum()]
            coefs[j] = coef
    return coefs


class TestAnalyzeShellMoments:
    """n = 1 analyze through shell moments and the radial table on the
    distinct rho, against the table product it replaces."""

    @staticmethod
    def assert_close(sd, coefs, rel=1e-13):
        for ms, coef in zip(sd.modal, coefs):
            assert ms.coef.shape == coef.shape
            assert np.all(np.abs(ms.coef - coef) <= rel * np.max(np.abs(coef)))
            assert np.array_equal(ms.coef != 0, coef != 0)
        norms2 = np.stack([spectral.ModalSlice(lv, c).proj_norms2()
                           for lv, c in zip(sd.lam, coefs)], axis=1)
        assert np.all(np.abs(sd.norms2 - norms2) <= rel * np.max(norms2, axis=0))
        assert abs(np.sum(sd.norms2) - np.sum(norms2)) <= 1e-14 * np.sum(norms2)

    @staticmethod
    def noise_gridfn(spec, lgrid, seed):
        """Complex noise in (x, u), the same at every node of lgrid: every
        admitted mode carries content."""
        xg = fft_grid(spec.nx, spec.lx)
        tg = fft_grid(spec.nt, lgrid.t_half_window)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((spec.nx,) * 2) + 1j * rng.standard_normal((spec.nx,) * 2)
        samples = noise[..., None] * np.exp(-1j * np.outer(lgrid.lam, tg)).sum(axis=0)
        return GridFunction(1, xg, xg, tg, samples)

    def test_desk_fixture(self):
        spec = QuadratureSpec()
        f, sd = synth_bandlimited(1.0, 9.0, seed=3, spec=spec)
        got = analyze(f, sd.lgrid, spec.kmax, spec)
        self.assert_close(got, analyze_by_table(f, sd.lgrid, spec.kmax, spec))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_lone_members_of_either_sign(self, sign):
        # one sign only, so every group is a lone member: nodes 16, 13 and 9
        # (190, 105 and 25 rows), 5 (one row) and 4 (empty mask) of the desk
        # grid at A = 1
        spec = QuadratureSpec()
        full = LambdaGrid.build(spec, 1.0)
        lam = sign * np.array([16.0, 13.0, 9.0, 5.0, 4.0]) * full.dl
        lgrid = LambdaGrid(lam, full.dl, np.ones(lam.size))
        rows = [int(_mode_mask(spec, spec.kmax, lv).sum()) for lv in lam]
        assert rows[-2:] == [1, 0] and min(rows[:-2]) > 1
        f = self.noise_gridfn(spec, lgrid, seed=12)
        got = analyze(f, lgrid, spec.kmax, spec)
        assert [np.count_nonzero(ms.coef) for ms in got.modal] == rows
        self.assert_close(got, analyze_by_table(f, lgrid, spec.kmax, spec))

    def test_pairs_with_one_row_and_empty_masks(self):
        spec = QuadratureSpec()
        full = LambdaGrid.build(spec, 1.0)
        lam = np.array([-16.0, -5.0, -4.0, 4.0, 5.0, 16.0]) * full.dl
        lgrid = LambdaGrid(lam, full.dl, np.ones(lam.size))
        f = self.noise_gridfn(spec, lgrid, seed=13)
        got = analyze(f, lgrid, spec.kmax, spec)
        assert [np.count_nonzero(ms.coef) for ms in got.modal] == [190, 1, 0, 0, 1, 190]
        assert np.all(got.norms2[:, [2, 3]] == 0.0)
        self.assert_close(got, analyze_by_table(f, lgrid, spec.kmax, spec))

    def test_builds_no_basis_table(self, fixture_small, monkeypatch):
        spec, f, sd = fixture_small
        calls = []
        table = spectral.basis_matrix
        monkeypatch.setattr(spectral, "basis_matrix",
                            lambda *a, **kw: calls.append(a) or table(*a, **kw))
        analyze(f, sd.lgrid, spec.kmax, spec)
        assert calls == []


def analyze_per_node(f, lgrid, kmax, spec):
    """(coef list, norms2, tail) as analyze computed them node by node, one
    mask and one conjugated table per lambda, at n = 1 the table scattered
    into the (kmax+1) x (acap+1) rectangle, widened to two columns, at n >= 2
    the unmasked rectangle table, its contracted tensor zeroed outside the
    enumerated admissible modes; both placed in the (kmax+1, beta_cap+1)^n
    layout: the reference for the path that shares them across each +-lambda
    pair and contracts the admitted rows alone.  The slices come from the one
    partial_fourier_t array analyze reads."""
    n = f.n
    _, [(Z, _)] = grid_planes(1, f.xgrid, f.ugrid)
    harea = f.hx ** (2 * n)
    planes = [ax for j in range(n) for ax in (j, n + j)]
    coefs = []
    norms2 = np.zeros((kmax + 1, lgrid.lam.size))
    tail = np.zeros(lgrid.lam.size)
    for j, (lv, sl) in enumerate(zip(lgrid.lam, partial_fourier_t(f, lgrid.lam))):
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
            keep = np.zeros(T.shape, dtype=bool)
            for k in range(kt):
                for beta in multiindices(n, k):
                    for alpha in multiindices_upto(n, at - 1):
                        keep[sum(zip(beta, alpha), ())] = mask[k, sum(alpha)]
            coef = np.zeros((kmax + 1, spec.beta_cap + 1) * n, dtype=complex)
            coef[tuple(slice(m) for m in T.shape)] = np.where(keep, T, 0)
            norms2[:, j] = spectral.ModalSlice(lv, coef).proj_norms2(kmax)
        coefs.append(coef)
        tail[j] = max(0.0, float(np.sum(np.abs(sl) ** 2) * harea - np.sum(np.abs(coef) ** 2)))
    return coefs, norms2, tail


class TestAnalyzePairs:
    """analyze builds one mask per +-lambda pair (and at n >= 2 one table);
    the results equal the node-by-node path: exactly at n >= 2, to 1e-13 of
    each slice's largest coefficient at n = 1, where the shell moments sum
    in another order than the table product."""

    @staticmethod
    def assert_same(sd, ref, rel=0.0):
        coefs, norms2, tail = ref
        assert len(sd.modal) == len(coefs)
        for ms, lv, coef in zip(sd.modal, sd.lam, coefs):
            assert ms.lam == lv and ms.coef.shape == coef.shape
            assert np.all(np.abs(ms.coef - coef) <= rel * np.max(np.abs(coef)))
        assert np.all(np.abs(sd.norms2 - norms2) <= rel * np.max(norms2, axis=0))
        # the tail is the slice energy less the captured one
        captured = np.array([np.sum(np.abs(c) ** 2) for c in coefs])
        assert np.all(np.abs(sd.tail - tail) <= rel * captured)

    def test_n1_fixture(self, fixture_small, analyzed_small):
        spec, f, sd = fixture_small
        self.assert_same(analyzed_small, analyze_per_node(f, sd.lgrid, spec.kmax, spec), 1e-13)

    def test_unpaired_node(self, fixture_small):
        spec, f, _ = fixture_small
        dual = np.pi / f.t_half_window
        # pairs +-5, +-8 and a lone 6: populated dual-lattice nodes of the fixture
        lam = np.array([-8.0, -5.0, 5.0, 8.0, 6.0]) * dual
        lgrid = LambdaGrid(lam, dual, np.ones(lam.size))
        sd = analyze(f, lgrid, spec.kmax, spec)
        assert all(np.any(ms.coef) for ms in sd.modal)
        self.assert_same(sd, analyze_per_node(f, lgrid, spec.kmax, spec), 1e-13)

    def test_one_pair_group(self, fixture_small):
        # |lambda| = 4/8 admits the single pair (0, 0) on this grid
        spec, f, sd = fixture_small
        lam = sd.lgrid.lam
        keep = np.flatnonzero(np.isin(np.round(np.abs(lam) * 8), (4, 5)))
        lgrid = LambdaGrid(lam[keep], sd.lgrid.dl, sd.lgrid.wmu[keep])
        counts = [int(_mode_mask(spec, spec.kmax, lv).sum()) for lv in lgrid.lam]
        assert sorted(counts) == [1, 1, 6, 6]
        sd1 = analyze(f, lgrid, spec.kmax, spec)
        assert all(np.count_nonzero(ms.coef) == c for ms, c in zip(sd1.modal, counts))
        self.assert_same(sd1, analyze_per_node(f, lgrid, spec.kmax, spec), 1e-13)

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
        assert sum(bool(np.any(ms.coef)) for ms in sd.modal) == 2
        self.assert_same(sd, analyze_per_node(f, lgrid, spec.kmax, spec))
        assert all(support(ms) == set(pair_fits_modes(spec, spec.kmax, lv, 2))
                   for ms, lv in zip(sd.modal, sd.lam))

    def test_desk_grid_tables_conjugate(self):
        # the identity analyze relies on, on every pair of the desk grid
        spec = QuadratureSpec()
        lam = LambdaGrid.build(spec, 1.0).lam
        _, [(Z, _)] = grid_planes(1, fft_grid(spec.nx, spec.lx), fft_grid(spec.nx, spec.lx))
        pairs = [g for g in spectral.abs_lam_groups(lam) if len(g) == 2]
        assert len(pairs) == 16
        for j, jm in pairs:
            mask = _mode_mask(spec, spec.kmax, lam[j])
            assert np.array_equal(mask, _mode_mask(spec, spec.kmax, lam[jm]))
            B = rectangle(basis_matrix(lam[j], spec.kmax, spec.beta_cap, Z, mask=mask), mask)
            Bm = rectangle(basis_matrix(lam[jm], spec.kmax, spec.beta_cap, Z, mask=mask), mask)
            assert np.array_equal(Bm, np.conj(B))


class TestFrozenSpectralData:
    """SpectralData holds one copy of the spectral content, the modal
    coefficients, read-only, and derives norms2 from them."""

    def test_in_place_writes_raise(self, fixture_small):
        _, _, sd = fixture_small
        with pytest.raises(ValueError, match="read-only"):
            sd.modal[0].coef[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sd.modal[-1].coef *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            sd.norms2[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["norms2", "modal", "kmax", "tail", "band"])
    def test_field_assignment_raises(self, fixture_small, name):
        _, _, sd = fixture_small
        with pytest.raises(FrozenInstanceError):
            setattr(sd, name, None)

    def test_norms2_derived_from_modal(self, fixture_small):
        _, _, sd = fixture_small
        assert "band" not in {fd.name for fd in fields(sd)}
        assert isinstance(sd.modal, tuple)
        want = np.stack([ms.proj_norms2(sd.kmax) for ms in sd.modal], axis=1)
        assert np.array_equal(sd.norms2, want)
        with pytest.raises(TypeError, match="norms2"):
            spectral.SpectralData(sd.n, sd.lgrid, sd.kmax, sd.xgrid, sd.ugrid, sd.modal,
                                  sd.tail, norms2=sd.norms2)
        # a replace copy derives its norms2 from the coefficients it is given
        doubled = replace(sd, modal=[replace(ms, coef=2.0 * ms.coef) for ms in sd.modal])
        assert np.array_equal(doubled.norms2, 4.0 * sd.norms2)
        assert not doubled.norms2.flags.writeable


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
        bl = sd.achieved_band()
        assert bl.A <= sd.requested_band.A + 1e-12
        assert bl.B <= sd.requested_band.B + 1e-12

    def test_validate_consistency(self, fixture_small):
        # norms2 against the grid norms of the projections rebuilt from modal
        _, _, sd = fixture_small
        assert np.all(sd.norms2 >= -1e-15) and np.all(np.abs(sd.lam) >= 1e-14)
        harea = sd.hx ** (2 * sd.n)
        got = np.stack([(abs(lv) / (2 * np.pi)) ** sd.n * harea * np.sum(np.abs(pk) ** 2, axis=(1, 2))
                        for lv, pk in zip(sd.lam, sd.projections)], axis=1)
        assert np.max(np.abs(got - sd.norms2)) <= 1e-8 * max(float(np.max(sd.norms2)), 1.0)


def fixture_masses_by_loop(lam, masks, A, B, kmax, rng):
    """The target masses of synth_bandlimited as it drew them cell by cell,
    n = 1: the bulk loop, the |lambda| = A spikes where (0, +-A) is a band
    cell and the running search for the largest fan, with its mirror."""
    masses = np.zeros((kmax + 1, lam.size))
    for j, lv in enumerate(lam):
        for k in range(kmax + 1):
            fan = (2 * k + 1) * abs(lv)
            if abs(lv) > A + 1e-12 or fan > B + 1e-12 or not masks[j][k, 0]:
                continue
            if fan > 0.75 * B + 1e-12:
                continue
            masses[k, j] = np.exp(-1.5 * (abs(lv) / A - 0.6) ** 2 - 0.15 * k) * (
                0.3 + rng.random())
    spike = 16.0 * (np.mean(masses[masses > 0]) if np.any(masses > 0) else 1.0)
    for sgn in (+1, -1):
        jA = int(np.argmin(np.abs(lam - sgn * A)))
        if abs(abs(lam[jA]) - A) < 1e-9 and masks[jA][0, 0] and abs(lam[jA]) <= B + 1e-12:
            masses[0, jA] += spike
    best = None
    for j, lv in enumerate(lam):
        if abs(lv) > A + 1e-12:
            continue
        for k in range(kmax + 1):
            fan = (2 * k + 1) * abs(lv)
            if fan <= B + 1e-12 and masks[j][k, 0]:
                if best is None or fan > best[0] + 1e-12:
                    best = (fan, k, j)
    if best is None:
        raise SpectralError("empty admissible (k, lambda) set")
    _, kB, jB = best
    masses[kB, jB] += spike
    jBm = int(np.argmin(np.abs(lam + lam[jB])))
    if masks[jBm][kB, 0]:
        masses[kB, jBm] += spike
    return masses, (kB, jB)


# (A, B) of the fixture sweep; B < n A in the third and fourth, where the
# cell (0, +-A) is past the fan bound and takes no spike
BAND_SWEEP = ((1.0, 9.0), (0.5, 2.0), (1.0, 0.6), (0.8, 0.3), (1.2, 14.0), (0.7, 5.0),
              (1.0, 40.0))


class TestBandCells:
    """One (k, lambda) cell table: fan_table, band_cells and SpectralData.fan."""

    def test_level_column_is_the_populable_level(self):
        # band_cells reads k <= level where synthesis used the mask's a = 0 column
        for sp, lam in TestPoissonColumn.specs_and_grids():
            for lv in lam:
                want = np.arange(sp.kmax + 1) <= min(sp.kmax, sp.max_radial_level(lv))
                assert np.array_equal(_mode_mask(sp, sp.kmax, lv)[:, 0], want)

    @pytest.mark.parametrize("tune", [False, True])
    @pytest.mark.parametrize("A,B", BAND_SWEEP)
    def test_fixture_masses_match_the_cell_loops(self, A, B, tune):
        for spec in (QuadratureSpec(), small_spec()):
            if tune:
                spec = spectral._tune_grid(spec, A, B, spec.kmax)
            lam = spec.lambda_grid(A)[0]
            masks = [_mode_mask(spec, spec.kmax, lv) for lv in lam]
            levels = np.array([np.count_nonzero(m[:, 0]) - 1 for m in masks])
            for seed in (3, 11, 663421593):
                rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
                try:
                    want, (kB, jB) = fixture_masses_by_loop(lam, masks, A, B, spec.kmax,
                                                            rng_loop)
                except SpectralError:
                    with pytest.raises(SpectralError, match="empty admissible"):
                        spectral._fixture_masses(1, spec.kmax, lam, levels, A, B, rng)
                    continue
                got = spectral._fixture_masses(1, spec.kmax, lam, levels, A, B, rng)
                assert np.array_equal(got, want)
                assert rng.random() == rng_loop.random()        # the same draws
                # the loop's spike cell: the first in (lambda, k) order within
                # 1e-12 of the largest fan of band_cells
                fan, cells = spectral.band_cells(1, spec.kmax, lam, levels, A, B)
                js, ks = np.nonzero((cells & (fan >= np.max(fan[cells]) - 1e-12)).T)
                assert (ks[0], js[0]) == (kB, jB)

    @pytest.mark.parametrize("tune", [False, True])
    @pytest.mark.parametrize("A,B", BAND_SWEEP)
    def test_achieved_band_within_the_requested_band(self, A, B, tune):
        for spec in (QuadratureSpec(), small_spec()):
            try:
                _, sd = synth_bandlimited(A, B, seed=3, spec=spec, tune_grid=tune)
            except SpectralError as exc:
                assert "empty admissible" in str(exc)
                continue
            bl = sd.achieved_band()
            assert bl.A <= A + 1e-12 and bl.B <= B + 1e-12

    @pytest.mark.parametrize("A", [0.038, 1e-9, 1e-300])
    def test_every_node_inside_the_puncture_is_refused(self, A):
        # A (1 + margin/nodes_per_A) < LAM_MIN leaves no lambda node
        assert not QuadratureSpec().lambda_grid(A)[0].size
        with pytest.raises(SpectralError, match="LAM_MIN") as exc:
            synth_bandlimited(A, 9.0, seed=1)
        assert f"A = {A:g}" in str(exc.value) and "zero-size" not in str(exc.value)

    @pytest.mark.parametrize("A,B", BAND_SWEEP[:3])
    def test_synth_norms2_are_the_masses(self, A, B):
        spec = small_spec()
        _, sd = synth_bandlimited(A, B, seed=5, spec=spec)
        masks = [_mode_mask(spec, spec.kmax, lv) for lv in sd.lam]
        want, _ = fixture_masses_by_loop(sd.lam, masks, A, B, spec.kmax,
                                         np.random.default_rng(5))
        assert np.array_equal(sd.norms2 > 0, want > 0)
        assert np.max(np.abs(sd.norms2 - want)) <= 1e-13 * np.max(want)

    def test_fan_is_the_band_coordinate(self, analyzed_small):
        for sd in (analyzed_small,
                   replace(analyzed_small, n=2, lgrid=LambdaGrid.build(QuadratureSpec(n=2), 1.0))):
            want = [[(2 * k + sd.n) * abs(lv) for lv in sd.lam] for k in range(sd.kmax + 1)]
            assert np.array_equal(sd.fan, want)

    def test_band_cells(self):
        lam = np.array([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5])
        fan, cells = spectral.band_cells(1, 3, lam, np.array([3, 0, -1, 3, 0, 3]), 1.0, 3.0)
        assert np.array_equal(fan, spectral.fan_table(1, 3, lam))
        # (j, k): |lambda| = 1.5 is past A and level -1 admits nothing; at
        # |lambda| = 0.5 the fan bound stops level 3 at k = 2, at |lambda| = 1
        # level 0 stops the fan bound's k = 1
        assert [(int(j), int(k)) for j, k in zip(*np.nonzero(cells.T))] == [
            (1, 0), (3, 0), (3, 1), (3, 2), (4, 0)]
