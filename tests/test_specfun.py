import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss

from gutzmerlab.specfun import (
    SpecfunError,
    bessel_j_norm,
    binom_weight,
    hermite_fn_1d,
    hilb_compare,
    laguerre,
    laguerre_all,
    laguerre_phi,
    laguerre_sums,
    log_bessel_j_imag,
    log_sum_exp,
)
from hermite_oracle import MultiIndex


class TestHermite:
    def test_ground_state_normalization(self):
        assert hermite_fn_1d(0, 0.0) == pytest.approx(np.pi ** -0.25, abs=1e-15)

    def test_degree_one_recurrence_oracle(self):
        # h1(x) = sqrt(2) x h0(x); frozen at x = 1
        assert hermite_fn_1d(1, 1.0) == pytest.approx(0.6442883651134752, rel=1e-14)

    def test_orthonormality_gauss_hermite(self):
        # quadrature of Phi_a Phi_b over >= 2*maxdeg nodes
        y, w = hermgauss(260)
        degs = [0, 1, 5, 17, 60, 120]
        vals = {m: hermite_fn_1d(m, y) * np.exp(y * y / 2.0) for m in degs}
        for a in degs:
            for b in degs:
                ip = np.dot(w, vals[a] * vals[b])
                assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-8)

    def test_product_form(self):
        # elementwise on an array: entry j is h_{m_j}(x_j) with the recurrence
        # run to each degree, as Phi_alpha(x) = prod_j h_{alpha_j}(x_j) needs
        x = np.array([0.3, -1.2])
        got = hermite_fn_1d(2, x) * hermite_fn_1d(3, x[::-1])
        want = np.array([hermite_fn_1d(2, 0.3) * hermite_fn_1d(3, -1.2),
                         hermite_fn_1d(2, -1.2) * hermite_fn_1d(3, 0.3)])
        assert got == pytest.approx(want, rel=1e-14)

    def test_degree_cap(self):
        with pytest.raises(SpecfunError, match="degree cap"):
            hermite_fn_1d(121, 0.0)

    def test_multiindex_validation(self):
        with pytest.raises(SpecfunError):
            MultiIndex((-1, 2))
        assert MultiIndex((2, 3)).degree == 5


class TestLaguerre:
    def test_value_at_zero_binomial(self):
        from math import comb

        for k, a in [(0, 0), (3, 2), (7, 4)]:
            assert laguerre(k, a, 0.0) == pytest.approx(comb(k + a, k))

    def test_degree_one(self):
        s = np.linspace(0, 5, 11)
        assert np.allclose(laguerre(1, 0, s), 1 - s)

    def test_degree_two_recurrence_oracle(self):
        # L2(s) = 1 - 2s + s^2/2 at s = 0.5 -> 0.125
        assert laguerre(2, 0, 0.5) == pytest.approx(0.125, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=59),
        st.integers(min_value=0, max_value=4),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_recurrence_residual(self, k, a, s):
        lkm1, lk, lkp1 = laguerre(k - 1, a, s), laguerre(k, a, s), laguerre(k + 1, a, s)
        resid = (k + 1) * lkp1 - (2 * k + a + 1 - s) * lk + (k + a) * lkm1
        scale = max(abs(lkm1), abs(lk), abs(lkp1), 1.0)
        assert abs(resid) <= 1e-10 * scale

    def test_degree_cap(self):
        with pytest.raises(SpecfunError, match="degree cap"):
            laguerre(513, 0, 1.0)


class TestLaguerreSums:
    """laguerre_sums against the table + tensordot contraction it replaces."""

    @staticmethod
    def reference(mtop, order, s, W):
        return np.tensordot(W, laguerre_all(mtop, order, s), axes=(1, 0))

    @pytest.mark.parametrize("order", [0, 1, 2, 5, 11, 20])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_table_contraction(self, order, kind):
        rng = np.random.default_rng(order)
        s = rng.uniform(0.0, 30.0, (5, 7))
        if kind == "complex":
            s = s - 1j * rng.uniform(-10.0, 10.0, s.shape)
        mtop = 16
        W = rng.normal(size=(4, mtop + 1)) + 1j * rng.normal(size=(4, mtop + 1))
        W[1, ::3] = 0.0
        got = laguerre_sums(mtop, order, s, W)
        want = self.reference(mtop, order, s, W)
        assert got.shape == (4,) + s.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_real_weights_real_argument_stay_real(self):
        s = np.linspace(0.0, 12.0, 9)
        W = np.arange(12.0).reshape(2, 6)
        got = laguerre_sums(5, 3, s, W)
        want = self.reference(5, 3, s, W)
        assert got.dtype == float
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_unit_weights_reproduce_each_row(self):
        s = np.linspace(0.0, 40.0, 33) + 0.5j
        tab = laguerre_all(12, 4, s)
        got = laguerre_sums(12, 4, s, np.eye(13))
        assert np.allclose(got, tab, rtol=1e-12, atol=1e-12 * np.max(np.abs(tab)))
        # rows 0-2 involve no division by m+1 > 2, so they agree bit for bit
        assert np.array_equal(got[:3], tab[:3])

    def test_zero_and_empty_weights(self):
        s = np.linspace(0.0, 5.0, 6)
        assert not np.any(laguerre_sums(7, 1, s, np.zeros((3, 8), complex)))
        assert laguerre_sums(7, 1, s, np.zeros((0, 8))).shape == (0, 6)
        assert not np.any(laguerre_sums(-1, 1, s, np.zeros((2, 0))))

    def test_mtop_zero_is_the_weight(self):
        s = np.array([[0.3, 2.0], [7.0, 1.5]], dtype=complex)
        got = laguerre_sums(0, 4, s, np.array([[2.5 - 1j]]))
        assert np.array_equal(got[0], np.full(s.shape, 2.5 - 1j))

    def test_scalar_argument(self):
        W = np.array([[1.0, 2.0, 3.0]])
        got = laguerre_sums(2, 1, np.asarray(0.7 + 0.2j), W)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(complex(self.reference(2, 1, 0.7 + 0.2j, W)[0]), rel=1e-14)

    def test_degree_cap(self):
        with pytest.raises(SpecfunError, match="degree cap"):
            laguerre_sums(513, 0, 1.0, np.ones((1, 514)))

    @staticmethod
    def loop_reference(mtop, order, s, W):
        """laguerre_sums as it ran before its sums started at their m = 0
        weights: every sum from zero, the m = 0 row of ones multiplied and
        added sum by sum like every other row."""
        s = np.asarray(s)
        rdt = np.dtype(complex if s.dtype.kind == "c" else float)
        out = np.zeros((W.shape[0], s.size), dtype=np.result_type(rdt, W.dtype))
        s = s.reshape(-1)
        scratch = np.empty(s.shape, dtype=rdt)
        term = scratch if out.dtype == rdt else np.empty(s.shape, dtype=out.dtype)

        def accumulate(m, row):
            for acc, w in zip(out, W[:, m]):
                if w != 0:
                    np.multiply(row, w, out=term)
                    acc += term

        prev = np.ones(s.shape, dtype=rdt)
        accumulate(0, prev)
        if mtop >= 1:
            cur = np.subtract(1.0 + order, s, dtype=rdt)
            accumulate(1, cur)
        for m in range(1, mtop):
            np.subtract(2.0 * m + order + 1.0, s, out=scratch)
            scratch *= cur
            flat = prev.view(float)
            flat *= m + order
            np.subtract(scratch, prev, out=prev)
            flat /= m + 1.0
            prev, cur = cur, prev
            accumulate(m + 1, cur)
        return out

    @pytest.mark.parametrize("mtop", [0, 1, 2, 9])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("wkind", ["real", "complex"])
    def test_matches_the_loop_bit_for_bit(self, mtop, kind, wkind):
        # zero m = 0 weights (plain, negative-zero and complex zero) among
        # nonzero ones, and weights with a zero real or imaginary part
        rng = np.random.default_rng(mtop)
        s = rng.uniform(0.0, 25.0, 40)
        if kind == "complex":
            s = s + 1j * rng.uniform(-8.0, 8.0, s.shape)
        W = rng.normal(size=(6, mtop + 1))
        if wkind == "complex":
            W = W + 1j * rng.normal(size=W.shape)
            W[4, 0] = complex(-0.0, 2.5)
            W[5, 0] = complex(1.5, -0.0)
        W[0, 0] = 0.0
        W[1, 0] = -0.0
        W[2, :] = 0.0
        got = laguerre_sums(mtop, 3, s, W)
        want = self.loop_reference(mtop, 3, s, W)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


class TestLaguerrePhi:
    def test_origin_binomial(self):
        from math import comb

        for k, n in [(0, 1), (3, 1), (2, 3)]:
            assert laguerre_phi(k, n - 1, 0.0, 1.0) == pytest.approx(
                comb(k + n - 1, k)
            )

    def test_ground_state_gaussian(self):
        r2 = 1.7
        assert laguerre_phi(0, 0, r2, 1.0) == pytest.approx(np.exp(-r2 / 4))

    def test_complexified_point_oracle(self):
        # k=1, n=1, lam=1, rho=-4: L_1(-2) e^{1} = 3e
        assert laguerre_phi(1, 0, -4.0, 1.0) == pytest.approx(
            8.154845485377136, rel=1e-14
        )

    def test_lambda_in_exponent(self):
        # e^{-|lam| rho / 4}, not e^{-rho/4}
        assert laguerre_phi(0, 0, 2.0, 3.0) == pytest.approx(np.exp(-1.5))

    @pytest.mark.parametrize("k,order,lam", [(-1, 0, 1.0), (2, -1, 1.0), (2, 0, 0.0)])
    def test_refused_arguments(self, k, order, lam):
        with pytest.raises(SpecfunError):
            laguerre_phi(k, order, 1.5, lam)


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j_norm(0, 0.0) == pytest.approx(1.0)

    def test_series_limit_order_one(self):
        assert bessel_j_norm(1, 1e-12) == pytest.approx(0.5, rel=1e-9)

    def test_imaginary_axis_modified_series(self):
        assert np.real(bessel_j_norm(0, 3j)) == pytest.approx(4.8807925858650245, rel=1e-12)

    def test_real_axis_matches_scipy(self):
        from scipy.special import jv

        for nu in (0, 1, 3):
            for s in (0.5, 2.0, 7.5):
                assert bessel_j_norm(nu, s) == pytest.approx(s ** -nu * jv(nu, s), rel=1e-10)

    def test_imaginary_axis_properties(self):
        s = np.linspace(0.0, 40.0, 81)
        for nu in (0, 1, 2):
            vals = np.real(bessel_j_norm(nu, 1j * s))
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) >= 0)
            assert np.all(vals <= np.exp(s) + 1e-12)  # j_nu(is) <= C e^{|s|}, C = 1


class TestLogBessel:
    TS = np.array([0.0, 1e-3, 1.0, 10.0, 100.0, 1000.0, 1800.0, 9999.0, 2e4, 1e6])

    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_matches_scipy_ive(self, nu):
        # log j_nu(it) = log(ive(nu, t)) + t - nu log t; at t = 0 the series
        # value 1/(2^nu nu!).  Relative in the log, absolute where |log| < 1
        # (log j_0 vanishes at t = 0).
        from math import factorial

        from scipy.special import ive

        t = self.TS[1:]
        ref = np.concatenate([[-np.log(2.0 ** nu * factorial(nu))],
                              np.log(ive(nu, t)) + t - nu * np.log(t)])
        # the series length follows the largest t, so each t is its own call
        got = np.array([log_bessel_j_imag(nu, t) for t in self.TS])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(np.abs(ref), 1.0))

    def test_matches_linear_series(self):
        t = np.array([[0.0, 0.5], [3.0, 17.5]])
        for nu in (0, 1, 2):
            lin = np.real(bessel_j_norm(nu, 1j * t))
            np.testing.assert_allclose(np.exp(log_bessel_j_imag(nu, t)), lin, rtol=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(SpecfunError):
            log_bessel_j_imag(-1, 1.0)
        for t in (-1.0, np.inf, np.nan):
            with pytest.raises(SpecfunError):
                log_bessel_j_imag(0, [0.0, t])

    def test_log_sum_exp(self):
        x = np.array([[0.0, np.log(2.0), -np.inf], [-np.inf, -np.inf, -np.inf]])
        out = log_sum_exp(x)
        assert out[0] == pytest.approx(np.log(3.0), rel=1e-15) and out[1] == -np.inf
        # a remainder far below the largest term keeps its precision
        assert log_sum_exp(np.array([0.0, -40.0])) == pytest.approx(np.exp(-40.0), rel=1e-15, abs=0)
        assert log_sum_exp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + np.log(2.0))


class TestHilb:
    def test_zero_radius(self):
        for k in (0, 3, 9):
            assert hilb_compare(k, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_k0(self):
        # |e - I_0(2)| / e at k=0, n=1, lam=1, r=1
        assert hilb_compare(0, 1.0, 1.0) == pytest.approx(0.1613874328739743, rel=1e-12)

    def test_improves_with_k_at_fixed_fan(self):
        fan = 4.1
        dev_large = hilb_compare(20, fan / 41, 0.5)
        dev_small = hilb_compare(2, fan / 5, 0.5)
        assert dev_large < dev_small

    def test_nonincreasing_in_k_diagnostic(self):
        fan = 6.0
        ks = [0, 2, 8, 32]
        devs = [hilb_compare(k, fan / (2 * k + 1), 0.8) for k in ks]
        for lo, hi in zip(devs[1:], devs[:-1]):
            assert lo <= hi * 1.10  # 10% slack: diagnostic, not hard-failing


def test_binom_weight():
    assert binom_weight(5, 1) == 1.0
    assert binom_weight(2, 3) == pytest.approx(2 * 1 / (4 * 3))
