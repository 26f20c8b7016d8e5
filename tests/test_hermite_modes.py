import numpy as np
import pytest

from conftest import rectangle
from gutzmerlab import hermite_modes
from gutzmerlab.grids import fft_grid
from gutzmerlab.hermite_modes import (
    ModalSlice,
    ModalSliceND,
    _offset_plan,
    abs_lam_groups,
    basis_matrix,
    e1d,
    modal_fields,
    multiindices,
    multiindices_upto,
    norm_ratio,
    slice_fields,
    slice_powers,
)
from gutzmerlab.specfun import laguerre_all
from gutzmerlab.spectral import grid_coords


def random_slice(lam, kmax=6, acap=9, seed=0):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(kmax + 1, acap + 1)) + 1j * rng.normal(size=(kmax + 1, acap + 1))
    coef[2, 5] = coef[4, 0] = 0.0  # a few holes, as admissibility masks leave
    return ModalSlice(lam, coef)


def complex_points(seed=1):
    rng = np.random.default_rng(seed)
    zc = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    zm = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    return zc, zm


def e1d_reference(ms, zc, zm, k_select=None):
    """sum_{k,a} coef[k, a] sqrt(|lam|/2pi) E_{ak}: mode by mode through e1d."""
    out = np.zeros(np.broadcast(zc, zm).shape, dtype=complex)
    for k in range(ms.kmax + 1):
        if k_select is not None and k != k_select:
            continue
        for a in range(ms.acap + 1):
            out += ms.coef[k, a] * e1d(ms.lam, a, k, zc, zm)
    return np.sqrt(abs(ms.lam) / (2 * np.pi)) * out


def assert_close(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestSliceFields:
    def test_pair_equals_single_slice_fields(self):
        zc, zm = complex_points()
        pos, neg = random_slice(0.8, seed=2), random_slice(-0.8, seed=3)
        fp, fn = slice_fields([pos, neg], zc, zm)
        assert np.array_equal(fp, pos.field(zc, zm))
        assert np.array_equal(fn, neg.field(zc, zm))

    @pytest.mark.parametrize("lam", [0.8, -0.8, 2.5, -0.3])
    def test_lone_slice_matches_mode_by_mode_sum(self, lam):
        zc, zm = complex_points()
        ms = random_slice(lam, seed=4)
        (fld,) = slice_fields([ms], zc, zm)
        assert_close(fld, e1d_reference(ms, zc, zm))

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_k_select(self, k):
        zc, zm = complex_points()
        pos, neg = random_slice(1.1, seed=5), random_slice(-1.1, seed=6)
        fp, fn = slice_fields([pos, neg], zc, zm, k_select=k)
        assert np.array_equal(fp, pos.field(zc, zm, k_select=k))
        assert np.array_equal(fn, neg.field(zc, zm, k_select=k))
        assert_close(fp, e1d_reference(pos, zc, zm, k_select=k))
        assert_close(fn, e1d_reference(neg, zc, zm, k_select=k))

    def test_levels_sum_to_the_slice(self):
        zc, zm = complex_points()
        ms = random_slice(-0.6, seed=7)
        levels = sum(ms.field(zc, zm, k_select=k) for k in range(ms.kmax + 1))
        assert_close(levels, ms.field(zc, zm), rel=1e-13)

    def test_real_grid_matches_basis_matrix(self):
        x = np.linspace(-3.0, 3.0, 9)
        Z = x[:, None] + 1j * x[None, :]
        for lam in (0.7, -0.7):
            ms = random_slice(lam, seed=8)
            basis = basis_matrix(lam, ms.kmax, ms.acap, Z).reshape(ms.coef.shape + Z.shape)
            want = np.einsum("ka,ka...->...", ms.coef, basis)
            assert_close(ms.field(Z, np.conj(Z)), want)

    def test_zero_slice_and_scalar_point(self):
        ms = ModalSlice(0.5, np.zeros((3, 4), complex))
        assert not np.any(ms.field(np.ones((2, 2)), np.ones((2, 2))))
        live = random_slice(0.5, seed=9)
        zc, zm = np.asarray(0.3 + 0.1j), np.asarray(0.2 - 0.4j)
        fz, fl = slice_fields([ms, live], zc, zm)
        assert fz.shape == () and fz == 0
        assert_close(fl, e1d_reference(live, zc, zm))

    def test_group_must_share_abs_lambda(self):
        with pytest.raises(ValueError, match="share"):
            slice_fields([random_slice(0.5), random_slice(0.6)], 1.0 + 0j, 1.0 + 0j)


class TestSlicePowers:
    """slice_powers against the mean of |slice_fields|^2 over rotated points
    (e^{i theta} zc, e^{-i theta} zm) at uniform theta nodes, which are exact
    for the field's harmonics -acap..kmax."""

    @staticmethod
    def theta_mean(group, zc, zm):
        ms = group[0]
        m = ms.kmax + ms.acap + 2
        rot = np.exp(2j * np.pi * np.arange(m) / m)[:, None, None]
        return [np.mean(np.abs(f) ** 2, axis=0)
                for f in slice_fields(group, rot * zc, zm / rot)]

    def test_pair_matches_theta_mean(self):
        zc, zm = complex_points(seed=10)
        pair = [random_slice(0.9, seed=11), random_slice(-0.9, seed=12)]
        assert all(np.any(np.diagonal(ms.coef)) for ms in pair)  # d = 0 modes
        for got, want in zip(slice_powers(pair, zc, zm), self.theta_mean(pair, zc, zm)):
            assert_close(got, want)

    def test_u1_parts_are_equivariant(self):
        # the part of weight q picks up e^{i q theta} under the rotation
        zc, zm = complex_points(seed=13)
        pair = [random_slice(1.3, seed=14), random_slice(-1.3, seed=15)]
        rot = np.exp(0.7j)
        moved = {(i, q): g for i, q, g in
                 hermite_modes._offset_sums(pair, rot * zc, zm / rot)}
        parts = list(hermite_modes._offset_sums(pair, zc, zm))
        assert len(parts) == len(moved)
        for i, q, g in parts:
            assert_close(moved[i, q], rot ** q * g)

    def test_zero_slice(self):
        zc, zm = complex_points(seed=16)
        zero = ModalSlice(-0.4, np.zeros((3, 4), complex))
        pz, pl = slice_powers([zero, random_slice(0.4, seed=17)], zc, zm)
        assert pz.shape == zc.shape and not np.any(pz) and np.all(pl > 0)


def offset_plan_reference(group, k_select=None):
    """The running-sum weights assembled as _offset_sums built them before
    the norm-ratio table: per slice and offset, trim_zeros of each diagonal
    and a list of norm_ratio values."""
    terms = {}
    for i, ms in enumerate(group):
        coef = ms.coef
        if k_select is not None:
            coef = np.zeros_like(coef)
            coef[k_select] = ms.coef[k_select]
        ks, as_ = np.nonzero(coef)
        sign = 1.0 if ms.lam > 0 else -1.0
        for d in np.unique(np.abs(ks - as_)).tolist():
            for w, on_p in ((np.diagonal(coef, -d), ms.lam > 0),
                            (np.diagonal(coef, d) if d else [], ms.lam < 0)):
                w = np.trim_zeros(np.asarray(w), "b")
                if w.size:
                    nr = np.array([norm_ratio(m, d) for m in range(w.size)])
                    terms.setdefault(d, []).append((i, on_p, sign ** d * nr * w))
    return terms


class TestOffsetPlan:
    @staticmethod
    def assert_same_plan(got, want):
        assert list(got) == list(want)
        for d in want:
            assert [(i, on_p) for i, on_p, _ in got[d]] == [(i, on_p) for i, on_p, _ in want[d]]
            for (_, _, wg), (_, _, ww) in zip(got[d], want[d]):
                assert wg.dtype == ww.dtype and np.array_equal(wg, ww)

    @pytest.mark.parametrize("k_select", [None, 0, 2, 5, 6])
    def test_pair_matches_reference(self, k_select):
        # trailing holes on some diagonals, so the cut after the last nonzero
        # entry is exercised
        pos, neg = random_slice(0.9, seed=21), random_slice(-0.9, seed=22)
        pos.coef[6, :] = 0.0
        neg.coef[:, 9] = 0.0
        group = [pos, neg]
        self.assert_same_plan(_offset_plan(group, k_select),
                              offset_plan_reference(group, k_select))

    @pytest.mark.parametrize("lam", [1.3, -1.3])
    @pytest.mark.parametrize("k_select", [None, 3])
    def test_one_member_group(self, lam, k_select):
        group = [random_slice(lam, kmax=8, acap=5, seed=23)]
        self.assert_same_plan(_offset_plan(group, k_select),
                              offset_plan_reference(group, k_select))

    def test_all_zero_slice(self):
        zero = ModalSlice(-0.7, np.zeros((7, 10), complex))
        live = random_slice(0.7, seed=24)
        for group in ([zero], [zero, live], [live, zero]):
            for k_select in (None, 1):
                self.assert_same_plan(_offset_plan(group, k_select),
                                      offset_plan_reference(group, k_select))
        assert _offset_plan([zero]) == {}

    def test_plan_follows_in_place_coefficient_changes(self):
        # nothing is cached per slice: a coefficient changed after a first
        # evaluation shows in the next plan
        ms = random_slice(0.5, seed=25)
        before = _offset_plan([ms])
        ms.coef[:] = 0.0
        ms.coef[3, 1] = 2.0
        self.assert_same_plan(_offset_plan([ms]), offset_plan_reference([ms]))
        assert list(_offset_plan([ms])) == [2] and list(before) != [2]


class TestConjugateTable:
    """At real points E^{-lam}_{ak}(z) = conj E^{lam}_{ak}(z), bit for bit:
    analyze contracts the slice at -lam with the table it built at lam."""

    @staticmethod
    def real_points():
        x = fft_grid(12, 5.0)
        return x[:, None] + 1j * x[None, :]

    @pytest.mark.parametrize("lam", [0.05, 0.4, 1.0, 2.75])
    def test_masked_table(self, lam):
        Z = self.real_points()
        mask = np.ones((7, 10), dtype=bool)
        mask[4:, 6:] = False
        mask[2, 8] = False
        pos = basis_matrix(lam, 6, 9, Z, mask=mask)
        neg = basis_matrix(-lam, 6, 9, Z, mask=mask)
        assert np.array_equal(neg, np.conj(pos)) and np.any(rectangle(pos, mask)[2, 7])

    @pytest.mark.parametrize("lam", [0.3, 1.7])
    def test_unmasked_table(self, lam):
        Z = self.real_points()
        assert np.array_equal(basis_matrix(-lam, 5, 8, Z), np.conj(basis_matrix(lam, 5, 8, Z)))

    @pytest.mark.parametrize("acap", [0, 1, 6])
    def test_one_row_table(self, acap):
        # level 0 alone; acap 1 with one masked entry is the table of a
        # one-mode slice
        Z = self.real_points()
        mask = np.arange(acap + 1)[None, :] == 0 if acap == 1 else None
        pos = basis_matrix(0.8, 0, acap, Z, mask=mask)
        full = np.ones((1, acap + 1), bool) if mask is None else mask
        assert rectangle(pos, full).shape[:2] == (1, acap + 1)
        assert np.array_equal(basis_matrix(-0.8, 0, acap, Z, mask=mask), np.conj(pos))


def basis_matrix_per_row(lam, kmax, acap, Z, mask=None, zm=None):
    """The rectangle basis_matrix built row by row: one laguerre_all table
    per offset up to the rectangle's depth, one product per row, rows
    outside mask zero.  The reference for the compact per-offset build."""
    al = abs(lam)
    zc = Z
    if zm is None:
        zm = np.conj(Z)
        rho = (zc * zm).real
    else:
        rho = zc * zm
    s = 0.5 * al * rho
    var_row, var_col = hermite_modes.mode_monomial_base(lam, zc, zm)
    gauss = np.exp(-0.25 * al * rho)
    onorm = np.sqrt(al / (2.0 * np.pi))
    out = np.zeros((kmax + 1, acap + 1) + Z.shape, dtype=complex)
    dmax = max(kmax, acap)
    mono_row = np.ones_like(zc)
    mono_col = np.ones_like(zc)
    for d in range(dmax + 1):
        mmax_col = min(kmax - d, acap)
        mmax_row = min(kmax, acap - d)
        mtop = max(mmax_col, mmax_row)
        if mtop >= 0:
            Ltab = laguerre_all(mtop, d, s)
            for m in range(mtop + 1):
                nr = norm_ratio(m, d)
                if m <= mmax_col and (mask is None or mask[m + d, m]):
                    out[m + d, m] = onorm * nr * mono_col * Ltab[m] * gauss
                if d > 0 and m <= mmax_row and (mask is None or mask[m, m + d]):
                    out[m, m + d] = onorm * nr * mono_row * Ltab[m] * gauss
        if d < dmax:
            mono_row = mono_row * var_row
            mono_col = mono_col * var_col
    return out


class TestCompactRows:
    """basis_matrix returns the admitted rows alone, in row-major order, each
    entry equal to the row-by-row rectangle's bit for bit."""

    @staticmethod
    def check(lam, kmax, acap, Z, mask=None, zm=None):
        rows = basis_matrix(lam, kmax, acap, Z, mask=mask, zm=zm)
        ref = basis_matrix_per_row(lam, kmax, acap, Z, mask=mask, zm=zm)
        full = np.ones((kmax + 1, acap + 1), bool) if mask is None else mask
        assert rows.shape == (int(full.sum()),) + Z.shape
        assert np.array_equal(rows, ref[full])
        return rows

    @pytest.mark.parametrize("lam", [0.35, -1.2])
    def test_masked_n1_table(self, lam):
        # a staircase like _mode_mask's, with a hole
        Z = TestConjugateTable.real_points()
        mask = np.arange(10)[None, :] <= np.array([9, 8, 8, 6, 4, 2, 0])[:, None]
        mask[1, 3] = False
        self.check(lam, 6, 9, Z, mask=mask)

    @pytest.mark.parametrize("lam", [0.7, -0.7])
    def test_unmasked_table(self, lam):
        Z = TestConjugateTable.real_points()
        rows = self.check(lam, 5, 8, Z)
        assert np.array_equal(rows.reshape((6, 9) + Z.shape), basis_matrix_per_row(lam, 5, 8, Z))

    @pytest.mark.parametrize("lam", [0.9, -0.45])
    def test_complexified_points(self, lam):
        zc, zm = complex_points(seed=5)
        mask = np.random.default_rng(3).random((5, 7)) < 0.6
        self.check(lam, 4, 6, zc, mask=mask, zm=zm)
        self.check(lam, 4, 6, zc, zm=zm)

    def test_one_pair_mask(self):
        Z = TestConjugateTable.real_points()
        mask = np.zeros((4, 6), dtype=bool)
        mask[2, 5] = True
        assert self.check(0.6, 3, 5, Z, mask=mask).shape[0] == 1

    def test_empty_mask(self):
        Z = TestConjugateTable.real_points()
        assert self.check(0.6, 3, 5, Z, mask=np.zeros((4, 6), dtype=bool)).shape[0] == 0

    @pytest.mark.parametrize("acap", [0, 7])
    def test_kmax_zero(self, acap):
        zc, zm = complex_points(seed=6)
        self.check(1.3, 0, acap, zc, zm=zm)
        self.check(-1.3, 0, acap, TestConjugateTable.real_points())


def test_abs_lam_groups_pairs_a_symmetric_grid():
    lam = np.arange(-3, 4) * 0.25
    lam = lam[lam != 0]
    assert abs_lam_groups(lam) == [[0, 5], [1, 4], [2, 3]]
    assert abs_lam_groups([0.5, 0.7]) == [[0], [1]]


def test_modal_fields_keeps_slice_order():
    zc, zm = complex_points()
    modal = [random_slice(lv, seed=i) for i, lv in enumerate((-0.9, -0.4, 0.4, 0.9, 1.3))]
    for ms, fld in zip(modal, modal_fields(modal, zc, zm)):
        assert np.array_equal(fld, ms.field(zc, zm))


# ---------------------------------------------------------------------------
# n >= 2: ModalSliceND.field against the per-mode e1d product
# ---------------------------------------------------------------------------

def random_slice_nd(lam, n=2, kcap=3, acap=4, seed=0):
    """Every (alpha, beta) with |beta| <= kcap, |alpha| <= acap, random coefficients."""
    rng = np.random.default_rng(seed)
    modes = [(alpha, beta) for beta in multiindices_upto(n, kcap)
             for alpha in multiindices_upto(n, acap)]
    coef = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
    coef[::7] = 0.0  # holes, as a sparse analysis leaves
    return ModalSliceND(lam, n, modes, coef)


def e1d_reference_nd(ms, zc, zm, k_select=None):
    """sum c (|lam|/2pi)^{n/2} prod_j E_{alpha_j beta_j}(zc_j, zm_j): each mode
    built on all points through e1d, as the per-mode evaluator did."""
    out = np.zeros(np.broadcast(zc, zm).shape[:-1], dtype=complex)
    for (alpha, beta), c in zip(ms.modes, ms.coef):
        if k_select is not None and sum(beta) != k_select:
            continue
        term = np.ones_like(out)
        for j in range(ms.n):
            term = term * e1d(ms.lam, alpha[j], beta[j], zc[..., j], zm[..., j])
        out += c * term
    return (abs(ms.lam) / (2 * np.pi)) ** (ms.n / 2) * out


def complex_points_nd(npts, n=2, seed=1):
    rng = np.random.default_rng(seed)
    zc = rng.normal(size=(npts, n)) + 1j * rng.normal(size=(npts, n))
    zm = rng.normal(size=(npts, n)) + 1j * rng.normal(size=(npts, n))
    return zc, zm


class TestModalSliceNDField:
    @pytest.mark.parametrize("lam", [0.9, -0.9])
    @pytest.mark.parametrize("k_select", [None, 0, 1, 2, 3])
    def test_real_grid(self, lam, k_select):
        xg = fft_grid(10, 4.0)
        zc, zm = grid_coords(2, xg, xg)
        assert zc.shape[:-1] == (10,) * 4
        ms = random_slice_nd(lam, seed=2)
        assert_close(ms.field(zc, zm, k_select), e1d_reference_nd(ms, zc, zm, k_select),
                     rel=1e-13)

    @pytest.mark.parametrize("lam", [0.7, -0.7])
    @pytest.mark.parametrize("k_select", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize("npts", [1, 37, 4101])
    def test_complexified_points(self, lam, k_select, npts):
        zc, zm = complex_points_nd(npts, seed=npts)
        ms = random_slice_nd(lam, seed=3)
        got = ms.field(zc, zm, k_select)
        assert got.shape == (npts,)
        assert_close(got, e1d_reference_nd(ms, zc, zm, k_select), rel=1e-13)

    @pytest.mark.parametrize("lam", [1.2, -1.2])
    def test_n3(self, lam):
        zc, zm = complex_points_nd(50, n=3, seed=5)
        ms = random_slice_nd(lam, n=3, kcap=2, acap=2, seed=6)
        for k in (None, 0, 2):
            assert_close(ms.field(zc, zm, k), e1d_reference_nd(ms, zc, zm, k), rel=1e-13)

    @pytest.mark.parametrize("lam", [0.9, -0.9])
    @pytest.mark.parametrize("k_select", [None, 2])
    def test_tensor_grid_matches_scattered_points(self, lam, k_select):
        # the per-plane tables of the grid against every point evaluated on its own
        xg = fft_grid(8, 4.0)
        zc, zm = grid_coords(2, xg, xg)
        ms = random_slice_nd(lam, seed=9)
        flat = ms.field(zc.reshape(-1, 2), zm.reshape(-1, 2), k_select)
        assert flat.shape == (8 ** 4,)
        assert_close(ms.field(zc, zm, k_select), flat.reshape((8,) * 4), rel=1e-13)

    @pytest.mark.parametrize("hold_zm", [True, False])
    def test_constant_plane(self, hold_zm):
        # x_1 = u_1 = c: the second axis's table has one point; with zm left
        # varying, zc alone is constant and nothing may be cut
        xg = fft_grid(10, 4.0)
        zc, zm = grid_coords(2, xg, xg)
        zc[..., 1] = 0.4 - 0.3j
        if hold_zm:
            zm[..., 1] = np.conj(zc[..., 1])
        ms = random_slice_nd(-0.8, seed=10)
        got = ms.field(zc, zm)
        assert got.shape == (10,) * 4
        assert_close(got, e1d_reference_nd(ms, zc, zm), rel=1e-13)

    @pytest.mark.parametrize("lam", [1.1, -1.1])
    def test_n3_tensor_grid(self, lam):
        xg = fft_grid(4, 3.0)
        zc, zm = grid_coords(3, xg, xg)
        assert zc.shape == (4,) * 6 + (3,)
        ms = random_slice_nd(lam, n=3, kcap=2, acap=2, seed=11)
        for k in (None, 1):
            assert_close(ms.field(zc, zm, k), e1d_reference_nd(ms, zc, zm, k), rel=1e-13)

    @pytest.mark.parametrize("shape", [(1, 37), (37, 1), (1,)])
    def test_length_one_point_axis(self, shape):
        zc, zm = complex_points_nd(int(np.prod(shape)), seed=12)
        zc, zm = zc.reshape(shape + (2,)), zm.reshape(shape + (2,))
        ms = random_slice_nd(0.6, seed=13)
        got = ms.field(zc, zm)
        assert got.shape == shape
        assert_close(got, e1d_reference_nd(ms, zc, zm), rel=1e-13)

    def test_point_axis_constant_on_every_plane(self):
        # every plane cuts axis 0, so the contraction comes out with length 1
        # there and is broadcast back to the points' shape
        zc, zm = complex_points_nd(37, seed=14)
        ms = random_slice_nd(-0.6, seed=15)
        got = ms.field(np.broadcast_to(zc, (3, 37, 2)), np.broadcast_to(zm, (3, 37, 2)))
        assert got.shape == (3, 37) and got.flags.writeable
        assert_close(got, np.broadcast_to(e1d_reference_nd(ms, zc, zm), (3, 37)), rel=1e-13)

    def test_levels_sum_to_the_slice(self):
        zc, zm = complex_points_nd(60, seed=7)
        ms = random_slice_nd(-0.5, seed=8)
        levels = sum(ms.field(zc, zm, k_select=k) for k in range(4))
        assert_close(levels, ms.field(zc, zm), rel=1e-13)

    def test_empty_and_zero_modes(self):
        zc, zm = complex_points_nd(9)
        empty = ModalSliceND(0.8, 2, [], np.zeros(0, complex))
        zero = random_slice_nd(0.8)
        zero.coef[:] = 0.0
        for ms in (empty, zero):
            got = ms.field(zc, zm)
            assert got.shape == (9,) and not np.any(got)
        # a level that no mode carries
        assert not np.any(random_slice_nd(0.8, kcap=1).field(zc, zm, k_select=3))
