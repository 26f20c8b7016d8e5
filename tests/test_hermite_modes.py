import numpy as np
import pytest

from conftest import grid_stacks, level_cut, rectangle
from gutzmerlab import hermite_modes
from gutzmerlab.grids import fft_grid
from gutzmerlab.hermite_modes import (
    ModalSlice,
    ModalSliceND,
    PANEL_MACS,
    WHOLE_MACS,
    _fields,
    _offset_plan,
    _panel_matmul,
    abs_lam_groups,
    basis_matrix,
    e1d,
    modal_fields,
    multiindices,
    multiindices_upto,
    norm_ratio,
    point_planes,
    radial_shells,
    radial_table,
    real_radii,
    slice_powers,
)
from gutzmerlab.specfun import laguerre_all, laguerre_sums
from gutzmerlab.spectral import grid_planes


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
        fp, fn = _fields([pos, neg], zc, zm)
        assert np.array_equal(fp, pos.field(zc, zm))
        assert np.array_equal(fn, neg.field(zc, zm))

    @pytest.mark.parametrize("lam", [0.8, -0.8, 2.5, -0.3])
    def test_lone_slice_matches_mode_by_mode_sum(self, lam):
        zc, zm = complex_points()
        ms = random_slice(lam, seed=4)
        (fld,) = _fields([ms], zc, zm)
        assert_close(fld, e1d_reference(ms, zc, zm))

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_k_select(self, k):
        zc, zm = complex_points()
        pos, neg = random_slice(1.1, seed=5), random_slice(-1.1, seed=6)
        fp, fn = _fields([level_cut(pos, k), level_cut(neg, k)], zc, zm)
        assert np.array_equal(fp, level_cut(pos, k).field(zc, zm))
        assert np.array_equal(fn, level_cut(neg, k).field(zc, zm))
        assert_close(fp, e1d_reference(pos, zc, zm, k_select=k))
        assert_close(fn, e1d_reference(neg, zc, zm, k_select=k))

    def test_levels_sum_to_the_slice(self):
        zc, zm = complex_points()
        ms = random_slice(-0.6, seed=7)
        levels = sum(level_cut(ms, k).field(zc, zm) for k in range(ms.kmax + 1))
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
        fz, fl = _fields([ms, live], zc, zm)
        assert fz.shape == () and fz == 0
        assert_close(fl, e1d_reference(live, zc, zm))


def slice_powers_reference(group, zc, zm):
    """slice_powers as it was before its real-arithmetic form, for one
    |lambda| group: sum over the U(1) parts of |G_q P^d|^2 (or Q^d), each
    monomial power formed in complex arithmetic."""
    al = abs(group[0].lam)
    var_q, var_p = hermite_modes.mode_monomial_base(al, zc, zm)
    out = [np.zeros(np.broadcast(zc, zm).shape) for _ in group]
    for i, q, acc in hermite_modes._offset_sums(group, zc, zm):
        acc = acc * (var_p if q >= 0 else var_q) ** abs(q)
        out[i] += acc.real ** 2 + acc.imag ** 2
    gauss2 = np.exp(-0.5 * al * np.real(zc * zm))
    for pw in out:
        pw *= al / (2.0 * np.pi)
        pw *= gauss2
    return out


class TestSlicePowers:
    """slice_powers against the mean of |_fields|^2 over rotated points
    (e^{i theta} zc, e^{-i theta} zm) at uniform theta nodes, which are exact
    for the field's harmonics -acap..kmax."""

    @staticmethod
    def theta_mean(group, zc, zm):
        ms = group[0]
        m = ms.kmax + ms.acap + 2
        rot = np.exp(2j * np.pi * np.arange(m) / m)[:, None, None]
        return [np.mean(np.abs(f) ** 2, axis=0)
                for f in _fields(group, rot * zc, zm / rot)]

    def test_pair_matches_theta_mean(self):
        # both orientations: [0] at (zc, zm), [1] at the swapped (zm, zc)
        zc, zm = complex_points(seed=10)
        pair = [random_slice(0.9, seed=11), random_slice(-0.9, seed=12)]
        assert all(np.any(np.diagonal(ms.coef)) for ms in pair)  # d = 0 modes
        got = slice_powers(pair, zc, zm)
        for side, (a, b) in enumerate([(zc, zm), (zm, zc)]):
            for pw, want in zip(got, self.theta_mean(pair, a, b)):
                assert_close(pw[side], want)

    def test_swapped_orientation_is_the_swapped_call(self):
        # on dyadic points every product in zc zm is exact, so zc * zm and
        # zm * zc are the same float (elsewhere numpy rounds the imaginary
        # part by operand order), and the swapped orientation is the call
        # at (zm, zc) bit for bit
        rng = np.random.default_rng(40)
        zc, zm = (rng.integers(-24, 25, (2, 3, 4)) + 1j * rng.integers(-24, 25, (2, 3, 4))) / 16
        assert np.array_equal(zc * zm, zm * zc)
        slices = [random_slice(0.9, seed=41), random_slice(-0.9, seed=42),
                  random_slice(1.7, kmax=4, acap=12, seed=43)]
        for pw, back in zip(slice_powers(slices, zc, zm), slice_powers(slices, zm, zc)):
            assert pw.shape == (2,) + zc.shape
            assert np.array_equal(pw[1], back[0]) and np.array_equal(pw[0], back[1])

    def test_mixed_groups_match_complex_monomials(self):
        # one call over three |lambda| groups against the complex-arithmetic
        # powers, group by group
        zc, zm = complex_points(seed=18)
        slices = [random_slice(0.6, seed=19), random_slice(-1.4, seed=20),
                  random_slice(-0.6, seed=21), random_slice(2.2, kmax=4, acap=12, seed=22)]
        got = slice_powers(slices, zc, zm)
        for g in ([0, 2], [1], [3]):
            for j, want in zip(g, slice_powers_reference([slices[j] for j in g], zc, zm)):
                assert_close(got[j][0], want, rel=1e-13)

    def test_u1_parts_are_equivariant(self):
        # the part of weight q, times its monomial, picks up e^{i q theta}
        # under the rotation
        zc, zm = complex_points(seed=13)
        pair = [random_slice(1.3, seed=14), random_slice(-1.3, seed=15)]
        rot = np.exp(0.7j)

        def parts(zc, zm):
            var_q, var_p = hermite_modes.mode_monomial_base(1.3, zc, zm)
            return {(i, q): g * (var_p if q >= 0 else var_q) ** abs(q)
                    for i, q, g in hermite_modes._offset_sums(pair, zc, zm)}

        moved, fixed = parts(rot * zc, zm / rot), parts(zc, zm)
        assert len(fixed) == len(moved) == len(list(hermite_modes._offset_sums(pair, zc, zm)))
        for (i, q), g in fixed.items():
            assert_close(moved[i, q], rot ** q * g)

    def test_zero_slice(self):
        zc, zm = complex_points(seed=16)
        zero = ModalSlice(-0.4, np.zeros((3, 4), complex))
        pz, pl = slice_powers([zero, random_slice(0.4, seed=17)], zc, zm)
        assert pz.shape == (2,) + zc.shape and not np.any(pz) and np.all(pl > 0)
        assert slice_powers([], zc, zm) == []


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


def plan_terms(plan, group=0, members=None):
    """The blocks of _offset_plan for |lambda| group `group` in the form of
    offset_plan_reference: per offset d the rows (i, on_p, w), slice i
    renumbered by its position in members and w cut after its last nonzero
    weight.  Each block must be as wide as its longest row."""
    terms = {}
    for g, d, idx, on_p, W in plan:
        if g != group:
            continue
        assert d not in terms and W.shape[0] == len(idx)
        assert W.shape[1] == max(np.flatnonzero(row)[-1] + 1 for row in W)
        terms[d] = [(members.index(i) if members else i, p, np.trim_zeros(row, "b"))
                    for i, p, row in zip(idx, on_p, W)]
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
        cut = [level_cut(ms, k_select) for ms in group]
        self.assert_same_plan(plan_terms(_offset_plan(cut)),
                              offset_plan_reference(group, k_select))

    @pytest.mark.parametrize("lam", [1.3, -1.3])
    @pytest.mark.parametrize("k_select", [None, 3])
    def test_one_member_group(self, lam, k_select):
        group = [random_slice(lam, kmax=8, acap=5, seed=23)]
        self.assert_same_plan(plan_terms(_offset_plan([level_cut(group[0], k_select)])),
                              offset_plan_reference(group, k_select))

    @pytest.mark.parametrize("k_select", [None, 1, 4])
    def test_groups_and_shapes_share_one_scatter(self, k_select):
        # three |lambda| groups, coefficient arrays of different shapes, and
        # an all-zero slice: each group's blocks are its own reference plan
        slices = [random_slice(0.9, seed=26), random_slice(-1.6, kmax=4, acap=12, seed=27),
                  ModalSlice(2.0, np.zeros((5, 3), complex)), random_slice(-0.9, seed=28),
                  random_slice(1.6, kmax=8, acap=5, seed=29)]
        plan = _offset_plan([level_cut(ms, k_select) for ms in slices])
        assert [g for g, *_ in plan] == sorted(g for g, *_ in plan)
        for g, members in enumerate(abs_lam_groups([ms.lam for ms in slices])):
            want = offset_plan_reference([slices[j] for j in members], k_select)
            self.assert_same_plan(plan_terms(plan, g, members), want)

    def test_all_zero_slice(self):
        zero = ModalSlice(-0.7, np.zeros((7, 10), complex))
        live = random_slice(0.7, seed=24)
        for group in ([zero], [zero, live], [live, zero]):
            for k_select in (None, 1):
                cut = [level_cut(ms, k_select) for ms in group]
                self.assert_same_plan(plan_terms(_offset_plan(cut)),
                                      offset_plan_reference(group, k_select))
        assert _offset_plan([zero]) == [] and _offset_plan([]) == []

    def test_plan_follows_in_place_coefficient_changes(self):
        # nothing is cached per slice: a coefficient changed after a first
        # evaluation shows in the next plan
        ms = random_slice(0.5, seed=25)
        before = _offset_plan([ms])
        ms.coef[:] = 0.0
        ms.coef[3, 1] = 2.0
        self.assert_same_plan(plan_terms(_offset_plan([ms])), offset_plan_reference([ms]))
        assert [d for _, d, *_ in _offset_plan([ms])] == [2]
        assert [d for _, d, *_ in before] != [2]


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
    within rounding of the row-by-row rectangle's (the rows come from the
    _fields engine, the reference from per-offset laguerre_all tables)."""

    @staticmethod
    def check(lam, kmax, acap, Z, mask=None, zm=None):
        rows = basis_matrix(lam, kmax, acap, Z, mask=mask, zm=zm)
        ref = basis_matrix_per_row(lam, kmax, acap, Z, mask=mask, zm=zm)
        full = np.ones((kmax + 1, acap + 1), bool) if mask is None else mask
        assert rows.shape == (int(full.sum()),) + Z.shape
        ref = ref[full]
        scale = np.max(np.abs(ref).reshape(ref.shape[0], Z.size), axis=1, initial=0.0)
        err = np.max(np.abs(rows - ref).reshape(ref.shape[0], Z.size), axis=1, initial=0.0)
        assert np.all(err <= 1e-14 * scale)
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
        ref = basis_matrix_per_row(lam, 5, 8, Z)
        assert np.allclose(rows.reshape((6, 9) + Z.shape), ref, rtol=0, atol=1e-14)

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

    @pytest.mark.parametrize("lam", [0.55, -0.55, 2.1, -2.1])
    @pytest.mark.parametrize("real", [True, False])
    def test_rows_do_not_depend_on_the_mask(self, lam, real):
        # bit for bit: each admitted row equals the unmasked table's row, and
        # a sub-rectangle's table is the corner of the larger one
        if real:
            Z, zm = TestConjugateTable.real_points(), None
        else:
            Z, zm = complex_points(seed=7)
        full = basis_matrix(lam, 6, 9, Z, zm=zm).reshape((7, 10) + Z.shape)
        stair = np.arange(10)[None, :] <= np.array([9, 8, 8, 6, 4, 2, 0])[:, None]
        stair[1, 3] = False
        one = np.zeros((7, 10), dtype=bool)
        one[4, 1] = True
        for mask in (stair, one, np.random.default_rng(11).random((7, 10)) < 0.4):
            assert np.array_equal(basis_matrix(lam, 6, 9, Z, mask=mask, zm=zm), full[mask])
        corner = basis_matrix(lam, 3, 4, Z, zm=zm).reshape((4, 5) + Z.shape)
        assert np.array_equal(corner, full[:4, :5])


def test_abs_lam_groups_pairs_a_symmetric_grid():
    lam = np.arange(-3, 4) * 0.25
    lam = lam[lam != 0]
    assert abs_lam_groups(lam) == [[0, 5], [1, 4], [2, 3]]
    assert abs_lam_groups([0.5, 0.7]) == [[0], [1]]


def test_modal_fields_keeps_slice_order():
    zc, zm = complex_points()
    modal = [random_slice(lv, seed=i) for i, lv in enumerate((-0.9, -0.4, 0.4, 0.9, 1.3))]
    for ms, fld in zip(modal, modal_fields(modal, point_planes(zc[..., None], zm[..., None]))):
        assert np.array_equal(fld, ms.field(zc, zm))


@pytest.mark.parametrize("k", [0, 3, 6])
def test_modal_fields_k_select_equals_field(k):
    # n = 1: the +-lambda groups share each recurrence and still give each
    # slice's own level-k field bit for bit
    zc, zm = complex_points(seed=3)
    modal = [random_slice(lv, seed=i) for i, lv in enumerate((-0.9, 0.4, 0.9, -0.4, 1.3))]
    cut = [level_cut(ms, k) for ms in modal]
    fields = modal_fields(cut, point_planes(zc[..., None], zm[..., None]))
    for ms, fld in zip(cut, fields):
        assert np.array_equal(fld, ms.field(zc, zm))


@pytest.mark.parametrize("k", [None, 0, 2])
def test_modal_fields_n2_equals_field_on_planes(k):
    zc, zm = complex_points_nd(41, seed=16)
    cut = [level_cut(random_slice_nd(lv, seed=i), k) for i, lv in enumerate((0.7, -0.7, 1.1))]
    planes = point_planes(zc, zm)
    for ms, fld in zip(cut, modal_fields(cut, planes)):
        assert np.array_equal(fld, ms.field_on_planes(planes))
        assert np.array_equal(fld, ms.field(zc, zm))


def test_modal_fields_broadcasts_a_cut_plane():
    # n = 1 points constant along an axis: point_planes cuts it, and the
    # fields come back in the points' shape
    zc, zm = complex_points(seed=4)
    zc, zm = np.broadcast_to(zc[0], (3, 4)), np.broadcast_to(zm[0], (3, 4))
    planes = point_planes(zc[..., None], zm[..., None])
    assert planes[1][0][0].shape == (1, 4)
    ms = random_slice(0.6, seed=5)
    (fld,) = modal_fields([ms], planes)
    assert fld.shape == (3, 4) and np.array_equal(fld, ms.field(zc, zm))


@pytest.mark.parametrize("lams", [(), (0.6,), (0.6, -0.6, 1.1)])
def test_modal_fields_returns_one_slice_by_point_array(lams):
    # [len(modal), *shape] at n = 1 and n = 2, on grid planes and on
    # scattered points that point_planes cuts along a constant axis
    x = fft_grid(6, 3.0)
    for n, make in ((1, random_slice), (2, random_slice_nd)):
        zc, zm = complex_points_nd(4, n=n, seed=5)
        zc, zm = np.broadcast_to(zc, (3, 4, n)), np.broadcast_to(zm, (3, 4, n))
        modal = [make(lv, seed=i) for i, lv in enumerate(lams)]
        for planes in (grid_planes(n, x, x[1:]), point_planes(zc, zm)):
            got = modal_fields(modal, planes)
            assert got.shape == (len(lams),) + planes[0] and got.dtype == complex
            for ms, fld in zip(modal, got):
                assert np.array_equal(fld, ms.field_on_planes(planes) if n > 1
                                      else np.broadcast_to(ms.field(*planes[1][0]), planes[0]))


def slice_fields_by_point(group, zc, zm):
    """_fields as it ran at every point set before the real-plane path, for
    one |lambda| group:
    each Laguerre recurrence at every point in complex arithmetic, s =
    |lambda| zc zm / 2 and the Gaussian of zc zm."""
    al = abs(group[0].lam)
    out = [np.zeros(np.broadcast(zc, zm).shape, dtype=complex) for _ in group]
    var_q, var_p = hermite_modes.mode_monomial_base(al, zc, zm)
    mono_p = mono_q = 1.0
    power = 0
    s = 0.5 * al * (zc * zm)
    for _, d, idx, on_p, W in _offset_plan(group):
        for i, p, acc in zip(idx, on_p, laguerre_sums(W.shape[1] - 1, d, s, W)):
            for _ in range(d - power):
                mono_p = mono_p * var_p
                mono_q = mono_q * var_q
                power += 1
            acc *= mono_p if p else mono_q
            out[i] += acc
    gauss = np.exp(-0.25 * al * (zc * zm))
    for fld in out:
        fld *= np.sqrt(al / (2.0 * np.pi))
        fld *= gauss
    return out


class TestRealPlanes:
    """Fields on real planes (zm exactly conj(zc)) run the radial sums on the
    distinct rho = |z|^2 in real arithmetic; complexified points keep the
    pointwise recurrence bit for bit."""

    @staticmethod
    def grid():
        x = fft_grid(24, 6.0)
        return x[:, None] + 1j * x[None, :]

    @pytest.mark.parametrize("k_select", [None, 0, 3, 6])
    def test_pair_matches_pointwise_recurrence(self, k_select):
        Z = self.grid()
        pair = [level_cut(random_slice(0.8, seed=30), k_select),
                level_cut(random_slice(-0.8, seed=31), k_select)]
        for got, want in zip(_fields(pair, Z, np.conj(Z)),
                             slice_fields_by_point(pair, Z, np.conj(Z))):
            assert got.shape == want.shape
            assert_close(got, want, rel=1e-14)

    @pytest.mark.parametrize("k_select", [None, 2])
    def test_modal_fields_on_grid_planes(self, k_select):
        # three |lambda| groups in one call, one of them a pair
        Z = self.grid()
        x = Z.real[:, 0]
        modal = [level_cut(ms, k_select) for ms in (
            random_slice(-1.3, seed=32), random_slice(0.5, kmax=4, acap=12, seed=33),
            random_slice(1.3, seed=34), random_slice(2.1, kmax=8, acap=5, seed=35))]
        got = modal_fields(modal, grid_planes(1, x, x))
        for g in ([0, 2], [1], [3]):
            want = slice_fields_by_point([modal[j] for j in g], Z, np.conj(Z))
            for j, w in zip(g, want):
                assert_close(got[j], w, rel=1e-14)

    @pytest.mark.parametrize("k_select", [None, 3])
    def test_complexified_points_bit_for_bit(self, k_select):
        zc, zm = complex_points(seed=36)
        pair = [level_cut(random_slice(1.1, seed=37), k_select),
                level_cut(random_slice(-1.1, seed=38), k_select)]
        want = slice_fields_by_point(pair, zc, zm)
        got = _fields(pair, zc, zm)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        planes = point_planes(zc[..., None], zm[..., None])
        assert all(np.array_equal(g, w) for g, w in zip(modal_fields(pair, planes), want))
        # a grid with one point off the real plane is complexified as a whole
        Z = self.grid()
        Zm = np.conj(Z)
        Zm[3, 5] += 1e-9j
        assert real_radii(Z, Zm) is None
        want = slice_fields_by_point(pair, Z, Zm)
        assert all(np.array_equal(g, w) for g, w in zip(_fields(pair, Z, Zm), want))

    def test_real_radii(self):
        Z = self.grid()
        assert np.array_equal(real_radii(Z, np.conj(Z)), Z.real ** 2 + Z.imag ** 2)
        assert real_radii(Z, np.conj(Z[:1])) is None          # broadcast, not the same shape
        zc, zm = complex_points(seed=39)
        assert real_radii(zc, zm) is None
        x = np.linspace(-1.0, 1.0, 5)
        assert np.array_equal(real_radii(x, x), x ** 2)

    def test_radial_table_runs_every_order_of_laguerre_all(self):
        # every order, each run as far as a higher one needs it and then
        # dropped: the rows it reaches are laguerre_all's bit for bit, the
        # rest are zero
        values = np.linspace(0.0, 40.0, 17)
        tops = [9, 4, 7, 2, -1, 0]
        need = [9, 7, 7, 2, 0, 0]
        table = radial_table(0.7, values, tops)
        assert table.shape == (6, 10, 17)
        for d, top in enumerate(need):
            assert np.array_equal(table[d, : top + 1], laguerre_all(top, d, 0.5 * 0.7 * values))
            assert not table[d, top + 1:].any()
        assert np.array_equal(radial_table(0.7, values, [9] * 6),
                              laguerre_all(9, np.arange(6)[:, None],
                                           np.broadcast_to(0.35 * values, (6, 17))).transpose(1, 0, 2))

    def test_radial_shells(self):
        Z = self.grid()
        rho = Z.real ** 2 + Z.imag ** 2
        values, inverse, members = radial_shells(rho)
        assert np.all(np.diff(values) > 0)
        assert np.array_equal(values[inverse], rho.ravel())
        real = members < rho.size
        assert np.array_equal(np.sort(members[real]), np.arange(rho.size))
        assert np.all(inverse[members[real]] == np.nonzero(real)[0])
        assert np.all(real[:, 0]) and members.shape == (values.size, np.bincount(inverse).max())


def edge_slice(lam, kmax=5, acap=7, seed=0):
    """A slice with coefficients on the k = 0 row and the a = 0 column only:
    every running sum of it has degree 0 (weighs L_0 = 1 alone)."""
    ms = random_slice(lam, kmax, acap, seed)
    ms.coef[1:, 1:] = 0.0
    return ms


def slice_powers_by_point(group, zc, zm):
    """slice_powers for one |lambda| group with every running sum from
    laguerre_sums at every point, constant ones included."""
    al = abs(group[0].lam)
    out = [np.zeros((2,) + np.broadcast(zc, zm).shape) for _ in group]
    base = 0.5 * al * np.stack(np.broadcast_arrays(zc.real ** 2 + zc.imag ** 2,
                                                   zm.real ** 2 + zm.imag ** 2))
    pows, power = np.ones_like(base), 0
    s = 0.5 * al * (zc * zm)
    for _, d, idx, on_p, W in _offset_plan(group):
        for _ in range(d - power):
            pows = pows * base
            power += 1
        for i, p, acc in zip(idx, on_p, laguerre_sums(W.shape[1] - 1, d, s, W)):
            part = acc.real ** 2
            part += acc.imag ** 2
            out[i] += part * (pows if p else pows[::-1])
    gauss2 = np.exp(-0.5 * al * np.real(zc * zm))
    for pw in out:
        pw *= al / (2.0 * np.pi)
        pw *= gauss2
    return out


class TestConstantParts:
    """At complexified points a running sum of degree 0 is its weight, a
    constant that broadcasts against the points, and runs no recurrence;
    the fields and powers are the pointwise recurrence's bit for bit."""

    GROUPS = {
        "edges": lambda: [edge_slice(0.7, seed=50), edge_slice(-0.7, seed=51)],
        "mixed": lambda: [random_slice(1.1, seed=52), edge_slice(-1.1, seed=53)],
    }

    @staticmethod
    def degrees(group):
        return [W.shape[1] - 1 for *_, W in _offset_plan(group)]

    @staticmethod
    def recurrences(monkeypatch):
        calls, run = [], hermite_modes.laguerre_sums

        def spy(mtop, order, s, W):
            calls.append(mtop)
            return run(mtop, order, s, W)

        monkeypatch.setattr(hermite_modes, "laguerre_sums", spy)
        return calls

    def test_degrees(self):
        assert set(self.degrees(self.GROUPS["edges"]())) == {0}
        mixed = self.degrees(self.GROUPS["mixed"]())
        assert 0 in mixed and max(mixed) > 0

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_fields_and_powers(self, name, monkeypatch):
        group = self.GROUPS[name]()
        zc, zm = complex_points(seed=54)
        calls = self.recurrences(monkeypatch)
        fields, powers = _fields(group, zc, zm), slice_powers(group, zc, zm)
        assert calls == [t for t in self.degrees(group) if t > 0] * 2
        monkeypatch.undo()
        for got, want in zip(fields, slice_fields_by_point(group, zc, zm)):
            assert got.shape == zc.shape and np.array_equal(got, want)
        for got, want in zip(powers, slice_powers_by_point(group, zc, zm)):
            assert got.shape == (2,) + zc.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_modal_fields_on_a_cut_plane(self, name):
        # points constant along axis 0: the plane is [1, 4], the fields [3, 4]
        group = self.GROUPS[name]()
        zc, zm = complex_points(seed=55)
        zc, zm = np.broadcast_to(zc[:1], (3, 4)), np.broadcast_to(zm[:1], (3, 4))
        planes = point_planes(zc[..., None], zm[..., None])
        assert planes[1][0][0].shape == (1, 4)
        for got, want in zip(modal_fields(group, planes), slice_fields_by_point(group, zc, zm)):
            assert got.shape == (3, 4) and np.array_equal(got, want)


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
    for idx in zip(*np.nonzero(ms.coef)):
        beta, alpha, c = idx[0::2], idx[1::2], ms.coef[idx]
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
        zc, zm = grid_stacks(2, xg, xg)
        assert zc.shape[:-1] == (10,) * 4
        ms = random_slice_nd(lam, seed=2)
        assert_close(level_cut(ms, k_select).field(zc, zm),
                     e1d_reference_nd(ms, zc, zm, k_select), rel=1e-13)

    @pytest.mark.parametrize("lam", [0.7, -0.7])
    @pytest.mark.parametrize("k_select", [None, 0, 1, 2, 3])
    @pytest.mark.parametrize("npts", [1, 37, 4101])
    def test_complexified_points(self, lam, k_select, npts):
        zc, zm = complex_points_nd(npts, seed=npts)
        ms = random_slice_nd(lam, seed=3)
        got = level_cut(ms, k_select).field(zc, zm)
        assert got.shape == (npts,)
        assert_close(got, e1d_reference_nd(ms, zc, zm, k_select), rel=1e-13)

    @pytest.mark.parametrize("lam", [1.2, -1.2])
    def test_n3(self, lam):
        zc, zm = complex_points_nd(50, n=3, seed=5)
        ms = random_slice_nd(lam, n=3, kcap=2, acap=2, seed=6)
        for k in (None, 0, 2):
            assert_close(level_cut(ms, k).field(zc, zm), e1d_reference_nd(ms, zc, zm, k),
                         rel=1e-13)

    @pytest.mark.parametrize("lam", [0.9, -0.9])
    @pytest.mark.parametrize("k_select", [None, 2])
    def test_tensor_grid_matches_scattered_points(self, lam, k_select):
        # the per-plane tables of the grid against every point evaluated on its own
        xg = fft_grid(8, 4.0)
        zc, zm = grid_stacks(2, xg, xg)
        ms = level_cut(random_slice_nd(lam, seed=9), k_select)
        flat = ms.field(zc.reshape(-1, 2), zm.reshape(-1, 2))
        assert flat.shape == (8 ** 4,)
        assert_close(ms.field(zc, zm), flat.reshape((8,) * 4), rel=1e-13)

    @pytest.mark.parametrize("hold_zm", [True, False])
    def test_constant_plane(self, hold_zm):
        # x_1 = u_1 = c: the second axis's table has one point; with zm left
        # varying, zc alone is constant and nothing may be cut
        xg = fft_grid(10, 4.0)
        zc, zm = grid_stacks(2, xg, xg)
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
        zc, zm = grid_stacks(3, xg, xg)
        assert zc.shape == (4,) * 6 + (3,)
        ms = random_slice_nd(lam, n=3, kcap=2, acap=2, seed=11)
        for k in (None, 1):
            assert_close(level_cut(ms, k).field(zc, zm), e1d_reference_nd(ms, zc, zm, k),
                         rel=1e-13)

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
        levels = sum(level_cut(ms, k).field(zc, zm) for k in range(4))
        assert_close(levels, ms.field(zc, zm), rel=1e-13)

    def test_empty_and_zero_modes(self):
        zc, zm = complex_points_nd(9)
        empty = ModalSliceND(0.8, 2, [], np.zeros(0, complex))
        zero = random_slice_nd(0.8)
        zero.coef[:] = 0.0
        assert empty.n == 2 and empty.coef.size == 0
        for ms in (empty, zero):
            got = ms.field(zc, zm)
            assert got.shape == (9,) and not np.any(got)
            assert np.array_equal(ms.proj_norms2(3), np.zeros(4))
        # a level that no mode carries
        assert not np.any(level_cut(random_slice_nd(0.8, kcap=1), 3).field(zc, zm))


# ---------------------------------------------------------------------------
# the dense coefficient tensor coef[beta_1, alpha_1, ..., beta_n, alpha_n]
# ---------------------------------------------------------------------------

def brute_proj_norms2(ms, kmax):
    """(2pi/|lam|)^n sum |coef|^2 per level |beta|, entry by entry."""
    out = np.zeros(kmax + 1)
    for idx in np.ndindex(ms.coef.shape):
        k = sum(idx[0::2])
        if k <= kmax:
            out[k] += abs(ms.coef[idx]) ** 2
    return (2 * np.pi / abs(ms.lam)) ** ms.n * out


class TestCoefficientTensor:
    @pytest.mark.parametrize("n, shape", [(2, (3, 4, 2, 5)), (3, (2, 3, 3, 2, 2, 2))])
    @pytest.mark.parametrize("kmax", [None, 0, 2, 9])
    def test_proj_norms2_by_level(self, n, shape, kmax):
        rng = np.random.default_rng(len(shape))
        coef = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        coef[rng.random(shape) < 0.2] = 0.0
        ms = ModalSlice(-0.7, coef)
        assert ms.n == n
        top = sum(shape[0::2]) - n if kmax is None else kmax
        got = ms.proj_norms2(kmax)
        assert got.shape == (top + 1,)
        np.testing.assert_allclose(got, brute_proj_norms2(ms, top), rtol=1e-14, atol=0)

    def test_proj_norms2_n1_is_the_row_sum(self):
        ms = random_slice(0.6, seed=4)
        want = (2 * np.pi / 0.6) * np.sum(np.abs(ms.coef) ** 2, axis=1)
        assert np.array_equal(ms.proj_norms2(), want)
        assert np.array_equal(ms.proj_norms2(ms.kmax), want)

    def test_levels(self):
        ms = ModalSlice(1.0, np.zeros((3, 2, 4, 5)))
        assert ms.levels().shape == (3, 1, 4, 1)
        assert ms.levels()[2, 0, 3, 0] == 5 and ms.levels()[1, 0, 0, 0] == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_mode_list_scatters_into_the_tensor(self, n):
        rng = np.random.default_rng(21)
        modes = [(alpha, beta) for beta in multiindices_upto(n, 2)
                 for alpha in multiindices_upto(n, 2)]
        coef = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        ms = ModalSliceND(0.9, n, modes, coef)
        assert ms.coef.shape == (3, 3) * n and ms.n == n
        dense = np.zeros((3, 3) * n, dtype=complex)
        for (alpha, beta), c in zip(modes, coef):
            dense[sum(zip(beta, alpha), ())] = c
        assert np.array_equal(ms.coef, dense)
        ref = ModalSlice(0.9, dense)
        zc, zm = complex_points_nd(23, n=n, seed=22)
        for k in (None, 0, 2):
            assert np.array_equal(level_cut(ms, k).field(zc, zm), level_cut(ref, k).field(zc, zm))
        assert np.array_equal(ms.proj_norms2(4), ref.proj_norms2(4))
        assert_close(ms.proj_norms2(4), brute_proj_norms2(ref, 4), rel=1e-14)

    def test_repeated_modes_add_up(self):
        # c and -c on one mode cancel: the field and the norms both vanish
        m = ((0, 1), (1, 0))
        ms = ModalSliceND(0.8, 2, [m, m], [1.0, -1.0])
        zc, zm = complex_points_nd(9)
        assert not np.any(ms.field(zc, zm))
        assert np.array_equal(ms.proj_norms2(2), np.zeros(3))
        twice = ModalSliceND(0.8, 2, [m, m, ((1, 0), (0, 0))], [0.5, 0.25j, 2.0])
        once = ModalSliceND(0.8, 2, [m, ((1, 0), (0, 0))], [0.5 + 0.25j, 2.0])
        assert np.array_equal(twice.coef, once.coef)
        assert_close(twice.field(zc, zm), e1d_reference_nd(once, zc, zm), rel=1e-13)
        assert twice.proj_norms2(1)[1] == pytest.approx((2 * np.pi / 0.8) ** 2 * 0.3125,
                                                        rel=1e-15)


# ---------------------------------------------------------------------------
# _panel_matmul against the one-shot product
# ---------------------------------------------------------------------------

def operand(rng, shape, transposed):
    """A complex [rows, cols] operand, C-ordered or the transpose of a C-ordered
    [cols, rows] array, as the product sites hold them."""
    if transposed:
        shape = shape[::-1]
    out = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return out.T if transposed else out


# (a shape, a transposed, b shape, b transposed): the product sites at the
# desk spec (n = 1: 32 nodes, nt 96, 48^2 points) and at the benchmark's
# n = 2 spec (6 nodes, nt 24, 16^4 points, 12 table rows, 6 pairs per axis)
PANELLED = {
    "partial_fourier_t n1": ((32, 96), False, (96, 2304), True),
    "partial_fourier_t n2": ((6, 24), False, (24, 16 ** 4), True),
    "invert_grid n1": ((2304, 32), True, (32, 96), False),
    "invert_grid one-row block": ((48, 32), True, (32, 96), False),
    "invert_grid n2": ((16 ** 4, 6), True, (6, 24), False),
    "analyze n2": ((12, 256), False, (256, 256), False),
    "field_on_planes n2": ((256, 6), True, (6, 256), False),
    # a remainder of 1 takes 8 of the panel before it; one of 13 stays
    "remainder 1": ((32, 96), False, (96, 2305), True),
    "remainder 13": ((2301, 32), True, (32, 96), False),
    # panels of 8 and a remainder of 4: the last panel is 12 wide
    "width 8": ((20, 400), False, (400, 100), False),
}
WHOLE = {
    "fits one panel": ((12, 256), False, (256, 12), False),
    "field_on_planes first step": ((256, 6), True, (6, 6), True),
    "vector operand": ((1, 96), False, (96, 2304), True),
    "8 rows over the bound": ((30, 576), False, (576, 576), False),
    "over WHOLE_MACS": ((64, 128), False, (128, 4097), False),
}


class TestPanelMatmul:
    @pytest.fixture
    def calls(self, monkeypatch):
        """(panels, multiply-adds of each) of every np.matmul call: a stack of
        panels is one call."""
        seen = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            panels = max(np.prod(a.shape[:-2], dtype=int), np.prod(b.shape[:-2], dtype=int))
            seen.append((int(panels), a.shape[-2] * a.shape[-1] * b.shape[-1]))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return seen

    @pytest.mark.parametrize("site", PANELLED)
    def test_panels_match_the_one_shot_product(self, calls, site):
        a_shape, a_t, b_shape, b_t = PANELLED[site]
        rng = np.random.default_rng(len(site))
        a, b = operand(rng, a_shape, a_t), operand(rng, b_shape, b_t)
        whole = a @ b
        out = np.full_like(whole, np.nan)
        assert _panel_matmul(a, b, out=out) is out and np.array_equal(out, whole)
        # the panels cover the product once, each under the bound but for a
        # width-8 panel with the remainder joined to it
        assert sum(p * macs for p, macs in calls) == a.shape[0] * a.shape[1] * b.shape[1]
        assert sum(p for p, _ in calls) > 1
        assert max(macs for _, macs in calls) <= (PANEL_MACS if site != "width 8"
                                                  else 12 * 400 * 20)
        assert np.array_equal(_panel_matmul(a, b), whole)

    @pytest.mark.parametrize("site", WHOLE)
    def test_whole_products_are_one_call(self, calls, site):
        a_shape, a_t, b_shape, b_t = WHOLE[site]
        rng = np.random.default_rng(len(site))
        a, b = operand(rng, a_shape, a_t), operand(rng, b_shape, b_t)
        assert np.array_equal(_panel_matmul(a, b), a @ b)
        m, k, n = a.shape[0], a.shape[1], b.shape[1]
        assert calls == [(1, m * k * n)]
        assert (m * k * n <= PANEL_MACS or min(m, n) == 1 or m * k * n > WHOLE_MACS
                or 8 * k * min(m, n) > PANEL_MACS)
