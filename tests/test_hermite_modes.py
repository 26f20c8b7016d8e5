import numpy as np
import pytest

from gutzmerlab.hermite_modes import (
    ModalSlice,
    abs_lam_groups,
    basis_matrix,
    e1d,
    modal_fields,
    slice_fields,
)


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
            basis = basis_matrix(lam, ms.kmax, ms.acap, Z)
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
