import numpy as np
import pytest

from gutzmerlab.heisenberg_core import ComplexPoint, GroupError, HeisPoint
from gutzmerlab.hermite_modes import e1d
from hermite_oracle import matrix_element


class TestPointValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_heis_point_rejects_non_finite(self, bad, slot):
        args = [[0.1], [0.2], 0.3]
        args[slot] = [bad] if slot < 2 else bad
        with pytest.raises(GroupError, match="non-finite Heisenberg point"):
            HeisPoint(*args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(6))
    def test_complex_point_rejects_non_finite(self, bad, slot):
        args = [[0.1], [0.0], [0.0], [0.2], 0.0, 0.3]
        args[slot] = [bad] if slot < 4 else bad
        with pytest.raises(GroupError, match="non-finite complex point"):
            ComplexPoint(*args)

    def test_purely_imaginary_rejects_non_finite_eta(self):
        with pytest.raises(GroupError, match="non-finite complex point"):
            ComplexPoint.purely_imaginary([0.3], [0.2], np.inf)

    def test_heis_point_dimension_mismatch(self):
        with pytest.raises(GroupError, match="expected n=2, got 1"):
            HeisPoint([0.1, 0.2], [0.3], 0.0)

    @pytest.mark.parametrize("slot", range(1, 4))
    def test_complex_point_dimension_mismatch(self, slot):
        args = [[0.1, 0.2], [0.0, 0.0], [0.0, 0.0], [0.3, 0.4], 0.0, 0.5]
        args[slot] = [0.0]
        with pytest.raises(GroupError, match="expected n=2, got 1"):
            ComplexPoint(*args)


class TestMatrixElements:
    def test_orthonormality_at_origin(self):
        for a in (0, 1, 3):
            for b in (0, 1, 3):
                val = matrix_element(1.0, (a,), (b,), (np.zeros(1), np.zeros(1)), 0.0)
                assert val == pytest.approx(1.0 if a == b else 0.0, abs=1e-8)

    def test_ground_state_gaussian_oracle(self):
        lam, t = 1.0, 0.4
        for (x, u) in [(0.7, -0.4), (1.1, 0.8)]:
            val = matrix_element(lam, (0,), (0,), ([x], [u]), t)
            want = np.exp(1j * t) * np.exp(-(x * x + u * u) / 4.0)
            assert val == pytest.approx(want, abs=1e-10)

    def test_unit_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            a, b = rng.integers(0, 6, 2)
            x, u = rng.uniform(-2, 2, 2)
            lam = rng.uniform(0.3, 2.0) * rng.choice([-1, 1])
            val = matrix_element(lam, (int(a),), (int(b),), ([x], [u]), rng.uniform(-1, 1))
            assert abs(val) <= 1.0 + 1e-10

    def test_central_character_exact(self):
        lam, t = 0.8, 1.3
        for a in (0, 2):
            for b in (0, 2):
                val = matrix_element(lam, (a,), (b,), (np.zeros(1), np.zeros(1)), t)
                want = np.exp(1j * lam * t) * (1.0 if a == b else 0.0)
                assert val == pytest.approx(want, abs=1e-9)

    def test_truncated_unitarity_row_sums(self):
        lam = 1.0
        z = ([0.9], [-0.5])
        prev = 0.0
        for M in (8, 16, 32):
            s = sum(abs(matrix_element(lam, (2,), (b,), z, 0.0)) ** 2 for b in range(M + 1))
            assert s <= 1.0 + 1e-9
            assert s >= prev - 1e-12
            prev = s
        assert prev == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [1.3, -0.8])
    def test_matches_closed_form(self, lam):
        # dual route: Gauss-Hermite quadrature vs the Laguerre closed form
        for (a, b) in [(0, 1), (1, 0), (2, 4), (3, 1)]:
            for (x, u) in [(0.7, -0.4), (-0.3, 1.2)]:
                quad = matrix_element(lam, (a,), (b,), ([x], [u]), 0.0)
                z = x + 1j * u
                closed = complex(e1d(lam, a, b, np.asarray(z), np.asarray(np.conj(z))))
                assert quad == pytest.approx(closed, abs=1e-10)

    def test_n2_product_structure(self):
        val = matrix_element(1.0, (1, 0), (0, 2), ([0.3, -0.2], [0.5, 0.1]), 0.0)
        v1 = matrix_element(1.0, (1,), (0,), ([0.3], [0.5]), 0.0)
        v2 = matrix_element(1.0, (0,), (2,), ([-0.2], [0.1]), 0.0)
        assert val == pytest.approx(v1 * v2, rel=1e-9)
