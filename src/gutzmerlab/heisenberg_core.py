"""Points of H^n and of its complexification, and the Schrodinger matrix
elements E_{alpha beta}^lambda by Gauss-Hermite quadrature (the oracle the
closed-form special Hermite functions of hermite_modes are checked against)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .specfun import MultiIndex, SpecfunError, hermite_poly_normalized_all, HERMITE_DEGREE_CAP


class GroupError(ValueError):
    pass


def _vec(x, n=None):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if n is not None and v.size != n:
        raise GroupError(f"dimension mismatch: expected n={n}, got {v.size}")
    return v


@dataclass(frozen=True)
class HeisPoint:
    """Point (x, u, t) of H^n = R^n x R^n x R."""

    x: np.ndarray
    u: np.ndarray
    t: float

    def __init__(self, x, u, t):
        x = _vec(x)
        u = _vec(u, x.size)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.isfinite(t)):
            raise GroupError("non-finite Heisenberg point")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "t", float(t))

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ComplexPoint:
    """Point (z, w, zeta) of C^n x C^n x C, stored as real/imag parts."""

    zr: np.ndarray
    zi: np.ndarray
    wr: np.ndarray
    wi: np.ndarray
    zeta_r: float
    zeta_i: float

    def __init__(self, zr, zi, wr, wi, zeta_r, zeta_i):
        zr = _vec(zr)
        zi = _vec(zi, zr.size)
        wr = _vec(wr, zr.size)
        wi = _vec(wi, zr.size)
        for a in (zr, zi, wr, wi):
            if not np.all(np.isfinite(a)):
                raise GroupError("non-finite complex point")
        object.__setattr__(self, "zr", zr)
        object.__setattr__(self, "zi", zi)
        object.__setattr__(self, "wr", wr)
        object.__setattr__(self, "wi", wi)
        object.__setattr__(self, "zeta_r", float(zeta_r))
        object.__setattr__(self, "zeta_i", float(zeta_i))

    @classmethod
    def purely_imaginary(cls, y, v, eta):
        y = _vec(y)
        return cls(np.zeros_like(y), y, np.zeros_like(y), _vec(v, y.size), 0.0, float(eta))

    @property
    def n(self) -> int:
        return self.zr.size

    @property
    def z(self) -> np.ndarray:
        return self.zr + 1j * self.zi

    @property
    def w(self) -> np.ndarray:
        return self.wr + 1j * self.wi

    @property
    def zeta(self) -> complex:
        return complex(self.zeta_r, self.zeta_i)

    @property
    def is_purely_imaginary(self) -> bool:
        tol = 1e-14
        return (
            np.all(np.abs(self.zr) <= tol)
            and np.all(np.abs(self.wr) <= tol)
            and abs(self.zeta_r) <= tol
        )


# ---------------------------------------------------------------------------
# Matrix elements E_{alpha beta}^lambda via Gauss-Hermite quadrature
# ---------------------------------------------------------------------------

_gh_cache: dict = {}


def _gh_nodes(nq: int):
    if nq not in _gh_cache:
        _gh_cache[nq] = hermgauss(nq)
    return _gh_cache[nq]


def _matrix_element_1d(lam: float, a: int, b: int, x: float, u: float) -> complex:
    """integral e^{i lam x xi} Phi_a^lam(xi+u) Phi_b^lam(xi) d xi, 1-D.

    After rescaling s = sqrt|lam| xi the Gaussian weight of the pair of
    Hermite functions is e^{-s^2 - c s - c^2/2} (c = sqrt|lam| u); centering
    the 160-node Gauss-Hermite rule at -c/2 absorbs it exactly, leaving
    stable normalized-polynomial factors.
    """
    al = abs(lam)
    c = np.sqrt(al) * u
    om = np.sign(lam) * np.sqrt(al) * x
    y, wq = _gh_nodes(160)
    pa = hermite_poly_normalized_all(a, y + c / 2)[a]
    pb = hermite_poly_normalized_all(b, y - c / 2)[b]
    vals = pa * pb * np.exp(1j * om * y)
    return np.exp(-c * c / 4.0) * np.exp(-1j * om * c / 2.0) * np.dot(wq, vals)


def matrix_element(lam: float, alpha, beta, z, t: float = 0.0) -> complex:
    """E_{alpha beta}^lambda(z, t) = (pi_lambda(z,t) Phi_alpha^lam, Phi_beta^lam).

    z is the pair (x, u) of real n-vectors.  Inner product linear in the
    first slot; the Hermite basis is real so no conjugation appears.
    """
    if lam == 0:
        raise GroupError("zero central parameter")
    alpha = alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)
    beta = beta if isinstance(beta, MultiIndex) else MultiIndex(beta)
    if alpha.degree > HERMITE_DEGREE_CAP or beta.degree > HERMITE_DEGREE_CAP:
        raise SpecfunError("degree cap exceeded in matrix_element")
    x, u = z
    x = _vec(x, alpha.n)
    u = _vec(u, alpha.n)
    if beta.n != alpha.n:
        raise GroupError("alpha/beta dimension mismatch")
    out = np.exp(1j * lam * t) * np.exp(0.5j * lam * np.dot(x, u))
    for j in range(alpha.n):
        out *= _matrix_element_1d(lam, alpha.entries[j], beta.entries[j], x[j], u[j])
    return complex(out)
