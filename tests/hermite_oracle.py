"""The Schrodinger matrix elements E_{alpha beta}^lambda by Gauss-Hermite
quadrature: an oracle that shares no code with the closed-form special
Hermite functions of gutzmerlab.hermite_modes, which the tests check against
it.  It lives with the tests, so the package never imports numpy.polynomial.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from gutzmerlab.heisenberg_core import GroupError, _vec
from gutzmerlab.specfun import HERMITE_DEGREE_CAP, SpecfunError


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index alpha in N^n."""

    entries: tuple

    def __init__(self, entries):
        entries = tuple(int(e) for e in np.atleast_1d(entries))
        if len(entries) < 1:
            raise SpecfunError("multi-index needs at least one entry")
        if any(e < 0 for e in entries):
            raise SpecfunError("multi-index entries must be non-negative")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        return sum(self.entries)


def hermite_poly_normalized_all(max_deg: int, x):
    """h_m(x) e^{x^2/2}: the polynomial parts of the normalized Hermite
    functions, by their three-term recurrence without the weight.

    Used when the Gaussian weight has been folded into a quadrature rule.
    """
    if max_deg > HERMITE_DEGREE_CAP:
        raise SpecfunError(f"degree cap exceeded: Hermite degree {max_deg} > {HERMITE_DEGREE_CAP}")
    x = np.asarray(x, dtype=complex)
    out = np.empty((max_deg + 1,) + x.shape, dtype=complex)
    out[0] = np.pi ** -0.25 * np.ones_like(x)
    if max_deg >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for k in range(1, max_deg):
        out[k + 1] = np.sqrt(2.0 / (k + 1.0)) * x * out[k] - np.sqrt(k / (k + 1.0)) * out[k - 1]
    return out


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
