"""Group structure of H^n and the Heisenberg motion group, the Schrodinger
representation, its matrix elements, and the complexified group action."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .grids import DECAY_TOL
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

    @classmethod
    def from_real(cls, p: HeisPoint):
        z = np.zeros_like(p.x)
        return cls(p.x, z, p.u, z, p.t, 0.0)

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


@dataclass(frozen=True)
class MotionElement:
    """Element (sigma, p) of the Heisenberg motion group, sigma in U(n)."""

    sigma: np.ndarray
    translation: HeisPoint

    def __init__(self, sigma, translation: HeisPoint):
        n = translation.n
        sig = np.asarray(sigma)
        if sig.ndim == 0:
            # n=1 convenience: an angle theta
            if n != 1:
                raise GroupError("scalar sigma only valid for n=1")
            sig = np.array([[np.exp(1j * float(sig.real))]])
        sig = sig.astype(complex)
        if sig.shape != (n, n):
            raise GroupError(f"sigma must be {n}x{n}")
        if np.max(np.abs(sig.conj().T @ sig - np.eye(n))) > 1e-12:
            raise GroupError("sigma is not unitary to 1e-12")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "translation", translation)

    @property
    def n(self) -> int:
        return self.translation.n


def hgroup_mul(p: HeisPoint, q: HeisPoint) -> HeisPoint:
    """(x,u,t)(x',u',t') = (x+x', u+u', t+t' + (u.x' - x.u')/2)."""
    if p.n != q.n:
        raise GroupError("dimension mismatch in group law")
    t = p.t + q.t + 0.5 * (np.dot(p.u, q.x) - np.dot(p.x, q.u))
    return HeisPoint(p.x + q.x, p.u + q.u, t)


def hgroup_inverse(p: HeisPoint) -> HeisPoint:
    return HeisPoint(-p.x, -p.u, -p.t)


def motion_mul(g1: MotionElement, g2: MotionElement) -> MotionElement:
    """(sigma, z, t)(tau, w, s) = (sigma tau, (z,t)(sigma.w, s))."""
    if g1.n != g2.n:
        raise GroupError("dimension mismatch in motion group law")
    a, b = g1.sigma.real, g1.sigma.imag
    x2, u2 = g2.translation.x, g2.translation.u
    rx = a @ x2 - b @ u2
    ru = b @ x2 + a @ u2
    rot2 = HeisPoint(rx, ru, g2.translation.t)
    return MotionElement(g1.sigma @ g2.sigma, hgroup_mul(g1.translation, rot2))


def motion_action(g: MotionElement, p: ComplexPoint) -> ComplexPoint:
    """Complexified action (a+ib, x',u',t').(z,w,zeta).

    The rotation sends (z,w) to (a.z - b.w, b.z + a.w); the Heisenberg
    translation then acts through the complexified group law.  Real group
    elements move only the real parts of purely imaginary points.
    """
    if g.n != p.n:
        raise GroupError("dimension mismatch in motion action")
    a, b = g.sigma.real, g.sigma.imag
    z, w = p.z, p.w
    zr_ = a @ z - b @ w
    wr_ = b @ z + a @ w
    tr = g.translation
    znew = tr.x + zr_
    wnew = tr.u + wr_
    zeta = p.zeta + tr.t + 0.5 * (np.dot(tr.u, zr_) - np.dot(tr.x, wr_))
    return ComplexPoint(znew.real, znew.imag, wnew.real, wnew.imag, zeta.real, zeta.imag)


# ---------------------------------------------------------------------------
# Schrodinger representation on sampled functions
# ---------------------------------------------------------------------------

def _cubic_shift_1d(samples: np.ndarray, grid: np.ndarray, shift: float, axis: int) -> np.ndarray:
    """Sample f(xi + shift) on the grid by Keys cubic convolution (a = -1/2).

    Out-of-grid source values are zero-filled; that is only admissible when
    the function has decayed on the receding edge, which is checked against
    the peak magnitude (else: out-of-grid shift error).
    """
    h = grid[1] - grid[0]
    s = shift / h
    base = int(np.floor(s))
    f = s - base
    n = grid.size
    src_samples = np.moveaxis(samples.astype(complex), axis, 0)
    # decay check on the edge strip that shifts out of the grid
    strip = min(n, abs(base) + 2)
    peak = float(np.max(np.abs(samples)))
    if strip >= n:
        raise GroupError("out-of-grid shift")
    edge = src_samples[-strip:] if shift > 0 else src_samples[:strip]
    if peak > 0 and float(np.max(np.abs(edge))) > DECAY_TOL * peak:
        raise GroupError("out-of-grid shift (mass would leave the grid)")
    a = -0.5
    # Keys kernel weights at source offsets -1, 0, +1, +2 for fraction f
    wm1 = a * f ** 3 - 2 * a * f ** 2 + a * f
    w0 = (a + 2) * f ** 3 - (a + 3) * f ** 2 + 1
    w1 = -(a + 2) * f ** 3 + (2 * a + 3) * f ** 2 - a * f
    w2 = -a * f ** 3 + a * f ** 2
    padded = np.zeros((n + 2 * (abs(base) + 2),) + src_samples.shape[1:], dtype=complex)
    off = abs(base) + 2
    padded[off : off + n] = src_samples
    idx = np.arange(n) + base + off
    moved = (
        wm1 * padded[idx - 1]
        + w0 * padded[idx]
        + w1 * padded[idx + 1]
        + w2 * padded[idx + 2]
    )
    return np.moveaxis(moved, 0, axis)


def schrodinger_apply(lam: float, p: HeisPoint, phi: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """pi_lambda(x,u,t) phi sampled on the xi-grid:

        xi -> e^{i lam t} e^{i lam (x.xi + x.u/2)} phi(xi + u)

    phi is an n-dimensional array sampled on the tensor grid (same 1-D grid
    per axis); the xi+u shift uses cubic interpolation and errors out when it
    needs points outside the grid.
    """
    if lam == 0:
        raise GroupError("zero central parameter")
    n = p.n
    phi = np.asarray(phi)
    if phi.ndim != n:
        raise GroupError(f"phi must be {n}-dimensional")
    out = phi.astype(complex)
    for ax in range(n):
        if p.u[ax] != 0.0:
            out = _cubic_shift_1d(out, grid, p.u[ax], ax)
    # phase e^{i lam (x.xi)}: tensor of 1-D phases
    for ax in range(n):
        shape = [1] * n
        shape[ax] = grid.size
        out = out * np.exp(1j * lam * p.x[ax] * grid).reshape(shape)
    return out * np.exp(1j * lam * p.t) * np.exp(0.5j * lam * np.dot(p.x, p.u))


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
