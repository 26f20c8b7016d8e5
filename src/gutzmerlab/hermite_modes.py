"""Closed-form special Hermite matrix elements and modal slice expansions.

Internal engine behind the spectral module.  For n = 1 and lam != 0 the
matrix elements E_ab^lam(z, 0) have the closed form (b >= a, lam > 0)

    E_ab = sqrt(a!/b!) (i sqrt(lam/2) z)^{b-a} L_a^{b-a}(lam |z|^2/2)
           e^{-lam |z|^2/4},

with the conjugate-index form for a > b, and for lam < 0 the whole
expression conjugated (z <-> zbar and i -> -i).  The family
sqrt(|lam|/2pi) E_ab is orthonormal in L2(C), twisted convolution from the
right by phi_k^lam pins the *column* index to k, and everything extends
entire in (z, zbar) treated as independent complex variables -- which is how
slices get evaluated at complexified points.

All of this was fixed against brute-force Gauss-Hermite quadrature of
(pi_lam(z,0) Phi_a^lam, Phi_b^lam); the unit tests re-derive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, exp

import numpy as np

from .specfun import laguerre_all


def norm_ratio(m: int, d: int) -> float:
    """sqrt(m! / (m+d)!)."""
    return exp(0.5 * (lgamma(m + 1) - lgamma(m + d + 1)))


def mode_monomial_base(lam: float, zc, zm):
    """The two monomial variables of E_ab at parameter lam.

    Returns (var_row, var_col): var_col carries column-dominant modes
    (b > a), var_row the row-dominant ones.  zc ~ z and zm ~ zbar extended as
    independent complex variables; at real points pass zm = conj(zc).
    """
    al = abs(lam)
    unit = 1j * np.sign(lam) * np.sqrt(al / 2.0)
    if lam > 0:
        return unit * zm, unit * zc
    return unit * zc, unit * zm


def e1d(lam: float, a: int, b: int, zc, zm):
    """Matrix element E_ab^lam as an entire function of (zc, zm)."""
    al = abs(lam)
    rho = zc * zm
    s = 0.5 * al * rho
    var_row, var_col = mode_monomial_base(lam, zc, zm)
    if b >= a:
        d = b - a
        L = laguerre_all(a, d, s)[a]
        return norm_ratio(a, d) * var_col ** d * L * np.exp(-0.25 * al * rho)
    d = a - b
    L = laguerre_all(b, d, s)[b]
    return norm_ratio(b, d) * var_row ** d * L * np.exp(-0.25 * al * rho)


@dataclass
class ModalSlice:
    """One lambda-slice in the orthonormal E-basis (n = 1).

    coef[k, a] holds the coefficient of Etilde_{a k} = sqrt(|lam|/2pi) E_{a k}
    in the slice; k is the Laguerre projection index (column of E), a the
    free row index.  Orthonormality makes sum_a |coef[k,a]|^2 the squared L2
    norm of the k-th true projection of the slice.
    """

    lam: float
    coef: np.ndarray  # complex [kmax+1, acap+1]

    @property
    def kmax(self) -> int:
        return self.coef.shape[0] - 1

    @property
    def acap(self) -> int:
        return self.coef.shape[1] - 1

    def proj_norms2(self) -> np.ndarray:
        """||slice *_lam phi_k||^2 in the d-mu normalization:

        (2 pi / |lam|)^n  sum_a |coef[k, a]|^2   (n = 1 here).
        """
        return (2.0 * np.pi / abs(self.lam)) * np.sum(np.abs(self.coef) ** 2, axis=1)

    def field(self, zc, zm, k_select=None):
        """Evaluate the slice (or its k-th projection) at (zc, zm).

        Modes are grouped by index offset d = |a - k| so one Laguerre
        recurrence per offset serves every mode; this is what keeps high
        offsets numerically stable (no monomial re-expansion of Laguerre
        polynomials).
        """
        lam = self.lam
        al = abs(lam)
        coef = self.coef
        if k_select is not None:
            sel = np.zeros_like(coef)
            sel[k_select] = coef[k_select]
            coef = sel
        kmax, acap = self.kmax, self.acap
        shape = np.broadcast(zc, zm).shape
        out = np.zeros(shape, dtype=complex)
        if not np.any(coef):
            return out
        rho = zc * zm
        s = 0.5 * al * rho
        var_row, var_col = mode_monomial_base(lam, zc, zm)
        onorm = np.sqrt(al / (2.0 * np.pi))
        # weight vectors per offset d: w_col[d][m] multiplies L_m^d for the
        # column-dominant mode (a=m, k=m+d), w_row for the row-dominant one
        dmax = max(kmax, acap)
        w_col = [np.array([coef[m + d, m] * norm_ratio(m, d)
                           for m in range(min(kmax - d, acap) + 1)])
                 if min(kmax - d, acap) >= 0 else np.empty(0)
                 for d in range(dmax + 1)]
        w_row = [np.array([coef[m, m + d] * norm_ratio(m, d)
                           for m in range(min(kmax, acap - d) + 1)])
                 if d > 0 and min(kmax, acap - d) >= 0 else np.empty(0)
                 for d in range(dmax + 1)]
        mono_row = np.ones(shape, dtype=complex)
        mono_col = np.ones(shape, dtype=complex)
        for d in range(dmax + 1):
            wc, wr = w_col[d], w_row[d]
            need_c = wc.size and np.any(wc)
            need_r = wr.size and np.any(wr)
            if need_c or need_r:
                mtop = max(wc.size if need_c else 0, wr.size if need_r else 0) - 1
                Ltab = laguerre_all(mtop, d, s)
                if need_c:
                    out += mono_col * np.tensordot(wc, Ltab[: wc.size], axes=(0, 0))
                if need_r:
                    out += mono_row * np.tensordot(wr, Ltab[: wr.size], axes=(0, 0))
            if d < dmax:
                any_c = any(w.size and np.any(w) for w in w_col[d + 1 :])
                any_r = any(w.size and np.any(w) for w in w_row[d + 1 :])
                if not (any_c or any_r):
                    break
                mono_row = mono_row * var_row
                mono_col = mono_col * var_col
        return onorm * out * np.exp(-0.25 * al * rho)


def basis_matrix(lam: float, kmax: int, acap: int, Z: np.ndarray,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis fields Etilde_{a k}^lam on the real grid.

    Returns array [kmax+1, acap+1, *Z.shape] (complex).  Row (k, a) holds
    sqrt(|lam|/2pi) E_{a k}(z); rows outside the boolean mask stay zero.
    """
    al = abs(lam)
    zc = Z
    zm = np.conj(Z)
    rho = (zc * zm).real
    s = 0.5 * al * rho
    var_row, var_col = mode_monomial_base(lam, zc, zm)
    gauss = np.exp(-0.25 * al * rho)
    onorm = np.sqrt(al / (2.0 * np.pi))
    out = np.zeros((kmax + 1, acap + 1) + Z.shape, dtype=complex)
    dmax = max(kmax, acap)
    mono_row = np.ones_like(zc)
    mono_col = np.ones_like(zc)

    def wanted(k, a):
        return mask is None or bool(mask[k, a])

    for d in range(dmax + 1):
        mmax_col = min(kmax - d, acap)
        mmax_row = min(kmax, acap - d)
        mtop = max(mmax_col, mmax_row)
        if mtop >= 0:
            Ltab = laguerre_all(mtop, d, s)
            for m in range(mtop + 1):
                nr = norm_ratio(m, d)
                if m <= mmax_col and wanted(m + d, m):
                    out[m + d, m] = onorm * nr * mono_col * Ltab[m] * gauss
                if d > 0 and m <= mmax_row and wanted(m, m + d):
                    out[m, m + d] = onorm * nr * mono_row * Ltab[m] * gauss
        if d < dmax:
            mono_row = mono_row * var_row
            mono_col = mono_col * var_col
    return out


# ---------------------------------------------------------------------------
# general n: tensor products of 1-D matrix elements
# ---------------------------------------------------------------------------

def multiindices(n: int, degree: int):
    """All multi-indices in N^n with |alpha| = degree."""
    if n == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in multiindices(n - 1, degree - first):
            out.append((first,) + rest)
    return out


def multiindices_upto(n: int, cap: int):
    out = []
    for deg in range(cap + 1):
        out.extend(multiindices(n, deg))
    return out


@dataclass
class ModalSliceND:
    """Lambda-slice in the product E-basis for ambient dimension n >= 1.

    modes: list of (alpha, beta) multi-index pairs with |beta| = projection
    level; coef: matching coefficient list for the orthonormal fields
    (|lam|/2pi)^{n/2} prod_j E_{alpha_j beta_j}.
    """

    lam: float
    n: int
    modes: list
    coef: np.ndarray

    def proj_norms2(self, kmax: int) -> np.ndarray:
        scale = (2.0 * np.pi / abs(self.lam)) ** self.n
        out = np.zeros(kmax + 1)
        for (alpha, beta), c in zip(self.modes, self.coef):
            k = sum(beta)
            if k <= kmax:
                out[k] += scale * abs(c) ** 2
        return out

    def field(self, zc, zm, k_select=None):
        """zc, zm: arrays [..., n] of the independent complex coordinates."""
        onorm = (abs(self.lam) / (2.0 * np.pi)) ** (self.n / 2.0)
        out = np.zeros(np.asarray(zc).shape[:-1], dtype=complex)
        for (alpha, beta), c in zip(self.modes, self.coef):
            if k_select is not None and sum(beta) != k_select:
                continue
            term = np.ones_like(out)
            for j in range(self.n):
                term = term * e1d(self.lam, alpha[j], beta[j], zc[..., j], zm[..., j])
            out += c * term
        return onorm * out
