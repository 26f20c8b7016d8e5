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

n = 1 slice fields (slice_fields, ModalSlice.field) group the modes by index
offset d = |a - k|: every mode of one offset shares L_m^d(s), so one forward
Laguerre recurrence per offset, carried by specfun.laguerre_sums as running
weighted sums, evaluates them all without storing an (m, grid) table.  s,
the Gaussian and the two monomial bases depend on |lam| only, so the slices
at lam and -lam share each recurrence; the sign of lam only decides which
monomial a mode multiplies and contributes (-1)^d to its weight.  The
private generator _offset_sums runs these recurrences and yields each slice's
parts of U(1) weight q = +-d: slice_fields adds them up, slice_powers adds
their squared moduli, the mean of |field|^2 over the U(1) rotations.

basis_matrix tabulates every mode of one plane separately (one laguerre_all
table per offset, real arithmetic at real points, independent (zc, zm) at
complexified ones).  It serves analyze and the n >= 2 fields: the product
basis factorizes over the axes, so ModalSliceND.field evaluates one 1-D
table per axis, holding only the (beta_j, alpha_j) pairs its modes use, on
the points of that axis's plane alone (N^2 on the tensor grid, every point
of a scattered list), and contracts the coefficient tensor with the tables
one axis at a time.  e1d, the closed form of a single mode, is the
reference the tests compare both evaluators against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma, exp

import numpy as np

from .specfun import laguerre, laguerre_all, laguerre_sums


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
        L = laguerre(a, d, s)
        return norm_ratio(a, d) * var_col ** d * L * np.exp(-0.25 * al * rho)
    d = a - b
    L = laguerre(b, d, s)
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

        A one-slice call to slice_fields: per index offset d = |a - k| one
        forward Laguerre recurrence feeds a running weighted sum over every
        mode of that offset (no monomial re-expansion of Laguerre
        polynomials, so high offsets stay stable).  To evaluate the slices at
        lambda and -lambda together, sharing each recurrence, call
        slice_fields on the pair.
        """
        return slice_fields([self], zc, zm, k_select)[0]


def abs_lam_groups(lam) -> list:
    """Index lists of the slices that share |lambda| (the pairs lambda, -lambda),
    in order of first appearance."""
    groups = {}
    for j, lv in enumerate(lam):
        groups.setdefault(abs(float(lv)), []).append(j)
    return list(groups.values())


def _offset_sums(group, zc, zm, k_select=None):
    """Yield (i, q, G) for every running sum of the slices in group.

    G is the part of slice i (or of its k-th projection) with U(1) weight q,
    without the Gaussian and the sqrt(|lambda|/2pi) normalization: the modes
    of offset d on the monomial P^d give q = +d, those on Q^d give q = -d.
    s = |lambda| zc zm / 2, the Gaussian and the monomials P = i
    sqrt(|lambda|/2) zc, Q = i sqrt(|lambda|/2) zm are the same for lambda and
    -lambda: at lambda > 0 column-dominant modes (a = m, k = m + d) carry P^d
    and row-dominant ones (a = m + d, k = m) Q^d, at lambda < 0 the roles
    swap and (-1)^d folds into the weights.  So each offset d needs one
    Laguerre recurrence for the whole group, run by specfun.laguerre_sums
    with one running sum per (slice, monomial).  The d = 0 modes form one
    running sum, so each (i, q) is yielded once.
    """
    al = abs(group[0].lam)
    if any(abs(ms.lam) != al for ms in group):
        raise ValueError("the slices of one group must share |lambda|")
    # per offset d: (slice, monomial is P, weights of L_m^d) of each running sum
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
    if not terms:
        return
    s = 0.5 * al * (zc * zm)
    var_q, var_p = mode_monomial_base(al, zc, zm)
    mono_p = mono_q = 1.0  # P^d, Q^d
    power = 0
    for d in sorted(terms):
        for _ in range(d - power):
            mono_p = mono_p * var_p
            mono_q = mono_q * var_q
        power = d
        W = np.zeros((len(terms[d]), max(w.size for _, _, w in terms[d])), dtype=complex)
        for row, (_, _, w) in zip(W, terms[d]):
            row[: w.size] = w
        for acc, (i, on_p, _) in zip(laguerre_sums(W.shape[1] - 1, d, s, W), terms[d]):
            acc *= mono_p if on_p else mono_q
            yield i, (d if on_p else -d), acc


def slice_fields(group, zc, zm, k_select=None) -> list:
    """Evaluate ModalSlices that share |lambda| (or their k-th projections).

    Sums the U(1) parts of _offset_sums, one Laguerre recurrence per index
    offset for the whole group, and applies the Gaussian and the
    normalization.  Returns one field per slice of the group, in its order.
    """
    out = [np.zeros(np.broadcast(zc, zm).shape, dtype=complex) for _ in group]
    for i, _, acc in _offset_sums(group, zc, zm, k_select):
        out[i] += acc
    al = abs(group[0].lam)
    gauss = np.exp(-0.25 * al * (zc * zm))
    for fld in out:
        fld *= np.sqrt(al / (2.0 * np.pi))
        fld *= gauss
    return out


def slice_powers(group, zc, zm) -> list:
    """Mean of |field|^2 over the U(1) orbit of each slice in group.

    The modes are U(1)-equivariant, E_ab(e^{i theta} zc, e^{-i theta} zm) =
    e^{i q theta} E_ab(zc, zm), so the theta-mean of |field|^2 at the rotated
    points is sum_q |G_q|^2 |gauss|^2 |lambda|/2pi over the U(1) parts G_q of
    _offset_sums (Parseval in theta).  Returns one real array per slice of
    the group, in its order.
    """
    out = [np.zeros(np.broadcast(zc, zm).shape) for _ in group]
    for i, _, acc in _offset_sums(group, zc, zm):
        out[i] += acc.real ** 2 + acc.imag ** 2
    al = abs(group[0].lam)
    gauss2 = np.exp(-0.5 * al * np.real(zc * zm))
    for pw in out:
        pw *= al / (2.0 * np.pi)
        pw *= gauss2
    return out


def modal_fields(modal, zc, zm) -> list:
    """ModalSlice fields of every slice in modal, one slice_fields call per
    |lambda| group."""
    out = [None] * len(modal)
    for g in abs_lam_groups([ms.lam for ms in modal]):
        for j, fld in zip(g, slice_fields([modal[j] for j in g], zc, zm)):
            out[j] = fld
    return out


def basis_matrix(lam: float, kmax: int, acap: int, Z: np.ndarray,
                 mask: np.ndarray | None = None, zm: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis fields Etilde_{a k}^lam at the points Z.

    Returns array [kmax+1, acap+1, *Z.shape] (complex).  Row (k, a) holds
    sqrt(|lam|/2pi) E_{a k}(z); rows outside the boolean mask stay zero.
    zm is the independent conjugate coordinate of complexified points (same
    shape as Z); without it the points are real (zm = conj(Z)) and rho, s and
    the Gaussian are computed in real arithmetic.  One Laguerre table per
    index offset d and the monomial powers serve every row of that offset.
    """
    al = abs(lam)
    zc = Z
    if zm is None:
        zm = np.conj(Z)
        rho = (zc * zm).real
    else:
        rho = zc * zm
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
        """Evaluate the slice (or its level-k_select projection) at points.

        zc, zm: arrays [..., n] of the independent complex coordinates.  The
        product basis factorizes over the axes, so each axis j gets one
        basis_matrix table of the (beta_j, alpha_j) pairs that carry a
        selected nonzero coefficient.  The table is built on zc[..., j],
        zm[..., j] cut to length 1 along every point axis where both are
        constant: on the tensor grid that leaves the N^2 points of the
        (x_j, u_j) plane, scattered points keep them all.  The coefficient
        tensor C[p_0, ..., p_{n-1}] over those pairs is contracted with the
        tables one axis at a time, the point axes broadcasting: the
        transpose of analyze's per-plane contraction.  Returns an array of
        shape zc.shape[:-1].
        """
        zc, zm = np.broadcast_arrays(zc, zm)
        shape = zc.shape[:-1]
        live = [(alpha, beta, c) for (alpha, beta), c in zip(self.modes, self.coef)
                if c != 0 and (k_select is None or sum(beta) == k_select)]
        if not live:
            return np.zeros(shape, dtype=complex)
        # per axis: mask[k, a] of the pairs in use, each mode's row among them
        masks, rows = [], []
        for j in range(self.n):
            ks = np.array([beta[j] for _, beta, _ in live])
            as_ = np.array([alpha[j] for alpha, _, _ in live])
            mask = np.zeros((ks.max() + 1, as_.max() + 1), dtype=bool)
            mask[ks, as_] = True
            masks.append(mask)
            rows.append(np.cumsum(mask).reshape(mask.shape)[ks, as_] - 1)
        C = np.zeros([int(m.sum()) for m in masks], dtype=complex)
        np.add.at(C, tuple(rows), [c for _, _, c in live])
        acc = C
        for j in reversed(range(self.n)):
            pc, pm = zc[..., j], zm[..., j]
            for ax in range(pc.ndim):
                first = (slice(None),) * ax + (slice(0, 1),)
                if np.all(pc == pc[first]) and np.all(pm == pm[first]):
                    pc, pm = pc[first], pm[first]
            mask = masks[j]
            T = basis_matrix(self.lam, mask.shape[0] - 1, mask.shape[1] - 1,
                             pc, mask, zm=pm)[mask]
            acc = np.einsum(acc, [*range(j + 1), ...], T, [j, ...], [*range(j), ...],
                            optimize=True)
        return acc if acc.shape == shape else np.broadcast_to(acc, shape).copy()
