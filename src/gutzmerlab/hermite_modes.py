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

basis_matrix tabulates the admitted modes of one plane separately, one row
each in row-major (k, a) order: per index offset one laguerre_all table up
to the offset's largest admitted m and one broadcast product for its rows
(real arithmetic at real points, independent (zc, zm) at complexified
ones).  Each entry is the same product in the same order whatever else the
mask admits.  At real points its table at -lam is the complex conjugate of
the one at lam, bit for bit (the monomial bases swap into each other's
conjugates and the Laguerre values and the Gaussian are real), so analyze
builds one table per +-lam pair and conjugates it in place for the second
member.  It serves analyze and the n >= 2 fields: the product basis
factorizes over the axes, so ModalSliceND.field evaluates one 1-D table per
axis, holding only the (beta_j, alpha_j) pairs its modes use, on the points
of that axis's plane alone (N^2 on the tensor grid, every point of a
scattered list; point_planes finds them, once per point set), and contracts
the coefficient tensor with the tables one axis at a time.  e1d, the closed
form of a single mode, is the reference the tests compare both evaluators
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=16)
def _norm_ratio_table(shape: tuple) -> np.ndarray:
    """nr[k, a] = norm_ratio(min(k, a), |k - a|) over a coefficient array of
    this shape: diagonal d of it holds norm_ratio(m, |d|), m = 0, 1, ...
    (read-only, shared by every slice of that shape)."""
    nr = np.array([[norm_ratio(min(k, a), abs(k - a)) for a in range(shape[1])]
                   for k in range(shape[0])])
    nr.flags.writeable = False
    return nr


def _offset_plan(group, k_select=None) -> dict:
    """Running-sum weights of the slices in group, per index offset d.

    Maps d to a list of (i, on_p, w): slice i, whether the sum multiplies the
    monomial P^d (else Q^d), and the weights w[m] = (+-1)^d norm_ratio(m, d)
    coef[...] of L_m^d, cut after the last nonzero coefficient.  Per slice the
    offsets come in increasing order, the P sum of an offset before its Q sum.
    """
    terms = {}
    for i, ms in enumerate(group):
        coef = ms.coef
        if k_select is not None:
            coef = np.zeros_like(coef)
            coef[k_select] = ms.coef[k_select]
        ks, as_ = np.nonzero(coef)
        if not ks.size:
            continue
        nr = _norm_ratio_table(coef.shape)
        sign = 1.0 if ms.lam > 0 else -1.0
        for d in np.unique(np.abs(ks - as_)).tolist():
            # diagonal -d: (k, a) = (m + d, m); diagonal +d: (m, m + d)
            diags = ((-d, ms.lam > 0), (d, ms.lam < 0)) if d else ((0, ms.lam > 0),)
            for off, on_p in diags:
                w = np.diagonal(coef, off)
                nz = np.flatnonzero(w)
                if nz.size:
                    top = nz[-1] + 1
                    terms.setdefault(d, []).append(
                        (i, on_p, sign ** d * np.diagonal(nr, off)[:top] * w[:top]))
    return terms


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
    with one running sum per (slice, monomial) of _offset_plan.  The d = 0
    modes form one running sum, so each (i, q) is yielded once.
    """
    al = abs(group[0].lam)
    if any(abs(ms.lam) != al for ms in group):
        raise ValueError("the slices of one group must share |lambda|")
    terms = _offset_plan(group, k_select)
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
    """Orthonormal basis fields Etilde_{a k}^lam at the points Z, admitted rows only.

    Returns array [n_rows, *Z.shape] (complex): one row per pair (k, a) that
    the boolean mask [kmax+1, acap+1] admits, in row-major order (the order
    of np.nonzero(mask)); row (k, a) holds sqrt(|lam|/2pi) E_{a k}(z).
    Without a mask every pair is admitted, and .reshape(kmax + 1, acap + 1,
    *Z.shape) gives the full rectangle.  zm is the independent conjugate
    coordinate of complexified points (same shape as Z); without it the
    points are real (zm = conj(Z)) and rho, s and the Gaussian are computed
    in real arithmetic.

    The table is built one index offset d = |k - a| at a time: one
    laguerre_all table up to the largest admitted m = min(k, a) of the
    offset, and one broadcast product per monomial for all its admitted
    column-dominant (k >= a) or row-dominant (a > k) rows.  Every entry is
    onorm * norm_ratio(m, d) * monomial^d * L_m^d(s) * gauss, multiplied in
    this order, the monomial powers taken by one multiplication per offset:
    L_m^d does not depend on the depth of the table it is read from, so an
    entry is the same float whatever else the mask admits.
    """
    if mask is None:
        mask = np.ones((kmax + 1, acap + 1), dtype=bool)
    ks, as_ = np.nonzero(mask)
    out = np.empty((ks.size,) + Z.shape, dtype=complex)
    if not ks.size:
        return out
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
    offset, low = np.abs(ks - as_), np.minimum(ks, as_)
    col = ks >= as_
    rows_of = (-1,) + (1,) * Z.ndim
    mono_row = mono_col = np.ones_like(zc)
    for d in range(int(offset.max()) + 1):
        if d:
            mono_row = mono_row * var_row
            mono_col = mono_col * var_col
        on_d = offset == d
        if not on_d.any():
            continue
        mtop = int(low[on_d].max())
        Ltab = laguerre_all(mtop, d, s)
        nr = np.array([norm_ratio(m, d) for m in range(mtop + 1)])
        for rows, mono in ((np.flatnonzero(on_d & col), mono_col),
                           (np.flatnonzero(on_d & ~col), mono_row)):
            if rows.size:
                m = low[rows]
                block = (onorm * nr[m]).reshape(rows_of) * mono
                block *= Ltab[m]
                block *= gauss
                out[rows] = block
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

        zc, zm: arrays [..., n] of the independent complex coordinates.
        Scans them once through point_planes and evaluates on the planes
        with field_on_planes.  Returns an array of shape zc.shape[:-1].
        """
        return self.field_on_planes(point_planes(zc, zm), k_select)

    def field_on_planes(self, planes, k_select=None):
        """field on the points that point_planes scanned.

        The product basis factorizes over the axes, so each axis j gets one
        basis_matrix table of the (beta_j, alpha_j) pairs that carry a
        selected nonzero coefficient, built on the points of its plane.  The
        coefficient tensor C[p_0, ..., p_{n-1}] over those pairs is
        contracted with the tables one axis at a time, the point axes
        broadcasting: the transpose of analyze's per-plane contraction.
        """
        shape, axes = planes
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
            pc, pm = axes[j]
            mask = masks[j]
            T = basis_matrix(self.lam, mask.shape[0] - 1, mask.shape[1] - 1,
                             pc, mask, zm=pm)
            acc = np.einsum(acc, [*range(j + 1), ...], T, [j, ...], [*range(j), ...],
                            optimize=True)
        return acc if acc.shape == shape else np.broadcast_to(acc, shape).copy()


def point_planes(zc, zm) -> tuple:
    """(shape, axes): the point shape of zc, zm ([..., n] arrays, broadcast)
    and per axis j the pair (zc[..., j], zm[..., j]) cut to length 1 along
    every point axis where both are constant.

    On the tensor grid that leaves the N^2 points of the (x_j, u_j) plane,
    scattered points keep them all.  The scan reads every point once per
    axis; evaluating many slices or levels on one point set, scan once and
    pass the result to ModalSliceND.field_on_planes.
    """
    zc, zm = np.broadcast_arrays(zc, zm)
    axes = []
    for j in range(zc.shape[-1]):
        pc, pm = zc[..., j], zm[..., j]
        for ax in range(pc.ndim):
            first = (slice(None),) * ax + (slice(0, 1),)
            if np.all(pc == pc[first]) and np.all(pm == pm[first]):
                pc, pm = pc[first], pm[first]
        axes.append((pc, pm))
    return zc.shape[:-1], axes
