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

A slice is one ModalSlice at every n: the dense coefficient tensor
coef[beta_1, alpha_1, ..., beta_n, alpha_n] of the product basis, zero
outside the modes in use, with |beta| the projection level (coef[k, a] at
n = 1).  ModalSliceND builds one from a list of (alpha, beta) modes.  All
the slices of a function on one point set are one [slice, *points] array:
modal_fields returns it at every n, and spectral reads and writes the t
axis against it in one product each way.

Every n = 1 mode is a monomial z^d or conj(z)^d times a radial factor
L_m^d(|lam| rho/2) e^{-|lam| rho/4} of rho = |z|^2.  On a real plane (zm
exactly conj(zc): real_radii) that factor is computed once per distinct rho
(radial_shells sorts the points into shells; radial_table holds L_m^d
there) in real arithmetic: the 48^2 desk plane has 298 distinct rho.
Complexified points, where rho = zc zm has no shells, run the recurrence at
every point (specfun.laguerre_sums, running weighted sums, no (m, points)
table), except for a sum of degree 0, whose weights stop at L_0 = 1: it is a
constant, and broadcasts against the points.

n = 1 fields (_fields) group the modes by index offset d = |a - k|: one
Laguerre sum per offset evaluates them all.  s, the Gaussian and the
monomials depend on |lam| only, so lam and -lam share each sum; the sign
only picks the monomial of a mode and adds (-1)^d to its weight.  One
scatter (_offset_plan) builds every weight of a set of slices, in rows
indexed by (|lam| group, d, slice x diagonal): once per call for the fields,
once per SpectralData for the direct orbital sum, which keeps it
(complexification._orbital_plan) and hands it to slice_powers.  The
generator _offset_sums yields each slice's U(1)-weight parts G_q, q = +-d,
without their monomial.
_fields multiplies them by P^d or Q^d and adds them up; slice_powers, the
mean of |field|^2 over the U(1) orbit, adds |G_q|^2 |P|^2d (or |Q|^2d) in
real arithmetic.  Swapping the points, (zc, zm) -> (zm, zc), keeps s and
every G_q and trades |P| for |Q|, so slice_powers also gives the power at
the swapped points from the same sums: the mirror that the direct orbital
quadrature adds for the points across the diagonal.  analyze (spectral)
projects n = 1 slices through the same factorization, contracting shell
moments with the radial table.

basis_matrix tabulates the admitted modes of one plane, one row each in
row-major (k, a) order: the fields of the unit-coefficient stack, one
_fields call, so _offset_sums is the one evaluator at every n and at both
kinds of point.  Each entry is the same float whatever else the mask
admits, and at real points the table at -lam is the complex conjugate of
the one at lam, bit for bit, so analyze builds one table per +-lam pair at
n >= 2.  The product basis factorizes over the axes, so
ModalSlice.field_on_planes evaluates one 1-D table per axis on the points
of that axis's plane alone and contracts the coefficient tensor one axis
at a time.  Point sets come as planes (shape, axes), per axis j the pair
(zc_j, zm_j) cut to the point axes it varies along: spectral.grid_planes
builds the tensor grid's, point_planes scans scattered [..., n]
coordinates.  e1d, the closed form of a single mode, is the reference the
tests compare the evaluator against.

_panel_matmul is the one matrix product of the grid-sized steps (the t-axis
transforms and the n >= 2 plane contractions of spectral, the tensor-grid
steps of field_on_planes): it cuts a product into panels under OpenBLAS's
single-thread size (PANEL_MACS), bit for bit the one-shot product, so
desk-scale work never wakes the BLAS thread pool, whose helper threads would
spin on for longer than the work takes.  Products past WHOLE_MACS go whole
and use the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, exp

import numpy as np

from .specfun import laguerre, laguerre_all, laguerre_sums

# OpenBLAS's single-thread bound for complex matrix products: scipy-openblas
# 0.3.31 (numpy 2.4) computes one of m n k <= 2^16 multiply-adds on the calling
# thread (32x96x21 stays there, 32x96x22 wakes the pool), and a woken helper
# thread then spins for about 0.13 s of CPU, longer than a desk-scale analysis.
PANEL_MACS = 1 << 16
# Past 2^25 multiply-adds (the n = 2 grids from nx 24 on, 20 ms and more a
# product) the pool pays in wall time, and a product goes whole.
WHOLE_MACS = 1 << 25


def _panel_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for 2-D a [m, k] and b [k, n], in panels of at most PANEL_MACS
    multiply-adds along the longer of m and n, so OpenBLAS runs each panel on
    the calling thread; into out if given.

    Panels are a multiple of 8 wide, and a remainder under 8 takes 8 of the
    panel before it (at width 8 it joins that panel, which then goes over
    the bound): panels that start on a multiple of 8 give the one-shot
    product's floats bit for bit, a 1-wide one goes to gemv, which sums in
    another order, and column panels of other widths round differently.  The
    product goes whole when it fits one panel, when a or b is a vector, when
    8 panel rows already exceed PANEL_MACS or when it exceeds WHOLE_MACS.
    """
    m, k = a.shape
    n = b.shape[1]
    if out is None:
        out = np.empty((m, n), dtype=np.result_type(a, b))
    rows = m >= n
    long, short = (m, n) if rows else (n, m)
    width = PANEL_MACS // max(k * short, 1) // 8 * 8
    if short < 2 or width < 8 or long <= width or m * n * k > WHOLE_MACS:
        return np.matmul(a, b, out=out)
    edges = [*range(0, long, width), long]
    if edges[-1] - edges[-2] < 8:
        edges[-2] -= 8
        if edges[-2] == edges[-3]:
            del edges[-2]
    count = sum(hi - lo == width for lo, hi in zip(edges, edges[1:]))
    cut = count * width
    # the full panels as one stack, one BLAS call each from numpy's loop
    if count and rows:
        np.matmul(a[:cut].reshape(count, width, k), b, out=out[:cut].reshape(count, width, n))
    elif count:
        np.matmul(a, b[:, :cut].reshape(k, count, width).transpose(1, 0, 2),
                  out=out[:, :cut].reshape(m, count, width).transpose(1, 0, 2))
    for lo, hi in zip(edges[count:], edges[count + 1:]):
        if rows:
            np.matmul(a[lo:hi], b, out=out[lo:hi])
        else:
            np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])
    return out


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
    """One lambda-slice in the orthonormal product E-basis, any n.

    coef[beta_1, alpha_1, ..., beta_n, alpha_n] holds the coefficient of
    (|lam|/2pi)^{n/2} prod_j E_{alpha_j beta_j} in the slice; |beta| is the
    Laguerre projection level, alpha the free row multi-index.  At n = 1 this
    is coef[k, a], the coefficient of Etilde_{a k} = sqrt(|lam|/2pi) E_{a k}.
    Orthonormality makes the sum of |coef|^2 over the entries of level
    |beta| = k the squared L2 norm of the k-th true projection of the slice.
    """

    lam: float
    coef: np.ndarray  # complex [kmax+1, acap+1] * n

    @property
    def n(self) -> int:
        return self.coef.ndim // 2

    @property
    def kmax(self) -> int:
        return self.coef.shape[0] - 1

    @property
    def acap(self) -> int:
        return self.coef.shape[1] - 1

    def levels(self) -> np.ndarray:
        """|beta| of every entry of coef, broadcasting against it."""
        return sum(np.indices(self.coef.shape, sparse=True)[0::2])

    def proj_norms2(self, kmax: int | None = None) -> np.ndarray:
        """||slice *_lam phi_k||^2 in the d-mu normalization, k = 0..kmax:

        (2 pi / |lam|)^n  sum_{|beta| = k} |coef|^2,

        summed over the alpha axes first, then gathered by |beta|.  kmax
        defaults to the highest level coef can hold.
        """
        if kmax is None:
            kmax = sum(self.coef.shape[::2]) - self.n
        per_beta = np.sum(np.abs(self.coef) ** 2, axis=tuple(range(1, self.coef.ndim, 2)))
        out = np.bincount(np.indices(per_beta.shape).sum(axis=0).ravel(), per_beta.ravel(),
                          minlength=max(kmax + 1, 0))
        return (2.0 * np.pi / abs(self.lam)) ** self.n * out[: kmax + 1]

    def field(self, zc, zm):
        """Evaluate the slice at points.

        n = 1: a one-slice call to _fields (modal_fields evaluates the
        slices at lambda and -lambda together, sharing each Laguerre
        recurrence).  n >= 2: zc, zm are arrays [..., n] of the per-axis
        coordinates, scanned by point_planes and evaluated by
        field_on_planes; the result has shape zc.shape[:-1].
        """
        if self.n == 1:
            return _fields([self], zc, zm)[0]
        return self.field_on_planes(point_planes(zc, zm))

    def field_on_planes(self, planes):
        """field on the planes of grid_planes or point_planes.

        The product basis factorizes over the axes, so each axis j gets one
        basis_matrix table of the (beta_j, alpha_j) pairs in the nonzero
        support of the coefficients, built on the points of its plane.  The
        coefficient tensor cut to those pairs, C[p_0, ..., p_{n-1}], is
        contracted with the tables one axis at a time, the point axes
        broadcasting: the transpose of analyze's per-plane contraction.
        Where the table and the partial sum vary along point axes of their
        own (tensor-grid planes), a step is one _panel_matmul of [modes x
        points, p_j] with [p_j, points]; where they share a point axis
        (scattered points), it is a sum per point.
        """
        shape, axes = planes
        C = self.coef
        live = C != 0
        if not live.any():
            return np.zeros(shape, dtype=complex)
        # per axis: mask[beta_j, alpha_j] of the pairs in use
        masks = [live.any(axis=tuple(ax for ax in range(C.ndim) if ax // 2 != j))
                 for j in range(self.n)]
        acc = C.reshape([m.size for m in masks])
        for j, mask in enumerate(masks):
            acc = np.compress(mask.ravel(), acc, axis=j)
        acc = acc.reshape(acc.shape + (1,) * len(shape))      # [p_0, ..., p_{n-1}, *points]
        for j in reversed(range(self.n)):
            (pc, pm), mask = axes[j], masks[j]
            T = basis_matrix(self.lam, mask.shape[0] - 1, mask.shape[1] - 1, pc, mask, zm=pm)
            lead, pa, pt = acc.shape[:j], acc.shape[j + 1:], T.shape[1:]
            if any(sa > 1 and st > 1 for sa, st in zip(pa, pt)):
                acc = np.einsum(acc, [*range(j + 1), ...], T, [j, ...], [*range(j), ...])
            else:
                # [points of T, p_j] @ [p_j, modes x points of acc], the operand
                # order of numpy's einsum, which the fields keep bit for bit
                prod = _panel_matmul(T.reshape(T.shape[0], -1).T,
                                     np.moveaxis(acc, j, 0).reshape(acc.shape[j], -1))
                # each point axis varies on one side only: interleave and merge them
                r = len(pt)
                prod = prod.reshape(pt + lead + pa).transpose(
                    [*range(r, r + j), *(ax for i in range(r) for ax in (r + j + i, i))])
                acc = prod.reshape(lead + tuple(max(sa, st) for sa, st in zip(pa, pt)))
        return acc if acc.shape == shape else np.broadcast_to(acc, shape).copy()


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


def _offset_plan(slices) -> list:
    """Running-sum weights of every slice of a call, from one scatter.

    Returns the blocks (g, d, idx, on_p, W) in the order _offset_sums runs
    them: |lambda| groups g in the order of abs_lam_groups, offsets d
    increasing within a group.  A block holds the running sums of offset d:
    row r belongs to slice idx[r] and multiplies the monomial P^d if on_p[r]
    (else Q^d); the rows run in slice order, diagonal -d (k = m + d) before
    diagonal +d (a = m + d).  W[r, m] = (+-1)^d norm_ratio(m, d) coef[...]
    weighs L_m^d, zero past the row's last nonzero coefficient up to the
    block's.  W is read-only.

    The coefficients are stacked into one zero-padded [slice, k, a] array,
    and every nonzero one is scattered to the weight row (g, d, slot) with
    slot = 2 * (position of the slice in g) + (a > k), column m = min(k, a).
    All-zero slices give no rows.
    """
    if not slices:
        return []
    groups = abs_lam_groups([ms.lam for ms in slices])
    shape = tuple(max(ms.coef.shape[ax] for ms in slices) for ax in (0, 1))
    C = np.zeros((len(slices),) + shape, dtype=complex)
    for i, ms in enumerate(slices):
        C[i, : ms.coef.shape[0], : ms.coef.shape[1]] = ms.coef
    sl, ks, as_ = np.nonzero(C)
    if not sl.size:
        return []
    nslot = 2 * max(len(g) for g in groups)
    member = np.empty((len(groups), nslot // 2), dtype=int)   # slice at (g, position)
    group_of, pos_of = np.empty(len(slices), dtype=int), np.empty(len(slices), dtype=int)
    for g, idx in enumerate(groups):
        member[g, : len(idx)] = idx
        group_of[idx], pos_of[idx] = g, np.arange(len(idx))
    lam_pos = np.array([ms.lam > 0 for ms in slices])
    d = np.abs(ks - as_)
    m = np.minimum(ks, as_)
    nd = int(d.max()) + 1
    nr = _norm_ratio_table(shape)[ks, as_]
    w = np.where(~lam_pos[sl] & (d % 2 == 1), -nr, nr) * C[sl, ks, as_]
    key = (group_of[sl] * nd + d) * nslot + 2 * pos_of[sl] + (as_ > ks)
    W = np.zeros((len(groups) * nd * nslot, min(shape)), dtype=complex)
    W[key, m] = w
    top = np.zeros(W.shape[0], dtype=int)
    np.maximum.at(top, key, m)
    used = np.zeros(W.shape[0], dtype=bool)
    used[key] = True
    rows = np.flatnonzero(used)
    gd, slot = np.divmod(rows, nslot)
    starts = np.flatnonzero(np.diff(gd, prepend=-1))
    tops = np.maximum.reduceat(top[rows], starts)
    idx = member[gd // nd, slot // 2]
    on_p = (slot % 2 == 0) == lam_pos[idx]
    W, idx, on_p = W[rows], idx.tolist(), on_p.tolist()
    W.flags.writeable = False   # plans are kept from call to call (complexification)
    bounds = [*starts.tolist(), rows.size]
    return [(b // nd, b % nd, idx[lo:hi], on_p[lo:hi], W[lo:hi, : t + 1])
            for b, lo, hi, t in zip(gd[starts].tolist(), bounds, bounds[1:], tops.tolist())]


def real_radii(zc, zm):
    """rho = |z|^2 = x^2 + u^2 at real points, None at complexified ones.

    The points are real when zm is exactly conj(zc), shape included; rho is
    then taken in real arithmetic (zc * zm carries rounding noise in its
    imaginary part).
    """
    zc, zm = np.asarray(zc), np.asarray(zm)
    if zc.shape != zm.shape or not np.array_equal(zm, np.conj(zc)):
        return None
    return zc.real ** 2 + zc.imag ** 2


def radial_shells(rho):
    """The shells of equal value of the real array rho, by one stable sort.

    Returns (values, inverse, members): values holds the distinct values in
    increasing order, inverse[p] is the shell of point p (values[inverse] is
    rho.ravel()), and members[u] lists the points of shell u, padded with
    rho.size, one past the last point.  (np.unique would sort as well, but
    it imports numpy.ma, which no step of synth needs.)
    """
    flat = np.ravel(rho)
    order = np.argsort(flat, kind="stable")
    srt = flat[order]
    new = np.empty(srt.size, dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    shell = np.cumsum(new) - 1                  # of each point, in sorted order
    inverse = np.empty_like(shell)
    inverse[order] = shell
    starts = np.flatnonzero(new)
    slot = np.arange(srt.size) - starts[shell]
    members = np.full((starts.size, int(slot.max(initial=0)) + 1), srt.size)
    members[shell, slot] = order
    return srt[new], inverse, members


def radial_table(al: float, values: np.ndarray, tops) -> np.ndarray:
    """L_m^d(al rho / 2) at the distinct values rho of a real plane, for the
    orders d = 0..len(tops)-1 and m = 0..tops[d]: [d, m, value].

    One laguerre_all recurrence runs every order at once, in real
    arithmetic, straight into the table: an order runs as far as any higher
    one does (the suffix maximum of tops) and leaves the recurrence there.
    Entries it does not reach are zero.
    """
    need = np.maximum.accumulate(np.asarray(tops)[::-1])[::-1]
    table = np.zeros((need.size, int(need[0]) + 1, values.size))
    s = np.broadcast_to(0.5 * al * values, table[:, 0].shape)
    laguerre_all(int(need[0]), np.arange(need.size)[:, None], s, out=table.transpose(1, 0, 2),
                 tops=need)
    return table


def _offset_sums(slices, zc, zm, plan=None):
    """Yield (i, q, G) for every running sum of the slices, any |lambda|.

    G is the part of slice i with U(1) weight q, without its monomial, the
    Gaussian and the sqrt(|lambda|/2pi) normalization: the modes of offset d
    on the monomial P^d give q = +d, those on Q^d give q = -d, and G P^d (or
    G Q^d) is the part itself.
    s = |lambda| zc zm / 2, the Gaussian and the monomials P = i
    sqrt(|lambda|/2) zc, Q = i sqrt(|lambda|/2) zm are the same for lambda and
    -lambda: at lambda > 0 column-dominant modes (a = m, k = m + d) carry P^d
    and row-dominant ones (a = m + d, k = m) Q^d, at lambda < 0 the roles
    swap and (-1)^d folds into the weights.  So each offset d needs one
    Laguerre sum per |lambda| group, over one block of _offset_plan.  At
    real points (real_radii) G depends on rho = |z|^2 alone: a block's sums
    are its weights times the group's radial_table on the distinct rho
    (radial_shells), one real product for the real parts of the weights and
    the imaginary ones together (a complex weight times a real value has no
    cross terms), gathered back to the points.  At complexified points
    specfun.laguerre_sums runs the recurrence at every point, except for a
    block of degree 0 (its rows weigh L_0 = 1 alone): its parts are the
    constants W[:, 0], yielded as read-only arrays of length 1 on every point
    axis that broadcast against the points.  Per slice the parts come in the
    plan's order, d increasing; the d = 0 modes form one running sum, so each
    (i, q) is yielded once.  plan is _offset_plan(slices), built here if not
    given.
    """
    if plan is None:
        plan = _offset_plan(slices)
    if not plan:
        return
    rho = real_radii(zc, zm)
    if rho is not None:
        values, inverse, _ = radial_shells(rho)
        tops = {}   # group -> the largest m of each offset d (-1: no block)
        for g, d, *_, W in plan:
            top = tops.setdefault(g, [])
            top += [-1] * (d + 1 - len(top))
            top[d] = W.shape[1] - 1
    g_now = None
    for g, d, idx, on_p, W in plan:
        if g != g_now:
            g_now = g
            al = abs(slices[idx[0]].lam)
            if rho is None:
                s = 0.5 * al * (zc * zm)
            else:
                table = radial_table(al, values, tops[g])
        if rho is None and W.shape[1] == 1:
            sums = W.reshape((-1,) + (1,) * np.ndim(s))
        elif rho is None:
            sums = laguerre_sums(W.shape[1] - 1, d, s, W)
        else:
            parts = np.concatenate([W.real, W.imag]) @ table[d, : W.shape[1]]
            sums = np.empty((len(idx), values.size), dtype=complex)
            sums.real, sums.imag = parts[: len(idx)], parts[len(idx):]
            sums = np.take(sums, inverse, axis=1).reshape((-1,) + rho.shape)
        for i, p, acc in zip(idx, on_p, sums):
            yield i, (d if p else -d), acc


def _fields(slices, zc, zm) -> np.ndarray:
    """The fields of slices of any |lambda|.

    Multiplies each part of _offset_sums by its monomial P^d or Q^d, the
    powers of each |lambda| group taken by one multiplication per offset,
    and sums the parts; then applies the Gaussian (in real arithmetic at
    real points) and the normalization.  One [slice, *points] array, in the
    order given.  A part is multiplied in place on a real plane and into a
    new array at complexified points, where a constant part broadcasts.
    """
    rho = real_radii(zc, zm)
    out = np.zeros((len(slices),) + np.broadcast(zc, zm).shape, dtype=complex)
    al_now = None
    for i, q, acc in _offset_sums(slices, zc, zm):
        al = abs(slices[i].lam)
        if al != al_now:
            al_now, power = al, 0
            var_q, var_p = mode_monomial_base(al, zc, zm)
            mono_p = mono_q = 1.0  # P^d, Q^d
        for _ in range(abs(q) - power):
            mono_p = mono_p * var_p
            mono_q = mono_q * var_q
            power += 1
        if rho is None:
            acc = acc * (mono_p if q >= 0 else mono_q)
        else:
            acc *= mono_p if q >= 0 else mono_q
        out[i] += acc
    gauss = {}
    for i, ms in enumerate(slices):
        al = abs(ms.lam)
        if al not in gauss:
            gauss[al] = np.exp(-0.25 * al * (zc * zm if rho is None else rho))
        out[i] *= np.sqrt(al / (2.0 * np.pi))
        out[i] *= gauss[al]
    return out


def slice_powers(slices, zc, zm, plan=None) -> list:
    """Mean of |field|^2 over the U(1) orbit of each slice, any |lambda|, at
    the points (zc, zm) and at the swapped points (zm, zc).

    The modes are U(1)-equivariant, E_ab(e^{i theta} zc, e^{-i theta} zm) =
    e^{i q theta} E_ab(zc, zm), so the theta-mean of |field|^2 at the rotated
    points is sum_q |G_q P^d|^2 |gauss|^2 |lambda|/2pi over the parts G_q of
    _offset_sums (Parseval in theta).  |P|^2 = (|lambda|/2) |zc|^2 and |Q|^2
    = (|lambda|/2) |zm|^2, so each part adds |G_q|^2 ((|lambda|/2)|zc|^2)^d
    (or |zm|^2) in real arithmetic, and no complex monomial is formed.  The
    swap keeps s = |lambda| zc zm / 2, the Gaussian and every G_q and trades
    |P|^2 for |Q|^2, so the one _offset_sums pass gives both: the swapped
    power adds |G_q|^2 times the other monomial's power.
    Returns one real [2, *points] array per slice, in the order given: [0]
    at (zc, zm), [1] at (zm, zc).  [1] is [0] of slice_powers(slices, zm,
    zc) bit for bit wherever zc * zm and zm * zc are the same float (numpy
    rounds the imaginary part of a complex product by operand order).
    plan, if given, is _offset_plan(slices), which the orbital sum keeps
    from call to call; a constant part broadcasts against the points.
    """
    shape = np.broadcast(zc, zm).shape
    out = [np.zeros((2,) + shape) for _ in slices]
    abs2 = np.stack(np.broadcast_arrays(zc.real ** 2 + zc.imag ** 2,
                                        zm.real ** 2 + zm.imag ** 2))
    al_now = None
    for i, q, acc in _offset_sums(slices, zc, zm, plan):
        al = abs(slices[i].lam)
        if al != al_now:
            al_now, power = al, 0
            base = 0.5 * al * abs2
            pows = np.ones_like(base)  # (|P|^2d, |Q|^2d)
        for _ in range(abs(q) - power):
            pows = pows * base
            power += 1
        part = acc.real ** 2
        part += acc.imag ** 2
        out[i] += part * (pows if q >= 0 else pows[::-1])
    gauss2 = {}
    for pw, ms in zip(out, slices):
        al = abs(ms.lam)
        if al not in gauss2:
            gauss2[al] = np.exp(-0.5 * al * np.real(zc * zm))
        pw *= al / (2.0 * np.pi)
        pw *= gauss2[al]
    return out


def modal_fields(modal, planes) -> np.ndarray:
    """Fields of every slice in modal on the planes of spectral.grid_planes
    or point_planes: one [len(modal), *shape] array, in the order of modal.
    n = 1: one _fields call for every slice, so lambda and -lambda share
    each Laguerre recurrence and a real plane is sorted into its shells once
    (a plane cut along constant point axes is broadcast back once, for all
    slices); n >= 2: field_on_planes per slice.
    """
    shape, axes = planes
    if len(axes) > 1:
        out = np.empty((len(modal),) + shape, dtype=complex)
        for i, ms in enumerate(modal):
            out[i] = ms.field_on_planes(planes)
        return out
    (zc, zm), = axes
    out = _fields(modal, zc, zm)
    return out if out.shape[1:] == shape else np.broadcast_to(out, out.shape[:1] + shape).copy()


def basis_matrix(lam: float, kmax: int, acap: int, Z: np.ndarray,
                 mask: np.ndarray | None = None, zm: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis fields Etilde_{a k}^lam at the points Z, admitted rows only.

    Returns array [n_rows, *Z.shape] (complex): one row per pair (k, a) that
    the boolean mask [kmax+1, acap+1] admits, in row-major order (the order
    of np.nonzero(mask)); row (k, a) holds sqrt(|lam|/2pi) E_{a k}(z).
    Without a mask every pair is admitted, and .reshape(kmax + 1, acap + 1,
    *Z.shape) gives the full rectangle.  zm is the independent conjugate
    coordinate of complexified points (same shape as Z); without it the
    points are real (zm = conj(Z)).

    The rows are the fields of the unit stack, one ModalSlice per admitted
    pair with coefficient 1 there and 0 elsewhere, from one _fields call: the
    table view of the one evaluator, real planes included (real_radii).
    Each row runs through its own weight row of _offset_plan and is the same
    float whatever else the mask admits, and at real points the table at
    -lam is the complex conjugate of the one at lam, bit for bit.
    """
    if mask is None:
        mask = np.ones((kmax + 1, acap + 1), dtype=bool)
    ks, as_ = np.nonzero(mask)
    unit = np.zeros((ks.size,) + mask.shape, dtype=complex)
    unit[np.arange(ks.size), ks, as_] = 1.0
    return _fields([ModalSlice(lam, c) for c in unit], Z, np.conj(Z) if zm is None else zm)


# ---------------------------------------------------------------------------
# general n: mode lists and point planes
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


class ModalSliceND(ModalSlice):
    """A ModalSlice built from a mode list: modes[i] = (alpha, beta) carries
    coef[i], scattered into the dense tensor of the n axis pairs (repeated
    modes add up)."""

    def __init__(self, lam: float, n: int, modes, coef):
        idx = np.array([sum(zip(beta, alpha), ()) for alpha, beta in modes],
                       dtype=int).reshape(-1, 2 * n)
        dense = np.zeros(tuple(int(idx[:, p::2].max(initial=-1)) + 1 for p in (0, 1)) * n,
                         dtype=complex)
        np.add.at(dense, tuple(idx.T), np.asarray(coef, dtype=complex))
        super().__init__(lam, dense)

    field = ModalSlice.field    # own class-dict entry: wrapping it touches ModalSliceND calls only


def point_planes(zc, zm) -> tuple:
    """(shape, axes): the point shape of zc, zm ([..., n] arrays, broadcast)
    and per axis j the pair (zc[..., j], zm[..., j]) cut to length 1 along
    every point axis where both are constant.

    Scattered points keep them all; the tensor grid needs no scan
    (spectral.grid_planes).  The scan reads every point once per axis: scan
    once and pass the result to modal_fields or ModalSlice.field_on_planes.
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
