"""Group Fourier analysis through central slices and Laguerre projections.

The pipeline: a function f on H^n sampled over tensor grids is reduced to
central Fourier slices f^lambda, each slice is expanded over the special
Hermite (Laguerre) eigenspaces of the twisted convolution, and everything
downstream (Plancherel, inversion, Gutzmer, heat multipliers, band-limit
detection) consumes the per-(k, lambda) projections and their norms.

Normalization ledger (n = ambient dimension, all verified by round trips):

* f^lambda(z) = integral f(z,t) e^{i lambda t} dt.
* (F *_lambda G)(z) = integral F(z-w) G(w) e^{(i lambda/2) Im(z.wbar)} dw.
* P_k = (2 pi)^{-n} |lambda|^n ( . *_lambda phi_k^lambda ) are the orthogonal
  Laguerre projections, sum_k P_k = Id on L2(C^n).
* the stored state is the modal (Hermite-Laguerre) coefficients of each
  slice; projections = f^lambda *_lambda phi_k^lambda (raw,
  = (2pi/|lam|)^n P_k f^lambda) are derived from them, and are exactly what
  the inversion integral sums against d mu(lambda).
* norms2[k, lambda] = (2 pi)^{-n} |lambda|^n || projection ||_2^2
  = (2 pi/|lambda|)^n sum |level-k coefficients|^2 (orthonormal basis),
  the normalization in which Plancherel reads
  ||f||^2 = integral sum_k norms2 d mu  and Gutzmer carries the weight
  k!(n-1)!/(k+n-1)! against phi_k^lambda(2iy, 2iv).
* inversion: f(z,t) = integral e^{-i lambda t} sum_k proj_k(z) d mu(lambda),
  entire extension e^{-i lambda zeta} = e^{-i lambda xi} e^{lambda eta}.

Sample grids use the FFT convention x_m = (m - N/2) h on [-L, L); the t-grid
spans one period T = pi / (lambda spacing), which makes fixture round trips
exact by discrete Fourier orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .grids import DECAY_TOL, LAM_MIN, QuadratureSpec, SpectralError, fft_grid
from .hermite_modes import (
    ModalSlice,
    _norm_ratio_table,
    _panel_matmul,
    abs_lam_groups,
    basis_matrix,
    modal_fields,
    point_planes,
    radial_shells,
    radial_table,
)
from .heisenberg_core import ComplexPoint


class DecayError(SpectralError):
    """Grid does not cover the function to the declared decay tolerance."""


@dataclass
class LambdaGrid:
    lam: np.ndarray
    dl: float
    wmu: np.ndarray

    @classmethod
    def build(cls, spec: QuadratureSpec, A: float) -> "LambdaGrid":
        lam, dl, wmu = spec.lambda_grid(A)
        return cls(lam, dl, wmu)

    @property
    def t_half_window(self) -> float:
        return np.pi / self.dl


@dataclass
class BandLimit:
    """Band limits |lambda| <= A and (2k+n)|lambda| <= B."""

    A: float
    B: float

    def __post_init__(self):
        if self.A <= 0 or self.B <= 0:
            raise SpectralError("band limits must be positive")


def fan_table(n: int, kmax: int, lam: np.ndarray) -> np.ndarray:
    """fan[k, j] = (2k+n)|lambda_j|, the second band coordinate of the cell
    (k, lambda_j)."""
    return (2 * np.arange(kmax + 1)[:, None] + n) * np.abs(lam)[None, :]


def band_cells(n: int, kmax: int, lam: np.ndarray, levels: np.ndarray,
               A: float, B: float) -> tuple:
    """(fan, cells) over the cells [k, j]: fan_table, and the cells a fixture
    may populate, |lambda_j| <= A, fan <= B and k <= levels[j], the populable
    level of |lambda_j| (-1 where no mode fits)."""
    fan = fan_table(n, kmax, lam)
    cells = ((np.abs(lam) <= A + 1e-12) & (fan <= B + 1e-12)
             & (np.arange(kmax + 1)[:, None] <= levels))
    return fan, cells


@dataclass
class GridFunction:
    """Complex samples of a function on H^n over tensor grids.

    samples has shape (nx,)*n + (nu,)*n + (nt,); the x/u axes share one FFT
    grid, t has its own.  schwartz declares the decay needed by transforms.
    """

    n: int
    xgrid: np.ndarray
    ugrid: np.ndarray
    tgrid: np.ndarray
    samples: np.ndarray
    schwartz: bool = True

    def __post_init__(self):
        expect = (self.xgrid.size,) * self.n + (self.ugrid.size,) * self.n + (self.tgrid.size,)
        if self.samples.shape != expect:
            raise SpectralError(f"sample shape {self.samples.shape} != grids {expect}")

    @property
    def hx(self) -> float:
        return float(self.xgrid[1] - self.xgrid[0])

    @property
    def ht(self) -> float:
        return float(self.tgrid[1] - self.tgrid[0])

    @property
    def t_half_window(self) -> float:
        return float(-self.tgrid[0])

    def squared_norm(self) -> float:
        """integral |f|^2 dz dt by the grid rule (one t-period); |f|^2 is
        summed in real arithmetic, over the float view of the samples."""
        parts = np.ravel(np.asarray(self.samples, dtype=complex)).view(float)
        return float(np.einsum("i,i->", parts, parts) * self.hx ** (2 * self.n) * self.ht)


def grid_planes(n: int, xgrid: np.ndarray, ugrid: np.ndarray) -> tuple:
    """(shape, axes) of the tensor sample grid, as point_planes returns them:
    shape = (nx,)*n + (nu,)*n, and per axis j the plane (z_j, conj z_j),
    z_j = x_j + i u_j, with length nx on grid axis j, nu on axis n + j and
    1 elsewhere, so it broadcasts over the grid.  At n = 1 the plane is the
    whole (nx, nu) grid."""
    shape = (xgrid.size,) * n + (ugrid.size,) * n
    axes = []
    for j in range(n):
        sx, su = [1] * (2 * n), [1] * (2 * n)
        sx[j], su[n + j] = xgrid.size, ugrid.size
        Z = xgrid.reshape(sx) + 1j * ugrid.reshape(su)
        axes.append((Z, np.conj(Z)))
    return shape, axes


@dataclass(frozen=True)
class SpectralData:
    """Per-(k, lambda) content of a function on H^n, frozen once built.

    modal[j] holds the Hermite-Laguerre coefficients of the slice at
    lambda_j, one ModalSlice at every n: the dense tensor
    coef[beta_1, alpha_1, ..., beta_n, alpha_n] (coef[k, a] at n = 1), zero
    outside the admitted modes.  They are the only stored copy of the
    spectral content: modal is held as a tuple and every coef read-only.
    norms2[k, j] = (2 pi)^{-n} |lambda_j|^n ||projections[j, k]||^2 is
    derived from them at construction (ModalSlice.proj_norms2), read-only,
    and is not a constructor argument; dataclasses.replace derives it anew.
    projections and slices are not stored: each access evaluates them on
    the sample grid from modal, as one [node, ...] array, so hoist them out
    of loops.
    """

    n: int
    lgrid: LambdaGrid
    kmax: int
    xgrid: np.ndarray
    ugrid: np.ndarray
    modal: tuple
    tail: np.ndarray
    requested_band: Optional[BandLimit] = None
    norms2: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modal", tuple(self.modal))
        for ms in self.modal:
            ms.coef.flags.writeable = False
        norms2 = np.stack([ms.proj_norms2(self.kmax) for ms in self.modal], axis=1)
        norms2.flags.writeable = False
        object.__setattr__(self, "norms2", norms2)

    @property
    def lam(self) -> np.ndarray:
        return self.lgrid.lam

    @property
    def wmu(self) -> np.ndarray:
        return self.lgrid.wmu

    @property
    def hx(self) -> float:
        return float(self.xgrid[1] - self.xgrid[0])

    @property
    def fan(self) -> np.ndarray:
        """fan[k, j] = (2k+n)|lambda_j| (fan_table)."""
        return fan_table(self.n, self.kmax, self.lam)

    @property
    def slices(self) -> np.ndarray:
        """slices[j]: the slice at lambda_j rebuilt from its coefficients,
        one [node, *grid] array."""
        return modal_fields(self.modal, grid_planes(self.n, self.xgrid, self.ugrid))

    @property
    def projections(self) -> np.ndarray:
        """projections[j, k] = f^lambda_j *_lam phi_k on the sample grid, one
        [node, kmax+1, *grid] array, level k from the slices cut to |beta| = k."""
        shape, _ = planes = grid_planes(self.n, self.xgrid, self.ugrid)
        scale = ((2.0 * np.pi / np.abs(self.lam)) ** self.n).reshape((-1,) + (1,) * len(shape))
        out = np.empty((len(self.modal), self.kmax + 1) + shape, dtype=complex)
        levels = [ms.levels() for ms in self.modal]
        for k in range(self.kmax + 1):
            level = [ModalSlice(ms.lam, np.where(lev == k, ms.coef, 0))
                     for ms, lev in zip(self.modal, levels)]
            out[:, k] = scale * modal_fields(level, planes)
        return out

    def total_mass(self) -> float:
        """integral sum_k norms2 d mu: the Plancherel right side."""
        return float(np.sum(self.wmu[None, :] * self.norms2))

    def achieved_band(self) -> BandLimit:
        thresh = 1e-12 * max(float(np.max(self.norms2)), 1e-300)
        act = self.norms2 > thresh
        if not np.any(act):
            raise SpectralError("empty spectrum")
        A = float(np.max(np.abs(self.lam[act.any(axis=0)])))
        return BandLimit(A, float(np.max(self.fan[act])))


# ---------------------------------------------------------------------------
# central partial Fourier transform
# ---------------------------------------------------------------------------

def _t_edges_decayed(f: GridFunction) -> bool:
    """Do both t-edge sample planes stay within DECAY_TOL of the peak?"""
    edge = float(np.max(np.abs(f.samples[..., [0, -1]])))
    peak = float(np.max(np.abs(f.samples)))
    return not (peak > 0 and edge > DECAY_TOL * peak)


def partial_fourier_t(f: GridFunction, lam) -> np.ndarray:
    """f^lambda(x,u) = integral f(x,u,t) e^{i lambda t} dt by the grid rule, at
    one node or an array of nodes: shape lam.shape + grid, all slices of the
    call from one product (_panel_matmul) of the [node, nt] phase table with
    the samples.

    Requires the schwartz flag, and then either every node on the dual
    lattice pi/T of the t-window (fixtures are trigonometric in t, for which
    the one-period sum is exact by discrete orthogonality) or edge decay at
    the declared tolerance: one edge scan, run only when some node is off
    the lattice, whose DecayError names the first such node in grid order.
    """
    if not f.schwartz:
        raise DecayError("function not flagged as decaying (schwartz)")
    lam = np.asarray(lam, dtype=float)
    dual = np.pi / f.t_half_window
    off = np.abs(lam / dual - np.round(lam / dual)) >= 1e-9
    if off.any() and not _t_edges_decayed(f):
        raise DecayError(f"insufficient t-extent for lambda = {lam[off][0]:.12g}")
    phases = np.exp(1j * np.multiply.outer(lam.ravel(), f.tgrid)) * f.ht     # [node, nt]
    slices = _panel_matmul(phases, f.samples.reshape(-1, f.tgrid.size).T)
    return slices.reshape(lam.shape + f.samples.shape[:-1])


# ---------------------------------------------------------------------------
# analysis: slices -> modal coefficients
# ---------------------------------------------------------------------------

def _mode_mask(spec: QuadratureSpec, kmax: int, lam: float) -> np.ndarray:
    """Boolean admissibility of mode pairs (k, a) at scale lam: mask[k, a].

    Depends on every spec field, kmax and |lam| only, so it is memoized on
    them (the fields as one flat tuple, in declaration order); the mask is
    read-only, shared by every caller.
    """
    return _mode_mask_of(tuple(vars(spec).values()), kmax, abs(float(lam)))


@lru_cache(maxsize=256)
def _mode_mask_of(fields: tuple, kmax: int, al: float) -> np.ndarray:
    spec = QuadratureSpec(*fields)
    kfit = min(kmax, spec.max_radial_level(al))
    mask = np.zeros((kmax + 1, spec.beta_cap + 1), dtype=bool)
    for k in range(kfit + 1):
        atop = spec.acap_for_k(k, al, spec.beta_cap)
        mask[k, : atop + 1] = True
    mask.flags.writeable = False
    return mask


def _shell_powers(z: np.ndarray, dtop: int) -> np.ndarray:
    """zq[dtop + q] = z^q for q = 0..dtop and conj(z)^|q| for q = -dtop..-1:
    the monomials of U(1) weight q at the points z, the powers taken by one
    multiplication per degree."""
    pw = np.empty((2 * dtop + 1,) + z.shape, dtype=complex)
    pw[dtop] = 1.0
    for d in range(1, dtop + 1):
        np.multiply(pw[dtop + d - 1], z, out=pw[dtop + d])
    np.conjugate(pw[dtop + 1:], out=pw[dtop - 1:: -1][:dtop])
    return pw


def _radial_contract(al: float, mask: np.ndarray, moments: np.ndarray, values: np.ndarray,
                     harea: float) -> np.ndarray:
    """n = 1 coefficients [pair (k, a) that mask admits, member] at lambda =
    -al from the shell moments [dtop + q, shell, member] of the members.

    At lambda = -al the conjugated mode of (k, a), offset q = k - a, m =
    min(k, a), d = |q|, is sqrt(al/2pi) nr(m, d) (i c)^d zq[q] L_m^d(al rho/2)
    e^{-al rho/4} with c = sqrt(al/2), zq[q] = z^d on the column-dominant
    side q >= 0, conj(z)^d on the other.  So the real radial table
    L_m^d e^{-al rho/4} on the distinct rho contracts the moments of offset
    q, the sums of zq[q] f over each shell, into C[q, m].
    """
    ks, as_ = np.nonzero(mask)
    q = ks - as_
    m = np.minimum(ks, as_)
    qlo, qhi = int(q.min()), int(q.max())
    dtop = (moments.shape[0] - 1) // 2
    d = np.arange(max(-qlo, qhi) + 1)
    tops = np.full(d.size, -1)
    np.maximum.at(tops, np.abs(q), m)
    table = radial_table(al, values, tops)[np.abs(np.arange(qlo, qhi + 1))]
    table *= np.exp(-0.25 * al * values)                                 # [q, m, u]
    # the real table times the complex moments, on their float view
    mv = moments[dtop + qlo: dtop + qhi + 1].view(float)                 # [q, u, 2 member]
    C = (table @ mv).view(complex)                                       # [q, m, member]
    unit = np.array([1.0, 1j, -1.0, -1j])[d % 4] * np.sqrt(al / 2.0) ** d     # (i c)^d
    scale = (harea * np.sqrt(al / (2.0 * np.pi)) * unit[np.abs(q)]
             * _norm_ratio_table(mask.shape)[ks, as_])
    return scale[:, None] * C[q - qlo, m]


def _plane_coefs(sls: np.ndarray, lam: np.ndarray, groups: list, Z: np.ndarray,
                 harea: float) -> list:
    """n = 1 coefficients coef[k, a] of the slices sls [node, *plane] at the
    nodes lam, one array per node, zero outside the mask of its group (the
    (indices, mask) pairs of groups).

    The grid's points fall into shells of equal rho = |z|^2 (radial_shells,
    each shell padded with a zero point).  One batched product of the
    shells' monomials zq (_shell_powers, offsets up to the largest any mask
    admits) with the samples of every slice whose mask admits a mode gives
    all shell moments at once; _radial_contract turns each group's into its
    coefficients.  A slice at lambda > 0 enters conjugated, and so do its
    coefficients: at real points E^{lambda} = conj E^{-lambda}.
    """
    coefs = [np.zeros(groups[0][1].shape, dtype=complex) for _ in lam]
    live = [(g, mask) for g, mask in groups if mask.any()]
    if not live:
        return coefs
    values, _, members = radial_shells(Z.real ** 2 + Z.imag ** 2)
    dtop = max(int(np.abs(np.subtract(*np.nonzero(mask))).max()) for _, mask in live)
    zq = _shell_powers(np.append(Z.ravel(), 0.0)[members], dtop)
    cols = [j for g, _ in live for j in g]
    flip = lam[cols] > 0
    samples = np.zeros((Z.size + 1, len(cols)), dtype=complex)        # [point, member]
    samples[:-1] = sls.reshape(lam.size, Z.size)[cols].T
    samples[:, flip] = np.conj(samples[:, flip])
    moments = zq.transpose(1, 0, 2) @ samples[members]                   # [u, dtop + q, member]
    moments = np.ascontiguousarray(moments.transpose(1, 0, 2))           # [dtop + q, u, member]
    c0 = 0
    for group, mask in live:
        vals = _radial_contract(abs(lam[group[0]]), mask, moments[..., c0: c0 + len(group)],
                                values, harea)
        for j, v in zip(group, vals.T):
            coefs[j][mask] = np.conj(v) if lam[j] > 0 else v
        c0 += len(group)
    return coefs


def analyze(f: GridFunction, lgrid: LambdaGrid, kmax: int,
            spec: QuadratureSpec) -> SpectralData:
    """Hermite-Laguerre coefficients of every slice (SpectralData derives
    their norms).

    Admissibility depends on |lambda| only, and at real points
    E^{-lambda}_{ak}(z) = conj E^{lambda}_{ak}(z), so each |lambda| group
    (the pair lambda, -lambda) builds one mask at its first node l0.  All
    slices come from one partial_fourier_t call over the node array, [node,
    *grid], and the coefficients and tail energies read from it.

    n = 1 (_plane_coefs): every mode is z^d or conj(z)^d times a radial
    factor of rho = |z|^2, so each slice enters through its shell moments,
    the sums of z^d f and conj(z)^d f over the points of equal rho, which
    the real radial table on the distinct rho contracts: no basis table over
    the grid.  A member at lambda > 0 is projected through its conjugate
    slice, and its coefficients are conjugated back.

    n >= 2: the product basis (|lam|/2pi)^{n/2} prod_j E_{alpha_j beta_j}(z_j)
    is a tensor product over the planes (x_j, u_j), so each slice is
    contracted with one conjugated 1-D table plane by plane: O(R N^{2n}) per
    plane for R table rows and N points per axis, the table amortized over
    the N^{2(n-1)} columns of each plane.  The table is basis_matrix, the
    unit-coefficient stack of the n = 1 engine (_fields) on the real plane,
    so its radial factors come once per distinct rho as at n = 1; the
    per-shell moments of _plane_coefs would run per column of the other
    planes, and lose to this one product at n >= 2.  The
    table holds the R pairs (k, a) that _mode_mask admits, in the order of
    np.nonzero(mask), and row r of every plane carries (beta_j, alpha_j) =
    (ks[r], as_[r]).  A product of rows, mode (alpha, beta), is kept iff the
    mask admits (|beta|, |alpha|); the mask is down-closed on every grid
    checked, so the rows cover every kept mode's factors.  The kept products
    are scattered into coef[(kmax+1, beta_cap+1)^n], the layout
    [beta_1, alpha_1, ..., beta_n, alpha_n] of ModalSlice, zero elsewhere.
    One table B serves each group: the member at -l0 is contracted with B
    itself, the member at l0 with B conjugated in place.
    """
    n = f.n
    lam = lgrid.lam
    _, [(Z, _)] = grid_planes(1, f.xgrid, f.ugrid)      # the (x_j, u_j) plane of every axis
    harea = f.hx ** (2 * n)
    # slice axes (x_1..x_n, u_1..u_n) -> one (x_j, u_j) plane per axis
    planes = [ax for j in range(n) for ax in (j, n + j)]
    sls = partial_fourier_t(f, lam)                     # [node, *grid]
    layout = (kmax + 1, spec.beta_cap + 1) * n
    modal = [None] * lam.size
    tail = np.zeros(lam.size)

    def store(j, coef):
        modal[j] = ModalSlice(lam[j], coef)
        tail[j] = max(0.0, float(np.sum(np.abs(sls[j]) ** 2) * harea - np.sum(np.abs(coef) ** 2)))

    def project(j, Bc, kept, at):
        """Contract slice j with the conjugated table Bc [rows, N^2]."""
        T = sls[j].transpose(planes).reshape((Z.size,) * n)
        for _ in range(n):
            # contract the leading plane; its mode axis moves to the back
            T = _panel_matmul(Bc, T.reshape(Z.size, -1)).reshape(Bc.shape[:1] + T.shape[1:])
            T = np.moveaxis(T, 0, -1)
        T = T[tuple(slice(m) for m in kept.shape)] * harea      # drop the pad row, if any
        coef = np.zeros(layout, dtype=complex)
        coef[at] = T[kept]
        store(j, coef)

    groups = [(g, _mode_mask(spec, kmax, lam[g[0]])) for g in abs_lam_groups(lam)]
    if n == 1:
        for j, coef in enumerate(_plane_coefs(sls, lam, groups, Z, harea)):
            store(j, coef)
    else:
        for group, mask in groups:
            l0 = lam[group[0]]
            ks, as_ = np.nonzero(mask)
            B = basis_matrix(l0, kmax, spec.beta_cap, Z, mask=mask).reshape(ks.size, Z.size)
            if ks.size == 1:
                # numpy takes a one-row product as a dot product, which sums in
                # another order than the matrix-vector kernel; a zero row keeps
                # one-mode slices bit-identical to the full-table product
                B = np.concatenate([B, np.zeros_like(B)])
            # kept[r_1, ..., r_n]: does the mask admit the product of rows r_j?
            kb, ka = sum(np.ix_(*[ks] * n)), sum(np.ix_(*[as_] * n))
            kept = (kb <= kmax) & (ka <= spec.beta_cap)
            kept[kept] = mask[kb[kept], ka[kept]]
            at = tuple(idx[r] for r in np.nonzero(kept) for idx in (ks, as_))
            # B is the conjugated table of -l0, and conj(B) that of l0
            for j in group:
                if lam[j] != l0:
                    project(j, B, kept, at)
            np.conjugate(B, out=B)
            for j in group:
                if lam[j] == l0:
                    project(j, B, kept, at)
    return SpectralData(n=n, lgrid=lgrid, kmax=kmax, xgrid=f.xgrid, ugrid=f.ugrid,
                        modal=modal, tail=tail)


# ---------------------------------------------------------------------------
# Plancherel and inversion
# ---------------------------------------------------------------------------

def plancherel_check(f: GridFunction, sd: SpectralData):
    """(lhs, rhs, relative error) of the Plancherel identity.

    lhs = integral |f|^2 dz dt; rhs = integral sum_k norms2 d mu(lambda), the
    projection form of the operator-norm sum (the two coincide because the
    k-th projection carries the k!(n-1)!/(k+n-1)!-weighted Hilbert-Schmidt
    content of the k-th fan level).
    """
    lhs = f.squared_norm()
    rhs = sd.total_mass()
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return lhs, rhs, rel


def invert(sd: SpectralData, p) -> complex:
    """Entire-extension inversion at a point of C^{2n+1}:

        F(z,w,zeta) = integral e^{lambda eta} sum_k e^{-i lambda xi}
                      (f^lambda *_lambda phi_k^lambda)(z,w) d mu(lambda).

    At real points this is the inversion formula (round trip with analyze);
    the e^{lambda eta} factor implements the entire extension in zeta.
    """
    if not isinstance(p, ComplexPoint):
        raise SpectralError("invert expects a ComplexPoint")
    if p.n != sd.n:
        raise SpectralError(f"point of dimension {p.n} for data of dimension {sd.n}")
    z, w, zeta = p.z, p.w, p.zeta
    fields = modal_fields(sd.modal, point_planes(z + 1j * w, z - 1j * w))     # [node]
    weights = sd.wmu * (2.0 * np.pi / np.abs(sd.lam)) ** sd.n * np.exp(-1j * sd.lam * zeta)
    return complex(weights @ fields)


# Bytes of [node, point] slices that invert_grid evaluates at once (32 MiB):
# the desk grid (32 nodes x 48^2 points, 1.2 MB) is one block, and at n = 2,
# nx 40 (6 nodes, 983 MB of samples) a block is 5 rows, 3 % of the samples.
INVERT_BLOCK_BYTES = 1 << 25


def invert_grid(sd: SpectralData, tgrid: np.ndarray) -> GridFunction:
    """Synthesize the real-grid samples from the modal coefficients
    (sum_k projections[j, k] = (2 pi/|lambda_j|)^n slices[j]).

    The samples are one preallocated array, filled block by block along the
    first grid axis: a block's [node, *block] slices (modal_fields on that
    cut of grid_planes, at most INVERT_BLOCK_BYTES of them, one row at
    least) go against one weighted [node, nt] phase table in one product
    (_panel_matmul), written into the block's rows.  So the peak is the
    samples plus one block, and a grid whose slices fit in one block makes
    one product.  The blocks split the rows evenly: a short last block could
    fall under WHOLE_MACS and run in panels while the others use the pool.
    """
    shape, axes = grid_planes(sd.n, sd.xgrid, sd.ugrid)
    scale = sd.wmu * (2.0 * np.pi / np.abs(sd.lam)) ** sd.n
    phases = np.exp(-1j * np.outer(sd.lam, tgrid)) * scale[:, None]     # [node, nt]
    samples = np.empty(shape + tgrid.shape, dtype=complex)
    row_bytes = sd.lam.size * samples[0, ..., 0].nbytes
    blocks = -(-shape[0] // max(1, INVERT_BLOCK_BYTES // row_bytes))
    step = -(-shape[0] // blocks)
    for lo in range(0, shape[0], step):
        rows = slice(lo, lo + step)
        out = samples[rows]
        # planes of axes j > 0 have length 1 along the first grid axis
        cut = [(zc[rows], zm[rows]) if zc.shape[0] > 1 else (zc, zm) for zc, zm in axes]
        slices = modal_fields(sd.modal, (out.shape[:-1], cut)).reshape(sd.lam.size, -1)
        _panel_matmul(slices.T, phases, out=out.reshape(-1, tgrid.size))
        del slices      # before the next block's are made
    return GridFunction(sd.n, sd.xgrid, sd.ugrid, tgrid, samples, schwartz=True)


# ---------------------------------------------------------------------------
# band-limited synthesis
# ---------------------------------------------------------------------------

def _tune_grid(spec: QuadratureSpec, A: float, B: float, kmax: int) -> QuadratureSpec:
    """Retune lambda spacing and box extent so the admissible fan realizes B.

    Scans nodes_per_A and the box half-extent (small-lambda cells need wider
    boxes); keeps the node count structure and everything else fixed.  B* of
    a trial is the largest fan over its band_cells.  The populable level
    depends on |lambda| only, so each trial asks for the levels of its
    distinct |lambda| <= A in one max_radial_levels call.
    """
    best = None
    for lx in (spec.lx, 12.0, 13.0, 14.0, 15.0):
        trial_box = QuadratureSpec(**{**spec.__dict__, "lx": lx})
        for npa in range(8, 17):
            trial = QuadratureSpec(**{**trial_box.__dict__, "nodes_per_A": npa})
            lam, _, _ = trial.lambda_grid(A)
            al = np.abs(lam).tolist()
            asked = [a for a in dict.fromkeys(al) if a <= A + 1e-12]
            level = dict(zip(asked, trial.max_radial_levels(asked).tolist()))
            levels = np.array([level.get(a, -1) for a in al])
            fan, cells = band_cells(spec.n, kmax, lam, levels, A, B)
            bstar = float(np.max(fan[cells], initial=0.0))
            if best is None or bstar > best[0] + 1e-9:
                best = (bstar, trial)
    return best[1]


def _fixture_masses(n: int, kmax: int, lam: np.ndarray, levels: np.ndarray,
                    A: float, B: float, rng) -> np.ndarray:
    """Target masses m[k, j] of a fixture over its band_cells.

    The bulk fills the cells with fan <= 0.75 B, drawn in (lambda, k) order
    (np.float_power squares through libm's pow, as the fixtures always
    have; x * x can round differently).  A spike of 16 times the mean bulk
    mass goes to k = 0 at lambda = +-A where that cell is a band cell, and to
    the largest fan: the first cell, in (lambda, k) order, within 1e-12 of
    it, and the same k at its mirror -lambda.
    """
    fan, cells = band_cells(n, kmax, lam, levels, A, B)
    if not cells.any():
        raise SpectralError("empty admissible (k, lambda) set")
    js, ks = np.nonzero((cells & (fan <= 0.75 * B + 1e-12)).T)
    masses = np.zeros(fan.shape)
    masses[ks, js] = np.exp(-1.5 * np.float_power(np.abs(lam[js]) / A - 0.6, 2)
                            - 0.15 * ks) * (0.3 + rng.random(ks.size))
    spike = 16.0 * (np.mean(masses[masses > 0]) if np.any(masses > 0) else 1.0)
    for sgn in (+1, -1):
        jA = int(np.argmin(np.abs(lam - sgn * A)))
        if abs(abs(lam[jA]) - A) < 1e-9 and cells[0, jA]:
            masses[0, jA] += spike
    jB, kB = (int(i[0]) for i in np.nonzero((cells & (fan >= np.max(fan[cells]) - 1e-12)).T))
    masses[kB, jB] += spike
    jBm = int(np.argmin(np.abs(lam + lam[jB])))
    if kB <= levels[jBm]:
        masses[kB, jBm] += spike
    return masses


def synth_bandlimited(A: float, B: float, seed: int,
                      spec: Optional[QuadratureSpec] = None,
                      tune_grid: bool = False):
    """Seeded band-limited test fixture: returns (GridFunction, SpectralData).

    Coefficient masses m(k, lambda) >= 0 (_fixture_masses) live on the
    band_cells: |lambda| <= A, (2k+n)|lambda| <= B, and k at most the
    populable level of |lambda|, the a = 0 column of its mode mask.  The
    bulk is tapered to (2k+n)|lambda| <= 0.75 B, with heavy cells planted at
    |lambda| = A and at the largest admissible fan value (those extremes are
    what growth-based detection must see).  Fixture lambda nodes sit on the
    dual lattice of the t-window, so analysis round trips are exact.  A whose
    lambda grid reaches the Nyquist frequency pi/hx of the spec it is given
    is refused, and so is an A whose every node falls inside the central
    puncture |lambda| < LAM_MIN.
    """
    if spec is None:
        spec = QuadratureSpec()
    if spec.n != 1:
        raise SpectralError("synth_bandlimited is implemented for n=1")
    if A * (1 + spec.margin_nodes / spec.nodes_per_A) * spec.hx >= np.pi:
        raise SpectralError("A larger than the grid can resolve")
    kmax = spec.kmax
    if tune_grid:
        spec = _tune_grid(spec, A, B, kmax)
    lgrid = LambdaGrid.build(spec, A)
    if not lgrid.lam.size:
        raise SpectralError(f"A = {A:g} puts every lambda node inside the central "
                            f"puncture |lambda| < LAM_MIN = {LAM_MIN:g}")
    if np.max(np.abs(lgrid.lam)) < A - 1e-12:
        raise SpectralError("A exceeds the lambda grid extent")
    rng = np.random.default_rng(seed)
    xg = fft_grid(spec.nx, spec.lx)

    # admissible cells and target masses
    masks = [_mode_mask(spec, kmax, lv) for lv in lgrid.lam]       # memoized on |lambda|
    levels = np.array([np.count_nonzero(mask[:, 0]) - 1 for mask in masks])
    masses = _fixture_masses(spec.n, kmax, lgrid.lam, levels, A, B, rng)

    # coefficients per cell, scaled so norms2 equals the target mass
    coefs = np.zeros((lgrid.lam.size, kmax + 1, spec.beta_cap + 1), dtype=complex)
    for j, k in zip(*np.nonzero(masses.T > 0)):
        width = np.count_nonzero(masks[j][k])
        raw = (rng.standard_normal(width) + 1j * rng.standard_normal(width)) * np.exp(
            -np.arange(width) / 6.0)
        scale = 2.0 * np.pi / abs(lgrid.lam[j])
        raw *= np.sqrt(masses[k, j] / (scale * np.sum(np.abs(raw) ** 2)))
        coefs[j, k, :width] = raw
    modal = [ModalSlice(lv, coef) for lv, coef in zip(lgrid.lam, coefs)]

    tgrid = fft_grid(spec.nt, lgrid.t_half_window)
    sdata = SpectralData(n=1, lgrid=lgrid, kmax=kmax, xgrid=xg, ugrid=xg, modal=modal,
                         tail=np.zeros(lgrid.lam.size), requested_band=BandLimit(A, B))
    f = invert_grid(sdata, tgrid)
    return f, sdata
