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

from dataclasses import astuple, dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .grids import DECAY_TOL, QuadratureSpec, fft_grid
from .hermite_modes import (
    ModalSlice,
    ModalSliceND,
    abs_lam_groups,
    basis_matrix,
    modal_fields,
    multiindices,
    multiindices_upto,
    point_planes,
)
from .heisenberg_core import ComplexPoint


class SpectralError(ValueError):
    pass


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
        """integral |f|^2 dz dt by the grid rule (one t-period)."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.hx ** (2 * self.n) * self.ht)


def grid_coords(n: int, xgrid: np.ndarray, ugrid: np.ndarray):
    """(zc, zm) = (z, zbar) on the tensor sample grid: (nx, nu) arrays at
    n = 1, [(nx,)*n + (nu,)*n, n] stacks of per-axis coordinates otherwise."""
    if n == 1:
        Z = xgrid[:, None] + 1j * ugrid[None, :]
        return Z, np.conj(Z)
    shape = (xgrid.size,) * n + (ugrid.size,) * n
    Zax = []
    for j in range(n):
        sx = [1] * (2 * n)
        sx[j] = xgrid.size
        su = [1] * (2 * n)
        su[n + j] = ugrid.size
        Zax.append((xgrid.reshape(sx) + 1j * ugrid.reshape(su)) * np.ones(shape))
    Zc = np.stack(Zax, axis=-1)
    return Zc, np.conj(Zc)


@dataclass
class SpectralData:
    """Per-(k, lambda) content of a function on H^n.

    modal[j] holds the Hermite-Laguerre coefficients of the slice at
    lambda_j; they are the only stored copy of the spectral content.
    norms2[k, j] = (2 pi)^{-n} |lambda_j|^n ||projections[j][k]||^2 is filled
    from them once (ModalSlice.proj_norms2).  projections and slices are not
    stored: each access evaluates them on the sample grid from modal, so
    hoist them out of loops.
    """

    n: int
    lgrid: LambdaGrid
    kmax: int
    xgrid: np.ndarray
    ugrid: np.ndarray
    norms2: np.ndarray
    modal: list
    tail: np.ndarray
    band: Optional[BandLimit] = None
    requested_band: Optional[BandLimit] = None

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
    def slices(self) -> list:
        """slices[j]: the slice at lambda_j rebuilt from its coefficients."""
        zc, zm = grid_coords(self.n, self.xgrid, self.ugrid)
        if self.n == 1:
            return modal_fields(self.modal, zc, zm)
        pts = point_planes(zc, zm)
        return [ms.field_on_planes(pts) for ms in self.modal]

    @property
    def projections(self) -> list:
        """projections[j][k] = f^lambda_j *_lam phi_k on the sample grid."""
        zc, zm = grid_coords(self.n, self.xgrid, self.ugrid)
        if self.n == 1:
            level = lambda ms, k: ms.field(zc, zm, k_select=k)
        else:
            pts = point_planes(zc, zm)         # one scan of the grid for every level
            level = lambda ms, k: ms.field_on_planes(pts, k_select=k)
        return [np.stack([(2.0 * np.pi / abs(ms.lam)) ** self.n * level(ms, k)
                          for k in range(self.kmax + 1)])
                for ms in self.modal]

    def total_mass(self) -> float:
        """integral sum_k norms2 d mu: the Plancherel right side."""
        return float(np.sum(self.wmu[None, :] * self.norms2))

    def achieved_band(self) -> BandLimit:
        thresh = 1e-12 * max(float(np.max(self.norms2)), 1e-300)
        act = self.norms2 > thresh
        if not np.any(act):
            raise SpectralError("empty spectrum")
        ks, js = np.nonzero(act)
        A = float(np.max(np.abs(self.lam[js])))
        B = float(np.max((2 * ks + self.n) * np.abs(self.lam[js])))
        return BandLimit(A, B)


# ---------------------------------------------------------------------------
# central partial Fourier transform
# ---------------------------------------------------------------------------

def _t_edges_decayed(f: GridFunction) -> bool:
    """Do both t-edge sample planes stay within DECAY_TOL of the peak?"""
    edge = max(
        float(np.max(np.abs(np.take(f.samples, 0, axis=-1)))),
        float(np.max(np.abs(np.take(f.samples, -1, axis=-1)))),
    )
    peak = float(np.max(np.abs(f.samples)))
    return not (peak > 0 and edge > DECAY_TOL * peak)


def _on_dual(f: GridFunction, lam: float) -> bool:
    """Is lambda on the dual lattice pi/T of the t-window?"""
    dual = np.pi / f.t_half_window
    return abs(lam / dual - round(lam / dual)) < 1e-9


def partial_fourier_t(f: GridFunction, lam: float) -> np.ndarray:
    """f^lambda(x,u) = integral f(x,u,t) e^{i lambda t} dt by the grid rule.

    Requires either edge decay at the declared tolerance or lambda on the
    dual lattice pi/T of the t-window (fixtures are trigonometric in t, for
    which the one-period sum is exact by discrete orthogonality).  The edge
    scan over every sample runs only off the lattice.
    """
    if not f.schwartz:
        raise DecayError("function not flagged as decaying (schwartz)")
    if not _on_dual(f, lam) and not _t_edges_decayed(f):
        raise DecayError("insufficient t-extent for this lambda")
    phases = np.exp(1j * lam * f.tgrid) * f.ht
    return np.tensordot(f.samples, phases, axes=([-1], [0]))


# ---------------------------------------------------------------------------
# twisted convolution (direct quadrature)
# ---------------------------------------------------------------------------

def twisted_conv(F: np.ndarray, G: np.ndarray, lam: float, xgrid: np.ndarray,
                 ugrid: np.ndarray) -> np.ndarray:
    """(F *_lambda G)(z) = integral F(z-w) G(w) e^{(i lam/2) Im(z.wbar)} dw.

    Direct O(N^4) quadrature at n=1 (z = x+iu); the phase is
    e^{(i lam/2)(u x' - x u')}.  lam = 0 degenerates to ordinary convolution.
    Serves as the independent oracle for the modal projection path.
    """
    F = np.asarray(F, dtype=complex)
    G = np.asarray(G, dtype=complex)
    if F.ndim != 2 or G.ndim != 2:
        raise SpectralError("twisted_conv is implemented for n=1 fields")
    if F.shape != G.shape or F.shape != (xgrid.size, ugrid.size):
        raise SpectralError("grid mismatch in twisted_conv")
    if xgrid.size != ugrid.size or abs(xgrid[1] - xgrid[0] - (ugrid[1] - ugrid[0])) > 1e-14:
        raise SpectralError("x and u grids must match for the difference lattice")
    N = xgrid.size
    h = float(xgrid[1] - xgrid[0])
    c = N // 2
    Fpad = np.zeros((3 * N, 3 * N), dtype=complex)
    Fpad[N : 2 * N, N : 2 * N] = F
    P1 = np.exp(0.5j * lam * np.outer(ugrid, xgrid))    # P1[j, a] = e^{i lam u_j x_a / 2}
    P2 = np.exp(-0.5j * lam * np.outer(xgrid, ugrid))   # P2[i, b] = e^{-i lam x_i u_b / 2}
    out = np.empty((N, N), dtype=complex)
    s0, s1 = Fpad.strides
    for i in range(N):
        # TT[a, j, b] = Fpad[(i - a) + c + N, (j - b) + c + N]; anchored view,
        # negative strides stay inside Fpad for all valid (a, j, b)
        anchor = Fpad[i + c + N :, c + N :]
        TT = np.lib.stride_tricks.as_strided(
            anchor, shape=(N, N, N), strides=(-s0, s1, -s1), writeable=False
        )
        W = G * P2[i][None, :]
        E = np.einsum("ajb,ab->aj", TT, W)
        out[i] = np.einsum("ja,aj->j", P1, E)
    return out * h * h


# ---------------------------------------------------------------------------
# analysis: slices -> modal coefficients
# ---------------------------------------------------------------------------

def _mode_mask(spec: QuadratureSpec, kmax: int, lam: float) -> np.ndarray:
    """Boolean admissibility of mode pairs (k, a) at scale lam: mask[k, a].

    Depends on every spec field, kmax and |lam| only, so it is memoized on
    them; the mask is read-only, shared by every caller.
    """
    return _mode_mask_of(astuple(spec), kmax, abs(float(lam)))


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


def analyze(f: GridFunction, lgrid: LambdaGrid, kmax: int,
            spec: Optional[QuadratureSpec] = None) -> SpectralData:
    """Hermite-Laguerre coefficients of every slice, and their norms.

    The product basis (|lam|/2pi)^{n/2} prod_j E_{alpha_j beta_j}(z_j) is a
    tensor product over the planes (x_j, u_j), so each slice is contracted
    with one conjugated 1-D table from basis_matrix plane by plane: O(M1
    N^{2n}) per plane for M1 table rows and N points per axis.  Mode
    (alpha, beta) is kept iff _mode_mask admits (|beta|, |alpha|).  At n = 1
    the table holds the admitted rows alone, M1 of them, the contraction is
    the single product conj(B) @ slice, and its result is scattered into
    coef[mask].  At n >= 2 a plane may carry any (beta_j, alpha_j) of the
    admissible rectangle, so the table is the unmasked rectangle.

    Admissibility depends on |lambda| only, and at real points
    E^{-lambda}_{ak}(z) = conj E^{lambda}_{ak}(z) bit for bit, so each
    |lambda| group (the pair lambda, -lambda) builds one mask and one table
    B at its first node l0: the member at -l0 is contracted with B itself,
    the member at l0 with B conjugated in place.  Every slice is taken first,
    in grid order, so a DecayError names the first node that fails.
    """
    if spec is None:
        spec = QuadratureSpec(n=f.n, nx=f.xgrid.size, lx=float(-f.xgrid[0]))
    n = f.n
    lam = lgrid.lam
    Z, _ = grid_coords(1, f.xgrid, f.ugrid)
    harea = f.hx ** (2 * n)
    # slice axes (x_1..x_n, u_1..u_n) -> one (x_j, u_j) plane per axis
    planes = [ax for j in range(n) for ax in (j, n + j)]
    sls = [partial_fourier_t(f, lv) for lv in lam]
    modal = [None] * lam.size
    norms2 = np.zeros((kmax + 1, lam.size))
    tail = np.zeros(lam.size)

    def project(j, Bc, mask, modes, kt, at):
        """Contract slice j with the conjugated table Bc [rows, N^2]."""
        T = sls[j].transpose(planes).reshape((Z.size,) * n)
        for _ in range(n):
            # contract the leading plane; its mode axis moves to the back
            T = np.moveaxis(np.tensordot(Bc, T, axes=(1, 0)), 0, -1)
        T = T * harea
        if n == 1:
            coef = np.zeros(mask.shape, dtype=complex)
            coef[mask] = T[: np.count_nonzero(mask)]     # drop the pad row, if any
            ms = ModalSlice(lam[j], coef)
            norms2[:, j] = ms.proj_norms2()
        else:
            T = T.reshape((kt, at) * n)                 # [beta_1, alpha_1, beta_2, ...]
            coef = np.array([T[sum(zip(beta, alpha), ())] for alpha, beta in modes],
                            dtype=complex)
            ms = ModalSliceND(lam[j], n, list(modes), coef)
            norms2[:, j] = ms.proj_norms2(kmax)
        modal[j] = ms
        tail[j] = max(0.0, float(np.sum(np.abs(sls[j]) ** 2) * harea - np.sum(np.abs(coef) ** 2)))

    for group in abs_lam_groups(lam):
        l0 = lam[group[0]]
        mask = _mode_mask(spec, kmax, l0)
        kt, at = int(mask.any(axis=1).sum()), int(mask.any(axis=0).sum())
        modes = None
        if n == 1:
            B = basis_matrix(l0, kmax, spec.beta_cap, Z, mask=mask).reshape(-1, Z.size)
            if B.shape[0] == 1:
                # numpy takes a one-row product as a dot product, which sums in
                # another order than the matrix-vector kernel; a zero row keeps
                # one-mode slices bit-identical to the full-table product
                B = np.concatenate([B, np.zeros_like(B)])
        else:
            # a plane may carry any (beta_j, alpha_j) of the admissible
            # rectangle; a second column keeps a one-row table off the dot
            # product here too
            at = min(max(at, 2), spec.beta_cap + 1)
            B = basis_matrix(l0, kt - 1, at - 1, Z).reshape(kt * at, Z.size)
            modes = [(alpha, beta) for k in range(kt) for beta in multiindices(n, k)
                     for alpha in multiindices_upto(n, at - 1) if mask[k, sum(alpha)]]
        # B is the conjugated table of -l0, and conj(B) that of l0
        for j in group:
            if lam[j] != l0:
                project(j, B, mask, modes, kt, at)
        np.conjugate(B, out=B)
        for j in group:
            if lam[j] == l0:
                project(j, B, mask, modes, kt, at)
    return SpectralData(
        n=n, lgrid=lgrid, kmax=kmax, xgrid=f.xgrid, ugrid=f.ugrid,
        norms2=norms2, modal=modal, tail=tail,
    )


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
    if isinstance(p, ComplexPoint):
        z, w, zeta = p.z, p.w, p.zeta
    else:
        raise SpectralError("invert expects a ComplexPoint")
    total = 0.0 + 0.0j
    for j, lv in enumerate(sd.lam):
        scale = (2.0 * np.pi / abs(lv)) ** sd.n
        ms = sd.modal[j]
        if sd.n == 1:
            val = ms.field(np.asarray(z[0] + 1j * w[0]), np.asarray(z[0] - 1j * w[0]))
        else:
            zc = np.asarray(z + 1j * w)[None, :]
            zm = np.asarray(z - 1j * w)[None, :]
            val = ms.field(zc, zm)[0]
        total += sd.wmu[j] * scale * complex(val) * np.exp(-1j * lv * zeta)
    return total


def invert_grid(sd: SpectralData, tgrid: np.ndarray) -> GridFunction:
    """Synthesize the real-grid samples from the modal coefficients."""
    # sum_k projections[j][k] = (2 pi/|lambda_j|)^n slices[j]
    proj_sum = np.stack([(2.0 * np.pi / abs(lv)) ** sd.n * sl
                         for sl, lv in zip(sd.slices, sd.lam)])          # [J, ...grid]
    phases = np.exp(-1j * np.outer(sd.lam, tgrid)) * sd.wmu[:, None]    # [J, nt]
    samples = np.tensordot(proj_sum, phases, axes=([0], [0]))
    return GridFunction(sd.n, sd.xgrid, sd.ugrid, tgrid, samples, schwartz=True)


# ---------------------------------------------------------------------------
# band-limited synthesis
# ---------------------------------------------------------------------------

def _tune_grid(spec: QuadratureSpec, A: float, B: float, kmax: int) -> QuadratureSpec:
    """Retune lambda spacing and box extent so the admissible fan realizes B.

    Scans nodes_per_A and the box half-extent (small-lambda cells need wider
    boxes); keeps the node count structure and everything else fixed.
    """
    best = None
    for lx in (spec.lx, 12.0, 13.0, 14.0, 15.0):
        trial_box = QuadratureSpec(**{**spec.__dict__, "lx": lx})
        for npa in range(8, 17):
            trial = QuadratureSpec(**{**trial_box.__dict__, "nodes_per_A": npa})
            lam, _, _ = trial.lambda_grid(A)
            bstar = 0.0
            for lv in lam:
                if abs(lv) > A + 1e-12:
                    continue
                ktop = min(kmax, trial.max_radial_level(lv))
                for k in range(ktop + 1):
                    fan = (2 * k + spec.n) * abs(lv)
                    if fan <= B + 1e-12:
                        bstar = max(bstar, fan)
            if best is None or bstar > best[0] + 1e-9:
                best = (bstar, trial)
    return best[1]


def synth_bandlimited(A: float, B: float, seed: int,
                      spec: Optional[QuadratureSpec] = None,
                      tune_grid: bool = False,
                      spike: float = 16.0):
    """Seeded band-limited test fixture: returns (GridFunction, SpectralData).

    Coefficient masses m(k, lambda) >= 0 vanish outside |lambda| <= A,
    (2k+n)|lambda| <= B and outside the set of modes the grid resolves; the
    bulk is tapered to (2k+n)|lambda| <= 0.75 B, with heavy cells planted at
    |lambda| = A and at the largest admissible fan value (those extremes are
    what growth-based detection must see).  Fixture lambda nodes sit on the
    dual lattice of the t-window, so analysis round trips are exact.
    """
    if spec is None:
        spec = QuadratureSpec()
    if spec.n != 1:
        raise SpectralError("synth_bandlimited is implemented for n=1")
    kmax = spec.kmax
    if tune_grid:
        spec = _tune_grid(spec, A, B, kmax)
    lgrid = LambdaGrid.build(spec, A)
    if np.max(np.abs(lgrid.lam)) < A - 1e-12:
        raise SpectralError("A exceeds the lambda grid extent")
    rng = np.random.default_rng(seed)
    xg = fft_grid(spec.nx, spec.lx)

    # admissible cells and target masses
    masks = [None] * lgrid.lam.size
    for group in abs_lam_groups(lgrid.lam):
        mask = _mode_mask(spec, kmax, lgrid.lam[group[0]])
        for j in group:
            masks[j] = mask
    masses = np.zeros((kmax + 1, lgrid.lam.size))
    for j, lv in enumerate(lgrid.lam):
        for k in range(kmax + 1):
            fan = (2 * k + 1) * abs(lv)
            if abs(lv) > A + 1e-12 or fan > B + 1e-12 or not masks[j][k, 0]:
                continue
            if fan > 0.75 * B + 1e-12:
                continue
            masses[k, j] = np.exp(-1.5 * (abs(lv) / A - 0.6) ** 2 - 0.15 * k) * (
                0.3 + rng.random()
            )
    mean_mass = np.mean(masses[masses > 0]) if np.any(masses > 0) else 1.0
    # spike at |lambda| = A (k = 0)
    for sgn in (+1, -1):
        jA = int(np.argmin(np.abs(lgrid.lam - sgn * A)))
        if abs(abs(lgrid.lam[jA]) - A) < 1e-9 and masks[jA][0, 0]:
            masses[0, jA] += spike * mean_mass
    # spike at the largest admissible fan value
    best = None
    for j, lv in enumerate(lgrid.lam):
        if abs(lv) > A + 1e-12:
            continue
        for k in range(kmax + 1):
            fan = (2 * k + 1) * abs(lv)
            if fan <= B + 1e-12 and masks[j][k, 0]:
                if best is None or fan > best[0] + 1e-12:
                    best = (fan, k, j)
    if best is None:
        raise SpectralError("empty admissible (k, lambda) set")
    _, kB, jB = best
    masses[kB, jB] += spike * mean_mass
    jBm = int(np.argmin(np.abs(lgrid.lam + lgrid.lam[jB])))
    if masks[jBm][kB, 0]:
        masses[kB, jBm] += spike * mean_mass

    # coefficients per cell, scaled so norms2 equals the target mass
    modal = []
    for j, lv in enumerate(lgrid.lam):
        coef = np.zeros((kmax + 1, spec.beta_cap + 1), dtype=complex)
        scale = 2.0 * np.pi / abs(lv)
        for k in range(kmax + 1):
            if masses[k, j] <= 0:
                continue
            amax = int(np.sum(masks[j][k])) - 1
            raw = (rng.standard_normal(amax + 1) + 1j * rng.standard_normal(amax + 1)) * np.exp(
                -np.arange(amax + 1) / 6.0
            )
            raw *= np.sqrt(masses[k, j] / (scale * np.sum(np.abs(raw) ** 2)))
            coef[k, : amax + 1] = raw
        modal.append(ModalSlice(lv, coef))

    tgrid = fft_grid(spec.nt, lgrid.t_half_window)
    sdata = SpectralData(
        n=1, lgrid=lgrid, kmax=kmax, xgrid=xg, ugrid=xg,
        norms2=np.stack([ms.proj_norms2() for ms in modal], axis=1), modal=modal,
        tail=np.zeros(lgrid.lam.size),
        requested_band=BandLimit(A, B),
    )
    sdata.band = sdata.achieved_band()
    f = invert_grid(sdata, tgrid)
    return f, sdata
