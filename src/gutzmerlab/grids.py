"""Grid and quadrature plumbing shared by the transform modules.

Conventions used throughout the package:

* 1-D sample grids are uniform symmetric in the FFT sense: N points
  x_m = (m - N/2) h on [-L, L), h = 2L/N.  Differences of grid points stay
  on the lattice (needed by the twisted-convolution quadrature) and the
  plain Riemann sum  sum f(x_m) h  is superalgebraic for smooth decaying
  integrands and exact for one period of trigonometric sums.

* The lambda grid is uniform with spacing  dl = A / nodes_per_A  and extends
  margin_nodes past |lambda| = A; nodes inside the central puncture
  |lambda| < LAM_MIN are dropped (the |lambda|^n Plancherel density
  suppresses their contribution).  The matching central window half-length
  is T = pi / dl, which makes e^{i lambda t} sums over the t-grid exactly
  orthogonal across lambda nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma, log

import numpy as np


# edge decay, relative to the peak magnitude, required of "Schwartz" grid data
# before a transform may treat the samples as zero past the grid
DECAY_TOL = 1e-3

LAM_MIN = 0.05      # lambda nodes with |lambda| < LAM_MIN are dropped (the central puncture)
FIT_FRAC = 0.95     # usable fraction of the grid extent and Nyquist band (mode-fit rule)


def fft_grid(n: int, half_extent: float) -> np.ndarray:
    """Uniform symmetric grid (m - n/2) h on [-half_extent, half_extent)."""
    h = 2.0 * half_extent / n
    return (np.arange(n) - n // 2) * h


def _legendre(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) by the three-term recurrence of the Legendre
    polynomials."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _leggauss(n: int):
    """Gauss-Legendre nodes (increasing) and weights on [-1, 1], read-only.

    Newton's method on P_n from Tricomi's estimates of its roots in [0, 1),
    until no step exceeds 1e-15; the roots in (-1, 0) are their mirror
    images.  The weights 2 / ((1 - x^2) P_n'(x)^2) are taken at the
    converged roots.  Only the recurrence runs, no eigensolve: numpy's
    leggauss goes through LAPACK, and its weights next to +-1 are off by up
    to 6e-10 relative at n = 400 (against 30-digit Newton), these by 1e-12.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    half = n // 2
    x[half:] = 0.0                      # the middle root of odd n
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    nodes = np.concatenate([-x[:half], x[half:], x[:half][::-1]])
    weights = np.concatenate([w[:half], w[half:], w[:half][::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_on(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights transplanted to [a, b]."""
    x, w = _leggauss(n)
    return (x + 1.0) * (b - a) / 2.0 + a, w * (b - a) / 2.0


_tail_cache: dict = {}

# highest projection level max_radial_level tests
RADIAL_LEVEL_CAP = 400


@lru_cache(maxsize=4)
def _log_factorials(count: int) -> np.ndarray:
    """log i! for i = 0..count-1 (read-only)."""
    out = np.array([lgamma(i + 1.0) for i in range(count)])
    out.flags.writeable = False
    return out


def _poisson_tail(dmax: int, S: float) -> np.ndarray:
    """Q(d+1, S) = e^{-S} sum_{i <= d} S^i / i!  for d = 0..dmax.

    The tail mass of the m = 0 Laguerre functions, s^d e^{-s} / d! outside
    [0, S]: one running log-sum-exp (np.logaddexp.accumulate) of the log
    terms i log S - log i! - S, so entry d does not depend on dmax.
    """
    if S <= 0.0:
        return np.ones(dmax + 1)
    log_fact = _log_factorials(max(dmax, RADIAL_LEVEL_CAP) + 1)[: dmax + 1]
    log_terms = np.arange(dmax + 1) * log(S) - log_fact - S
    return np.exp(np.logaddexp.accumulate(log_terms))


def laguerre_tail_mass(m: int, d: int, S: float) -> float:
    """Mass of the orthonormal Laguerre function ell_m^d outside [0, S]:

        integral_S^inf  (m!/(m+d)!) L_m^d(s)^2 s^d e^{-s} ds  in [0, 1].

    This is the radial mass of a special Hermite mode with indices
    (min, min+d) beyond generalized radius s = |lam| r^2 / 2 = S; the
    mode-fit rule compares it against fit_tol.  At m = 0 it is the Poisson
    tail Q(d+1, S) of _poisson_tail, in closed form; at m >= 1 a quadrature
    (_tail_quadrature).  Cached under S rounded to 6 decimals, and evaluated
    at that rounded S, so no call order matters.
    """
    S = round(float(S), 6)
    key = (m, d, S)
    if key not in _tail_cache:
        _tail_cache[key] = float(_poisson_tail(d, S)[d]) if m == 0 else _tail_quadrature(m, d, S)
    return _tail_cache[key]


def _tail_quadrature(m: int, d: int, S: float) -> float:
    """laguerre_tail_mass by a 400-node Gauss-Legendre rule on [S, S + 60 + ...],
    m >= 1."""
    tp = 4.0 * m + 2.0 * d + 2.0
    hi = max(tp, S) + 60.0 + 10.0 * np.sqrt(tp)
    s, w = gauss_legendre_on(S, hi, 400)
    # orthonormal recurrence on ell_m(s) = sqrt(m!/(m+d)!) L_m^d(s) s^{d/2} e^{-s/2}
    log0 = 0.5 * (d * np.log(np.maximum(s, 1e-300)) - lgamma(d + 1)) - 0.5 * s
    l0 = np.exp(np.maximum(log0, -700.0))
    l0[log0 < -700.0] = 0.0
    l1 = (d + 1.0 - s) * l0 / np.sqrt(d + 1.0)
    lm1, lm = l0, l1
    for j in range(1, m):
        lp = ((2.0 * j + d + 1.0 - s) * lm - np.sqrt(j * (j + d)) * lm1) / np.sqrt(
            (j + 1.0) * (j + 1.0 + d)
        )
        lm1, lm = lm, lp
    return float(np.sum(lm * lm * w))


@dataclass
class QuadratureSpec:
    """Resolution knobs for every discretised transform and sum.

    The defaults target n=1 desk scale: 48^2 spatial grid, 96 central nodes,
    33-node lambda grid (node count 2*(nodes_per_A+margin_nodes)+1 before the
    central puncture removes |lambda| < LAM_MIN).
    """

    n: int = 1
    nx: int = 48
    lx: float = 11.0
    nt: int = 96
    nodes_per_A: int = 13
    margin_nodes: int = 3
    kmax: int = 16
    beta_cap: int = 64          # free-index cap (4 * kmax) in Hermite-Laguerre expansions
    fit_tol: float = 1e-9      # admissible mode tail mass outside the usable box

    @property
    def hx(self) -> float:
        return 2.0 * self.lx / self.nx

    def lambda_grid(self, A: float):
        """(lambda nodes, spacing dl, d-mu weights) for band radius A.

        dl = A/nodes_per_A puts lambda = +-A exactly on the grid.  Weights
        carry d mu(lambda) = (2 pi)^{-n-1} |lambda|^n dl.
        """
        if A <= 0:
            raise ValueError("band radius A must be positive")
        dl = A / self.nodes_per_A
        jmax = self.nodes_per_A + self.margin_nodes
        lam = np.arange(-jmax, jmax + 1) * dl
        lam = lam[np.abs(lam) >= LAM_MIN - 1e-12]
        wmu = (2.0 * np.pi) ** (-self.n - 1) * np.abs(lam) ** self.n * dl
        return lam, dl, wmu

    # ---- mode-fit rules -------------------------------------------------
    def _fit_radii(self, lam: float):
        """Generalized-radius cutoffs (spatial, momentum) at scale lam.

        Spatial: s = |lam| r^2/2 at r = FIT_FRAC * lx (inscribed circle of
        the box).  Momentum: the ordinary Fourier transform of a special
        Hermite mode is again one at dual scale, radius omega = (|lam|/2) r,
        so the cutoff at FIT_FRAC of the Nyquist band is s = 2 omega^2/|lam|.
        """
        al = abs(lam)
        s_space = al * (FIT_FRAC * self.lx) ** 2 / 2.0
        s_mom = 2.0 * (FIT_FRAC * np.pi / self.hx) ** 2 / al
        return s_space, s_mom

    def pair_fits(self, a: int, k: int, lam: float) -> bool:
        """Does the grid resolve the special Hermite mode with indices (a, k)?

        The mode's radial profile is the orthonormal Laguerre function with
        (m, d) = (min(a,k), |a-k|); both its spatial and momentum tail masses
        must stay below fit_tol.  Per-index turning-point tests are *wrong*
        here: diagonal modes (a = k) are radially sqrt(2) wider.
        """
        s_space, s_mom = self._fit_radii(lam)
        m, d = min(a, k), abs(a - k)
        return (laguerre_tail_mass(m, d, s_space) <= self.fit_tol
                and laguerre_tail_mass(m, d, s_mom) <= self.fit_tol)

    def max_radial_level(self, lam: float) -> int:
        """Largest k admitting any mode (a = 0 column): the populable level.

        The column's modes (0, k) fit when pair_fits says so, that is when
        the Poisson tails Q(k+1, S) at both fit radii stay below fit_tol.
        Reads k = 0..RADIAL_LEVEL_CAP in one vector operation per radius and
        returns the last k before the first misfit (-1 if k = 0 misfits).
        """
        fits = np.ones(RADIAL_LEVEL_CAP + 1, dtype=bool)
        for S in self._fit_radii(lam):
            fits &= _poisson_tail(RADIAL_LEVEL_CAP, round(float(S), 6)) <= self.fit_tol
        return RADIAL_LEVEL_CAP if fits.all() else int(np.argmin(fits)) - 1

    def acap_for_k(self, k: int, lam: float, cap: int) -> int:
        """Largest admissible free index a <= cap for projection level k."""
        a = -1
        while a < cap and self.pair_fits(a + 1, k, lam):
            a += 1
        return a
