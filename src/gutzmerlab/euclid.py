"""The flat model: Euclidean Fourier transform on R^n, motion-group orbital
integrals, the Bessel-kernel Gutzmer identity, and the growth estimate.

Fourier convention (pinned):  fhat(xi) = integral f(x) e^{-i xi.x} dx, so the
Gaussian e^{-|x|^2/2} maps to (2 pi)^{n/2} e^{-|xi|^2/2}.

Band-limited fixtures are trigonometric sums over the FFT lattice of the
sample box (spacing pi/L); box integrals of such sums are exact by discrete
orthogonality, and their spectral atoms are recovered exactly by the DFT.
The Gutzmer right side groups atoms into rings of constant |xi|, against the
normalized spherical kernel phi_lambda(2iy) (an I_0 profile for n = 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import fft_grid as _fft_grid
from .growth import _log_values, fit_growth
from .specfun import jhat_imag


class FlatError(ValueError):
    pass


@dataclass
class FlatFunction:
    """Complex samples on a uniform R^n grid (n >= 2), FFT convention."""

    n: int
    grid: np.ndarray
    samples: np.ndarray
    schwartz: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise FlatError("flat model needs n >= 2 (a sphere in the formula)")
        if self.samples.shape != (self.grid.size,) * self.n:
            raise FlatError("sample shape does not match grid")

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def half_extent(self) -> float:
        return float(-self.grid[0])

    @property
    def box_volume(self) -> float:
        return (self.grid.size * self.h) ** self.n

    def squared_norm(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.h ** self.n)


def flat_synth_bandlimited(a: float, seed: int) -> FlatFunction:
    """Seeded n = 2 fixture, 128^2 samples of [-16, 16)^2, with lattice
    spectrum inside |xi| <= a.

    The outermost populated ring sits at the largest lattice magnitude <= a
    (the achieved band limit; read it back with flat_band_limit), carrying
    4x boosted mass so growth fits see it cleanly, and 24 inner points."""
    nx, lx = 128, 16.0
    rng = np.random.default_rng(seed)
    dxi = np.pi / lx
    mmax = int(np.floor(a / dxi)) + 1
    best = None
    cands = []
    for m1 in range(-mmax, mmax + 1):
        for m2 in range(-mmax, mmax + 1):
            rho = np.hypot(m1, m2) * dxi
            if 0 < rho <= a + 1e-12:
                cands.append((rho, (m1, m2)))
                if best is None or rho > best + 1e-15:
                    best = rho
    if best is None:
        raise FlatError("band radius below the lattice spacing; enlarge the box")
    ring = [mv for rho, mv in cands if abs(rho - best) < 1e-12 * max(best, 1.0)]
    inner = [mv for rho, mv in cands if rho <= 0.75 * best]
    rng.shuffle(inner)
    chosen = {}
    for mv in ring:
        chosen[mv] = 4.0 * (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
    for mv in inner[:24]:
        if mv not in chosen:
            chosen[mv] = (0.3 + rng.random()) * np.exp(2j * np.pi * rng.random())
    grid = _fft_grid(nx, lx)
    X1, X2 = np.meshgrid(grid, grid, indexing="ij")
    samples = np.zeros((nx, nx), dtype=complex)
    for (m1, m2), amp in sorted(chosen.items()):
        samples += amp * np.exp(1j * dxi * (m1 * X1 + m2 * X2))
    return FlatFunction(2, grid, samples, schwartz=True)


def flat_band_limit(f: FlatFunction) -> float:
    """Largest |xi| carried by the fixture's lattice spectrum."""
    freqs, amps = flat_dft_modes(f)
    mags = np.linalg.norm(freqs, axis=1)
    return float(np.max(mags[np.abs(amps) > 1e-9 * np.max(np.abs(amps))]))


def flat_dft_modes(f: FlatFunction):
    """Exact lattice spectrum (frequencies [M, n], amplitudes [M]) by DFT."""
    N = f.grid.size
    F = np.fft.fftn(f.samples) / N ** f.n
    m = np.fft.fftfreq(N, d=1.0 / N)  # signed integer indices
    # grid x_j = (j - N/2) h  ->  phase correction (-1)^{sum m}
    corr = (-1.0) ** sum(np.ix_(*[m.astype(int)] * f.n))
    amps = (F * corr).reshape(-1)
    dxi = np.pi / f.half_extent
    idx = np.stack(np.meshgrid(*([m] * f.n), indexing="ij"), axis=-1).reshape(-1, f.n)
    keep = np.abs(amps) > 1e-12 * max(float(np.max(np.abs(amps))), 1e-300)
    return idx[keep] * dxi, amps[keep]


def flat_fourier(f: FlatFunction, n_lam: int = 64, lam_max: Optional[float] = None,
                 n_angles: int = 64):
    """fhat resampled to a polar grid: (lam nodes, angles, values[nlam, nang]).

    Direct tensor-quadrature transform at each polar node (n = 2).  An
    aliasing guard rejects frequencies past the usable band of the grid."""
    if f.n != 2:
        raise FlatError("polar resampling implemented for n = 2")
    if not f.schwartz:
        raise FlatError("flat_fourier needs decay-flagged data")
    nyq = np.pi / f.h
    if lam_max is None:
        lam_max = 0.85 * nyq
    if lam_max > 0.9 * nyq:
        raise FlatError("requested band exceeds the alias-safe region")
    lam = np.linspace(0.0, lam_max, n_lam)
    ang = 2.0 * np.pi * np.arange(n_angles) / n_angles
    X1, X2 = np.meshgrid(f.grid, f.grid, indexing="ij")
    pts = np.stack([X1.reshape(-1), X2.reshape(-1)])
    xi1 = np.outer(lam, np.cos(ang)).reshape(-1)
    xi2 = np.outer(lam, np.sin(ang)).reshape(-1)
    phases = np.exp(-1j * (np.outer(xi1, pts[0]) + np.outer(xi2, pts[1])))
    vals = phases @ f.samples.reshape(-1) * f.h ** 2
    return lam, ang, vals.reshape(n_lam, n_angles)


def _flat_power(f: FlatFunction):
    """Lattice frequencies [M, n] and their powers box_volume * |amplitude|^2."""
    freqs, amps = flat_dft_modes(f)
    return freqs, f.box_volume * np.abs(amps) ** 2


def _orbital_mean(freqs, power, y) -> float:
    """Motion-group orbital integral at offset y from the lattice power:
    sum power e^{-2 xi . R y}, averaged over 64 uniform rotations R."""
    n_ang = 64
    th = 2.0 * np.pi * np.arange(n_ang) / n_ang
    lhs = 0.0
    for t in th:
        R = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        ry = R @ y
        lhs += float(np.sum(power * np.exp(-2.0 * freqs @ ry)))
    return lhs / n_ang


def flat_gutzmer(f: FlatFunction, y):
    """(lhs, rhs, relative error) of the flat Gutzmer identity at offset y.

    lhs: orbital integral over the motion group; translations are integrated
    exactly by Plancherel in the translated variable, rotations by uniform
    angle quadrature.  rhs: ring sums of the measured spectrum against
    phi_lambda(2iy), with the overall constant pinned by the y = 0 case."""
    if f.n != 2:
        raise FlatError("flat_gutzmer implemented for n = 2")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != 2:
        raise FlatError("offset y must be a 2-vector")
    freqs, power = _flat_power(f)
    if power.size == 0 or np.sum(power) == 0.0:
        return 0.0, 0.0, 0.0
    lhs = _orbital_mean(freqs, power, y)

    mags = np.linalg.norm(freqs, axis=1)
    rings = {}
    for mag, pw in zip(mags, power):
        key = round(mag, 9)
        rings[key] = rings.get(key, 0.0) + pw
    rr = float(np.linalg.norm(y))
    # rotation average over SO(2): jhat_0(i s) = I_0(s), nu = n/2 - 1 = 0
    rhs_raw = sum(pw * jhat_imag(0.0, 2.0 * mag * rr) for mag, pw in rings.items())
    rhs_raw0 = sum(pw for pw in rings.values())
    lhs0 = float(np.sum(power))
    rhs = (lhs0 / rhs_raw0) * rhs_raw
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    return float(lhs), float(rhs), float(rel)


def flat_pw_check(f: FlatFunction, a: Optional[float] = None):
    """Growth fit of the orbital integral along an imaginary ray.

    Fits log lhs(|y|) (Bessel envelope removed) on the tail half of 13
    points, |y| <= 3, then of 13 points |y| <= 6 / a_hat; returns (GrowthFit,
    a_hat = slope/2, verdict).  With a given, the slope is also checked
    against 2a + 5%.  Degenerate data is flagged inconclusive.  The spectrum
    is computed once; each ray point is flat_gutzmer's left side."""
    freqs, power = _flat_power(f)

    def logs(ys):
        return _log_values([_orbital_mean(freqs, power, np.array([yy, 0.0])) for yy in ys])

    ys = np.linspace(0.0, 3.0, 13)
    fit = fit_growth(ys, logs(ys), "radial")
    if not np.isfinite(fit.slope) or fit.slope <= 0:
        return fit, np.nan, "inconclusive"
    ys = np.linspace(0.0, 6.0 / max(fit.slope / 2.0, 1e-9), 13)
    fit = fit_growth(ys, logs(ys), "radial")
    if not np.isfinite(fit.slope):
        return fit, np.nan, "inconclusive"
    a_hat = fit.slope / 2.0
    verdict = "ok"
    if fit.residual > 0.1:
        verdict = "inconclusive"
    elif a is not None and fit.slope > 2.0 * a * 1.05:
        verdict = "slope-exceeds-band"
    return fit, float(a_hat), verdict
