"""Heat kernels, the heat-kernel transform image, and the spectral-side
exponential-type bounds.

The multiplier picture: convolving with the full heat kernel q_t multiplies
the (k, lambda) projection by e^{-t lambda^2} e^{-(2k+n)|lambda| t}.  Pairing
the Bessel-shifted orbital integral with a Gaussian reproduces exactly the
inverse multipliers (the Gaussian-Bessel identity), which is why the image
norm is t-independent.  Spectral data (a spectral.SpectralData) is read
through its tables and modal coefficients only: no transform code loads.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from math import comb, factorial, gamma, pi
from typing import Optional

import numpy as np

from .grids import SpectralError, gauss_legendre_on
from .growth import _exp, _log_spectral_sum, _tail_test, fit_growth
from .specfun import jhat_imag, laguerre_phi


class HeatError(SpectralError):
    pass


def twisted_heat_prefactor(n: int) -> float:
    """(4 pi)^{-n}, the prefactor of the twisted heat kernel p_t^lambda: the
    constant that makes phi_k^lambda *_lambda p_t^lambda =
    e^{-(2k+n)|lambda| t} phi_k^lambda (the approximate-identity
    normalization)."""
    return (4.0 * pi) ** (-n)


def heat_image_c(n: int) -> float:
    """heat_image_norm / ||f||_2^2 = j_{n-1}(0) = 1/(2^{n-1} (n-1)!), since
    the shift operator uses the raw (unnormalized) Bessel function."""
    return 1.0 / (2.0 ** (n - 1) * factorial(n - 1))


def gauss_bessel_check(k: int, lam: float, t: float, n: int = 1) -> float:
    """Relative error of the Gaussian-Bessel identity

        integral p_{t/2}(y,v,eta) e^{2 lambda eta}
                 jhat_{n-1}(2 sqrt((2k+n)|lambda|) r) dy dv deta
          = e^{2 t lambda^2} e^{2 (2k+n)|lambda| t},

    jhat the origin-normalized Bessel factor and r = |(y,v)|.  Both factor
    integrals are evaluated by 800-node Gauss-Legendre quadrature."""
    if t <= 0:
        raise HeatError("heat time must be positive")
    a = np.sqrt((2 * k + n) * abs(lam))
    # radial (y, v) integral over R^{2n}: integrand peaks at r ~ 2 a t with
    # Gaussian width sqrt(t), so the domain scales with both
    surf = 2.0 * np.pi ** n / gamma(n)
    rmax = 2.0 * a * t + 14.0 * np.sqrt(t)
    r, wr = gauss_legendre_on(0.0, rmax, 800)
    dens = (2.0 * np.pi * t) ** (-n) * np.exp(-r * r / (2.0 * t))
    rad = float(np.sum(dens * jhat_imag(n - 1, 2.0 * a * r) * r ** (2 * n - 1) * wr) * surf)
    if not np.isfinite(rad):
        raise HeatError("radial quadrature diverged; enlarge domain guard")
    # eta integral, centered on its peak 2 lambda t
    ec = 2.0 * lam * t
    ew = 14.0 * np.sqrt(t)
    e, we = gauss_legendre_on(ec - ew, ec + ew, 800)
    etai = float(np.sum((2.0 * np.pi * t) ** -0.5 * np.exp(-e * e / (2.0 * t))
                        * np.exp(2.0 * lam * e) * we))
    val = rad * etai
    tgt = np.exp(2.0 * t * lam * lam + 2.0 * (2 * k + n) * abs(lam) * t)
    return float(abs(val - tgt) / tgt)


def heat_apply(sd, t: float):
    """Heat semigroup on the spectral side: each (k, lambda) projection, and
    so each modal coefficient at level k = |beta|, is multiplied by
    e^{-t lambda^2} e^{-(2k+n)|lambda| t}."""
    if t < 0:
        raise HeatError("heat time must be non-negative")
    if t == 0:
        return sd
    mult = np.exp(-t * sd.lam[None, :] ** 2 - sd.fan * t)
    modal = [copy.copy(ms) for ms in sd.modal]      # each keeps its class
    for ms, lv in zip(modal, sd.lam):
        ms.coef = ms.coef * np.exp(-t * lv ** 2 - (2 * ms.levels() + sd.n) * abs(lv) * t)
    return replace(sd, modal=modal, norms2=sd.norms2 * mult ** 2)


def heat_image_norm(sd_heated, t: float) -> float:
    """integral D O_{|F|^2}(iy,iv,i eta) p_{t/2}(y,v,eta) dy dv deta for
    F = f * q_t, evaluated term by term through the Gaussian-Bessel closed
    form.  Equals heat_image_c(n) * ||f||_2^2 independently of t."""
    if t <= 0:
        raise HeatError("heat time must be positive")
    expo = 2.0 * t * sd_heated.lam[None, :] ** 2 + 2.0 * sd_heated.fan * t
    # an empty cell contributes 0; its exponent may overflow exp, and inf * 0 is nan
    gain = np.exp(np.where(sd_heated.norms2 == 0, 0.0, expo))
    return float(heat_image_c(sd_heated.n)
                 * np.sum(sd_heated.wmu[None, :] * sd_heated.norms2 * gain))


def twisted_heat_kernel(lam: float, t: float, rho, n: int = 1) -> complex:
    """Twisted (special Hermite) heat kernel at generalized squared radius rho:

        p_t^lam = (4 pi)^{-n} (lam/sinh(lam t))^n e^{-(lam/4) coth(lam t) rho}

    rho = z^2 + w^2 read as the generalized squared radius (|x|^2+|u|^2 at
    real points, negative at purely imaginary ones).  lam -> 0 is the
    series limit (Euclidean heat kernel)."""
    if t <= 0:
        raise HeatError("heat time must be positive")
    c = twisted_heat_prefactor(n)
    x = lam * t
    if abs(x) < 1e-8:
        amp = (1.0 / t) * (1.0 - x * x / 6.0)
        decay = 1.0 / (4.0 * t) + lam * lam * t / 12.0
    else:
        sh = np.sinh(x)
        if abs(sh) < 1e-300:
            raise HeatError("lambda*t at a pole of coth")
        amp = lam / sh
        decay = (lam / 4.0) * (np.cosh(x) / sh)
    rho = np.asarray(rho, dtype=complex) if np.iscomplexobj(np.asarray(rho)) else np.asarray(rho, dtype=float)
    out = c * amp ** n * np.exp(-decay * rho)
    if out.ndim == 0:
        return out.item()
    return out


def lemma63_check(k: int, lam: float, t: float, n: int = 1) -> float:
    """Relative error of

        integral phi_k^lam(iy, iv) p_t^lam(y, v) dy dv
          = binom(k+n-1, k) * e^{(2k+n)|lam| t}

    over R^{2n} (600-node radial Gauss-Legendre x exact sphere factor)."""
    if t <= 0:
        raise HeatError("heat time must be positive")
    if lam == 0:
        raise HeatError("zero central parameter: the kernel does not decay")
    al = abs(lam)
    x = al * t
    coth = np.cosh(x) / np.sinh(x)
    width = al * (coth - 1.0) / 4.0
    if width <= 0:
        raise HeatError("kernel does not decay; check parameters")
    rmax = np.sqrt((60.0 + 8.0 * k) / width)
    r, wr = gauss_legendre_on(0.0, rmax, 600)
    surf = 2.0 * np.pi ** n / gamma(n)
    phi = np.real(laguerre_phi(k, n - 1, -(r * r), lam))
    dens = np.real(twisted_heat_kernel(lam, t, r * r, n=n))
    val = float(np.sum(phi * dens * r ** (2 * n - 1) * wr) * surf)
    tgt = comb(k + n - 1, k) * np.exp((2 * k + n) * al * t)
    if not np.isfinite(val):
        raise HeatError("lemma 6.3 quadrature diverged; enlarge domain guard")
    return float(abs(val - tgt) / tgt)


# ---------------------------------------------------------------------------
# Exponential-type bounds for positive-lambda spectra
# ---------------------------------------------------------------------------

def _require_positive_lambda(sd):
    neg = sd.lam < 0
    if np.any(sd.norms2[:, neg] > 1e-12 * max(float(np.max(sd.norms2)), 1e-300)):
        raise HeatError("spectral data has mass at lambda < 0")


def thm35_forward(sd, alpha: float, beta: float,
                  t_grid=(1.0, 2.0, 4.0), points=((0.25,), (0.5,), (1.0,))) -> dict:
    """Spectral exponential-type bound for lambda > 0 band-limited data:

        S(t; y,v) = integral_0^alpha e^{2 t lambda^2}
                    sum_{(2k+n) lambda <= beta} norms2 * binom-weight
                    * phi_k^lambda(2iy,2iv) * p_{2t}^lambda(4y,4v) d mu

    must satisfy S <= C t^{-2n} e^{2 t B} with B = alpha^2 + beta.  Returns
    fitted log-in-t slopes per sample point and the bound margin."""
    _require_positive_lambda(sd)
    B = alpha * alpha + beta
    tg = np.asarray(t_grid, dtype=float)
    if np.any(tg <= 0):
        raise HeatError("heat time must be positive")
    pos = (sd.lam > 0) & (sd.lam <= alpha + 1e-12)
    cells = pos & (sd.fan <= beta + 1e-12)
    lam = sd.lam[pos]
    out_pts = []
    worst = -np.inf
    for (r,) in points:
        r2 = r * r
        logs = []
        for t in tg:
            # log of e^{2 t lambda^2} p_{2t}^lambda(4y, 4v): twisted_heat_kernel
            # at generalized squared radius 16 r^2, whose Gaussian factor
            # underflows in linear scale at large r; log sinh x = x +
            # log1p(-e^{-2x}) - log 2 stays finite where sinh overflows
            x = 2.0 * t * lam
            log_sinh = x + np.log1p(-np.exp(-2.0 * x)) - np.log(2.0)
            log_g = np.zeros(sd.lam.size)
            log_g[pos] = (2.0 * t * lam * lam + np.log(twisted_heat_prefactor(sd.n))
                          + sd.n * (np.log(lam) - log_sinh) - 4.0 * lam * r2 / np.tanh(x))
            logs.append(_log_spectral_sum(sd, r2, log_g, cells=cells))
        logs = np.asarray(logs)
        fit = fit_growth(tg, logs, "eta")
        sup = _exp(np.max(logs + 2 * sd.n * np.log(tg) - 2.0 * tg * B))
        out_pts.append({"r": r, "slope": fit.slope, "sup_scaled": sup,
                        "values": [_exp(v) for v in logs]})
        if np.isfinite(fit.slope):
            worst = max(worst, fit.slope)
    return {
        "B": B,
        "slope_bound": 2.0 * B,
        "max_slope": worst,
        "passes": worst <= 2.0 * B + 1e-9,
        "points": out_pts,
    }


def thm35_converse_tail(sd, B: float, C: Optional[float] = None) -> dict:
    """Tail criterion: for C > B,  e^{2tC} * (spectral mass above C)  must stay
    below a multiple of e^{2tB}; any surviving tail cell violates it.  Returns
    verdict 'supported' or 'violated' with the offending cells."""
    _require_positive_lambda(sd)
    rep = _tail_test(sd, B, C)
    if rep["C"] <= B:
        raise HeatError("tail test requires C > B")
    bounded = rep.pop("bounded")
    return {"verdict": "supported" if bounded else "violated", **rep}
