"""Growth fits, log-space spectral sums and the spectral tail test, shared
by complexification, heatlab and euclid.  The spectral functions read only
the tables of a spectral.SpectralData (lam, wmu, norms2, fan), never a
field, so this module loads numpy and specfun alone.

The spectral sums are formed in log space over the populated (k, lambda)
cells and reduced by a log-sum-exp, so growth rays of any length are fitted
on logs that never leave the float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .specfun import binom_weight, laguerre_all, log_bessel_j_imag, log_sum_exp


@dataclass
class GrowthFit:
    """Least-squares exponential-growth fit along one ray.

    samples hold (parameter, log value); slope/intercept fit the tail half,
    residual is the max absolute deviation of the fit there.  Radial fits
    remove the known Bessel envelope 1/sqrt(r) before fitting.
    """

    ray: str                   # "eta" | "radial"
    samples: list
    slope: float
    intercept: float
    residual: float


def _log_spectral_sum(sd, r2: float, log_g: np.ndarray,
                      bessel: bool = False, cells: Optional[np.ndarray] = None) -> float:
    """log of sum_{k,j} dmu_j norms2[k, j] g_j K(k, lambda_j, r) over the
    populated cells (those of `cells` too, when given), log g_j = log_g[j].

    K is the Laguerre factor [k!(n-1)!/(k+n-1)!] phi_k^lambda(2iy, 2iv)
    = L_k^{n-1}(-2|lambda| r^2) e^{|lambda| r^2} / binom(k+n-1, k), from one
    laguerre_all table over the lambda grid; with `bessel`, the shift
    operator's j_{n-1}(2i sqrt((2k+n)|lambda|) r).  Both are positive, so
    every factor enters as a log and a log-sum-exp reduces the cells: -inf
    when no cell is populated.
    """
    live = sd.norms2 > 0.0
    if cells is not None:
        live &= cells
    ks, js = np.nonzero(live)
    if ks.size == 0:
        return -np.inf
    if bessel:
        log_k = log_bessel_j_imag(sd.n - 1, 2.0 * np.sqrt(sd.fan[ks, js] * r2))
    else:
        al = np.abs(sd.lam)
        table = laguerre_all(sd.kmax, sd.n - 1, -2.0 * al * r2)
        log_w = np.log([binom_weight(k, sd.n) for k in range(sd.kmax + 1)])
        log_k = np.log(table[ks, js]) + al[js] * r2 + log_w[ks]
    terms = np.log(sd.wmu[js]) + np.log(sd.norms2[ks, js]) + log_g[js] + log_k
    return float(log_sum_exp(terms))


def _exp(log_value: float) -> float:
    """e^log_value, inf past the float range."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_value))


def _log_values(values) -> np.ndarray:
    """log of sampled values: -inf at 0 and nan below, without warnings."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(np.asarray(values, dtype=float))


def fit_growth(params: np.ndarray, logs: np.ndarray, ray: str) -> GrowthFit:
    """Tail-half least squares of log values against the ray parameter.

    `logs` are the logs of the sampled values; a non-finite one (a value <= 0
    or nan) makes the fit degenerate.  Radial rays first remove the
    normalized-Bessel envelope 1/sqrt(r) (the asymptotic prefactor of
    j_{n-1}(2iar)), so the fitted slope is the pure exponential rate.
    """
    params = np.asarray(params, dtype=float)
    logs = np.asarray(logs, dtype=float)
    if not np.all(np.isfinite(logs)):
        return GrowthFit(ray, [], np.nan, np.nan, np.inf)
    samples = list(zip(params.tolist(), logs.tolist()))
    mid = (params[0] + params[-1]) / 2.0
    mask = params >= mid
    x = params[mask]
    yv = logs[mask]
    if ray == "radial":
        yv = yv + 0.5 * np.log(np.maximum(x, 1e-30))
    Acol = np.vstack([x, np.ones_like(x)]).T
    (slope, icpt), *_ = np.linalg.lstsq(Acol, yv, rcond=None)
    resid = float(np.max(np.abs(Acol @ np.array([slope, icpt]) - yv)))
    return GrowthFit(ray, samples, float(slope), float(icpt), resid)


def _tail_test(sd, B_hat: float, C: Optional[float] = None) -> dict:
    """Spectral tail boundedness: for C > B_hat (default 1.1 B_hat) the
    weighted tail mass

        e^{2tC} sum_{(2k+n)|lambda| > C} norms2 d mu

    stays below C' e^{2 t B_hat} for growing t only when the tail is empty;
    ratios reports it over e^{2 t B_hat} at t = 1, 2, 4, 8."""
    if C is None:
        C = 1.1 * B_hat + 1e-9
    fan = sd.fan
    sel = fan > C
    mass = float(np.sum(sd.norms2[sel] * np.broadcast_to(sd.wmu, sd.norms2.shape)[sel]))
    total = sd.total_mass()
    ratios = [mass * np.exp(2.0 * t * (C - B_hat)) / max(total, 1e-300)
              for t in (1.0, 2.0, 4.0, 8.0)]
    bounded = mass <= 1e-10 * max(total, 1e-300)
    cells = []
    if not bounded:
        ks, js = np.nonzero(sel & (sd.norms2 > 1e-12 * np.max(sd.norms2)))
        cells = [
            {"k": int(k), "lambda": float(sd.lam[j]), "fan": float(fan[k, j])}
            for k, j in zip(ks, js)
        ]
    return {"C": C, "tail_mass": mass, "ratios": ratios, "bounded": bounded,
            "offending_cells": cells}
