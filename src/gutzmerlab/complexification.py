"""Orbital integrals over the Heisenberg motion group, the Gutzmer identity,
the Bessel shift operator, and growth-based band-limit detection.

At purely imaginary points p = (iy, iv, i eta) the orbital integral of |F|^2
over the motion group equals the spectral sum

    integral e^{2 lambda eta} sum_k norms2(k, lambda) [k!(n-1)!/(k+n-1)!]
             phi_k^lambda(2iy, 2iv) d mu(lambda),

and replacing phi_k^lambda(2iy,2iv) by j_{n-1}(2i sqrt((2k+n)|lambda|) r)
(r = |(y,v)|) realizes the shift operator: growth becomes pure exponential
type  e^{2A|eta|} e^{2 sqrt(B) r},  whose ray slopes recover the band limits.

Both sums are formed in log space over the populated (k, lambda) cells and
reduced by a log-sum-exp, so growth rays of any length are fitted on logs
that never leave the float range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .grids import QuadratureSpec
from .heisenberg_core import ComplexPoint
from .hermite_modes import abs_lam_groups, slice_fields
from .spectral import BandLimit, SpectralData, SpectralError
from .specfun import binom_weight, laguerre_all, log_bessel_j_imag, log_sum_exp


class OrbitalError(SpectralError):
    pass


@dataclass(frozen=True)
class OrbitalSample:
    """One orbital-integral evaluation at a purely imaginary point."""

    point: ComplexPoint
    value: float
    method: str  # "direct" | "spectral"

    def __post_init__(self):
        if self.method not in ("direct", "spectral"):
            raise OrbitalError("method must be 'direct' or 'spectral'")
        if self.value < 0:
            raise OrbitalError("orbital integrand |F|^2 cannot integrate negative")


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


@dataclass
class RayPlan:
    """Sampling plan for growth rays (defaults: eta 0..6 by .5, r 0..3 by .25)."""

    etas: np.ndarray = field(default_factory=lambda: np.arange(0.0, 6.01, 0.5))
    rs: np.ndarray = field(default_factory=lambda: np.arange(0.0, 3.01, 0.25))
    residual_threshold: float = 0.1

    def scaled(self, a_scale: float, b_scale: float) -> "RayPlan":
        """Rescale rays so the dimensionless products A*eta, sqrt(B)*r reach
        what this plan's rays reach at the calibration A=1, B=9."""
        return RayPlan(
            etas=np.linspace(0.0, self.etas[-1] / max(a_scale, 1e-9), len(self.etas)),
            rs=np.linspace(0.0, 3.0 * self.rs[-1] / max(np.sqrt(b_scale), 1e-9), len(self.rs)),
            residual_threshold=self.residual_threshold,
        )


def _require_purely_imaginary(p: ComplexPoint):
    if not p.is_purely_imaginary:
        raise OrbitalError("evaluation point must be purely imaginary (x = u = xi = 0)")


# ---------------------------------------------------------------------------
# spectral-side sums
# ---------------------------------------------------------------------------

def _log_spectral_sum(sd: SpectralData, r2: float, log_g: np.ndarray,
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
    al = np.abs(sd.lam)
    if bessel:
        log_k = log_bessel_j_imag(sd.n - 1, 2.0 * np.sqrt((2 * ks + sd.n) * al[js] * r2))
    else:
        table = laguerre_all(sd.kmax, sd.n - 1, -2.0 * al * r2)
        log_w = np.log([binom_weight(k, sd.n) for k in range(sd.kmax + 1)])
        log_k = np.log(table[ks, js]) + al[js] * r2 + log_w[ks]
    terms = np.log(sd.wmu[js]) + np.log(sd.norms2[ks, js]) + log_g[js] + log_k
    return float(log_sum_exp(terms))


def _exp(log_value: float) -> float:
    """e^log_value, inf past the float range."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_value))


def _radius2(p: ComplexPoint) -> float:
    _require_purely_imaginary(p)
    return float(np.sum(p.zi ** 2) + np.sum(p.wi ** 2))


def gutzmer_spectral(sd: SpectralData, p: ComplexPoint) -> float:
    """Spectral side of the Gutzmer identity at a purely imaginary point
    (inf past the float range)."""
    return _exp(_log_spectral_sum(sd, _radius2(p), 2.0 * sd.lam * p.zeta_i))


def apply_D(sd: SpectralData, p: ComplexPoint) -> float:
    """Bessel-shifted orbital integral D O_{|F|^2}(iy, iv, i eta).

    Same weighted sum as gutzmer_spectral with each Laguerre factor
    [k!(n-1)!/(k+n-1)!] phi_k^lambda(2iy,2iv) replaced by
    j_{n-1}(2i sqrt((2k+n)|lambda|) r); inf past the float range.
    """
    return _exp(_log_spectral_sum(sd, _radius2(p), 2.0 * sd.lam * p.zeta_i, bessel=True))


# ---------------------------------------------------------------------------
# direct orbital integral (n = 1)
# ---------------------------------------------------------------------------

def orbital_direct(sd: SpectralData, p: ComplexPoint,
                   spec: Optional[QuadratureSpec] = None) -> float:
    """integral over G_1 of |F(g.(iy,iv,i eta))|^2 by tensor quadrature.

    theta: uniform nodes (exact for the slice's finite trigonometric content
    in the rotation angle); (x',u'): the padded sample grid; t': one period
    of the fixture's lambda-comb, summed in closed form by Parseval (the
    integrand is trigonometric in t', so the period sum is the integral).
    F is evaluated through the entire extension of each slice at the rotated
    imaginary displacement.
    """
    if sd.n != 1:
        raise OrbitalError("direct orbital integrals are implemented for n=1 only")
    _require_purely_imaginary(p)
    if spec is None:
        spec = QuadratureSpec(nx=sd.xgrid.size, lx=float(-sd.xgrid[0]))
    y = float(p.zi[0])
    v = float(p.wi[0])
    eta = p.zeta_i
    w0 = y + 1j * v

    # theta resolution: the integrand's rotation harmonics are differences of
    # the modes' U(1) weights (a - k), so max |harmonic| = acap + kmax
    acap = 0
    for ms in sd.modal:
        nz = np.nonzero(np.abs(ms.coef) > 0)[1]
        if nz.size:
            acap = max(acap, int(np.max(nz)))
    mtheta = acap + sd.kmax + 2

    npad = int(round(spec.pad_factor * sd.xgrid.size))
    hx = float(sd.xgrid[1] - sd.xgrid[0])
    xg = (np.arange(npad) - npad // 2) * hx
    Z = xg[:, None] + 1j * xg[None, :]
    X = np.real(Z)
    U = np.imag(Z)
    harea = hx * hx

    total = 0.0
    shell = 0.0
    edge = 2  # cells in the outer frame monitored for truncation
    frame = np.zeros(Z.shape, dtype=bool)
    frame[:edge, :] = frame[-edge:, :] = True
    frame[:, :edge] = frame[:, -edge:] = True

    thetas = 2.0 * np.pi * np.arange(mtheta) / mtheta
    w_all = np.exp(1j * thetas) * w0                      # rotated displacements
    Zb = Z[None, :, :] + 1j * w_all[:, None, None]
    Zmb = np.conj(Z)[None, :, :] + 1j * np.conj(w_all)[:, None, None]
    phase = U[None] * w_all.real[:, None, None] - X[None] * w_all.imag[:, None, None]
    # each (lambda, -lambda) pair shares one evaluation; the per-lambda terms
    # are summed afterwards in lambda order
    terms = np.zeros((sd.lam.size, 2))
    for group in abs_lam_groups(sd.lam):
        live = [j for j in group if np.any(sd.norms2[:, j] != 0.0)]
        if not live:
            continue
        for j, fld in zip(live, slice_fields([sd.modal[j] for j in live], Zb, Zmb)):
            lv = sd.lam[j]
            pref = sd.wmu[j] * abs(lv) / (2.0 * np.pi) * np.exp(2.0 * lv * eta)
            cell = (np.abs(2.0 * np.pi / abs(lv) * fld) ** 2) * np.exp(lv * phase)
            terms[j] = (pref * float(np.mean(np.sum(cell, axis=(1, 2)))) * harea,
                        pref * float(np.mean(np.sum(cell[:, frame], axis=1))) * harea)
        del fld  # at most two fields live at a time
    for term_total, term_shell in terms:
        total += term_total
        shell += term_shell
    if total > 0 and shell > spec.shell_tol * total:
        raise OrbitalError(
            f"orbital quadrature truncation {shell/total:.2e} above tolerance "
            f"{spec.shell_tol:.1e}; enlarge pad_factor"
        )
    return float(total)


# ---------------------------------------------------------------------------
# growth fits and the Paley-Wiener detector
# ---------------------------------------------------------------------------

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


def _ray_logs(source: Union[SpectralData, Callable[[float, float, float], float]],
              plan: RayPlan) -> tuple:
    """log D O along the plan's eta ray (0, 0, i eta) and radial ray
    (r, 0, 0); a callable source gives D O(y, v, eta) itself."""
    if isinstance(source, SpectralData):
        def log_d(r, eta):
            return _log_spectral_sum(source, r * r, 2.0 * source.lam * eta, bessel=True)
    else:
        def log_d(r, eta):
            return float(_log_values(source(r, 0.0, eta)))
    return (np.array([log_d(0.0, e) for e in plan.etas]),
            np.array([log_d(r, 0.0) for r in plan.rs]))


def pw_forward_check(sd: SpectralData, bl: BandLimit,
                     plan: Optional[RayPlan] = None) -> dict:
    """Verify D O <= C e^{2A|eta|} e^{2 sqrt(B) r} along the plan's rays.

    Returns the smallest admissible constant per ray, the fitted slopes, and
    any violations of the slope bounds (slopes must not exceed 2A / 2 sqrt B).
    """
    plan = plan or RayPlan()
    if np.any(sd.norms2 > 1e-300):  # the zero function's rays give C = 0, no slopes
        achieved = sd.achieved_band()
        if achieved.A > bl.A + 1e-9 or achieved.B > bl.B + 1e-9:
            raise OrbitalError("spectral data is not band-limited by the stated limits")
    eta_logs, rad_logs = _ray_logs(sd, plan)
    fit_eta = fit_growth(plan.etas, eta_logs, "eta")
    fit_rad = fit_growth(plan.rs, rad_logs, "radial")
    c_eta = _exp(np.max(eta_logs - 2.0 * bl.A * np.abs(plan.etas)))
    c_rad = _exp(np.max(rad_logs - 2.0 * np.sqrt(bl.B) * plan.rs))
    report = {
        "eta_slope": fit_eta.slope,
        "eta_bound": 2.0 * bl.A,
        "radial_slope": fit_rad.slope,
        "radial_bound": 2.0 * np.sqrt(bl.B),
        "C_eta": c_eta,
        "C_radial": c_rad,
        "eta_margin": 2.0 * bl.A - fit_eta.slope,
        "radial_margin": 2.0 * np.sqrt(bl.B) - fit_rad.slope,
        "fits": [fit_eta, fit_rad],
        "violations": [],
    }
    tol = 0.02
    if fit_eta.slope > 2.0 * bl.A * (1 + tol):
        report["violations"].append("eta slope exceeds 2A")
    if fit_rad.slope > 2.0 * np.sqrt(bl.B) * (1 + tol):
        report["violations"].append("radial slope exceeds 2 sqrt(B)")
    return report


@dataclass
class DetectReport:
    A_hat: float
    B_hat: float
    fits: list
    tail_test: dict
    verdict: str

    def to_dict(self) -> dict:
        return {
            "A_hat": self.A_hat,
            "B_hat": self.B_hat,
            "fits": [
                {
                    "ray": f.ray,
                    "slope": f.slope,
                    "intercept": f.intercept,
                    "residual": f.residual,
                    "samples": f.samples,
                }
                for f in self.fits
            ],
            "tail_test": self.tail_test,
            "verdict": self.verdict,
        }


def _tail_test(sd: SpectralData, B_hat: float, ts=(1.0, 2.0, 4.0, 8.0),
               C: Optional[float] = None) -> dict:
    """Spectral tail boundedness: for C > B_hat (default 1.1 B_hat) the
    weighted tail mass

        e^{2tC} sum_{(2k+n)|lambda| > C} norms2 d mu

    stays below C' e^{2 t B_hat} for growing t only when the tail is empty."""
    if C is None:
        C = 1.1 * B_hat + 1e-9
    fan = (2 * np.arange(sd.kmax + 1)[:, None] + sd.n) * np.abs(sd.lam)[None, :]
    sel = fan > C
    mass = float(np.sum(sd.norms2[sel] * np.broadcast_to(sd.wmu, sd.norms2.shape)[sel]))
    total = sd.total_mass()
    ratios = [mass * np.exp(2.0 * t * (C - B_hat)) / max(total, 1e-300) for t in ts]
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


def detect_bandlimit(source: Union[SpectralData, Callable[[float, float, float], float]],
                     plan: Optional[RayPlan] = None,
                     two_pass: bool = True) -> DetectReport:
    """Recover (A, B) from the growth of the shifted orbital integral.

    A_hat is half the tail slope of log D O(0,0,i eta); B_hat the square of
    half the radial slope.  With spectral data available the spectral tail
    test corroborates B_hat.  A second pass rescales the rays so both
    dimensionless products match the calibration of the default plan.
    Degenerate or non-monotone growth returns verdict "inconclusive".
    """
    plan = plan or RayPlan()

    def run(pl: RayPlan):
        eta_logs, rad_logs = _ray_logs(source, pl)
        return fit_growth(pl.etas, eta_logs, "eta"), fit_growth(pl.rs, rad_logs, "radial")

    fe, fr = run(plan)
    if not (np.isfinite(fe.slope) and np.isfinite(fr.slope)) or fe.slope <= 0:
        return DetectReport(np.nan, np.nan, [fe, fr], {}, "inconclusive")
    A_hat, B_hat = fe.slope / 2.0, (fr.slope / 2.0) ** 2
    if two_pass:
        fe, fr = run(plan.scaled(A_hat, max(B_hat, 1e-9)))
        if np.isfinite(fe.slope) and np.isfinite(fr.slope):
            A_hat, B_hat = fe.slope / 2.0, (fr.slope / 2.0) ** 2
    verdict = "ok"
    if fe.residual > plan.residual_threshold or fr.residual > plan.residual_threshold:
        verdict = "inconclusive"
    tail = {}
    if isinstance(source, SpectralData):
        tail = _tail_test(source, B_hat)
        if verdict == "ok" and not tail["bounded"]:
            verdict = "tail-violation"
    return DetectReport(float(A_hat), float(B_hat), [fe, fr], tail, verdict)
