"""Orbital integrals over the Heisenberg motion group, the Gutzmer identity,
the Bessel shift operator, and growth-based band-limit detection.

At purely imaginary points p = (iy, iv, i eta) the orbital integral of |F|^2
over the motion group equals the spectral sum

    integral e^{2 lambda eta} sum_k norms2(k, lambda) [k!(n-1)!/(k+n-1)!]
             phi_k^lambda(2iy, 2iv) d mu(lambda),

and replacing phi_k^lambda(2iy,2iv) by j_{n-1}(2i sqrt((2k+n)|lambda|) r)
(r = |(y,v)|) realizes the shift operator: growth becomes pure exponential
type  e^{2A|eta|} e^{2 sqrt(B) r},  whose ray slopes recover the band limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import QuadratureSpec, SpectralError
from .growth import _exp, _log_spectral_sum, _tail_test, fit_growth
from .heisenberg_core import ComplexPoint
from .hermite_modes import _offset_plan, abs_lam_groups, slice_powers
from .spectral import BandLimit, SpectralData


class OrbitalError(SpectralError):
    pass


SHELL_TOL = 1e-6    # orbital quadrature: largest share of the sum in the outer frame
PAD_FACTOR = 1.5    # the widest orbital grid, in sample-grid points per axis
_EDGE = 2           # cells in the outer frame monitored for truncation


@dataclass
class RayPlan:
    """Sampling plan for growth rays (defaults: eta 0..6 by .5, r 0..3 by .25)."""

    etas: np.ndarray = field(default_factory=lambda: np.arange(0.0, 6.01, 0.5))
    rs: np.ndarray = field(default_factory=lambda: np.arange(0.0, 3.01, 0.25))

    def scaled(self, a_scale: float, b_scale: float) -> "RayPlan":
        """Rescale rays so the dimensionless products A*eta, sqrt(B)*r reach
        what this plan's rays reach at the calibration A=1, B=9."""
        return RayPlan(
            etas=np.linspace(0.0, self.etas[-1] / max(a_scale, 1e-9), len(self.etas)),
            rs=np.linspace(0.0, 3.0 * self.rs[-1] / max(np.sqrt(b_scale), 1e-9), len(self.rs)),
        )


def _require_point(sd: SpectralData, p: ComplexPoint):
    """p must be a purely imaginary point of the data's C^{2n+1}."""
    if p.n != sd.n:
        raise OrbitalError(f"point of dimension {p.n} for data of dimension {sd.n}")
    if not p.is_purely_imaginary:
        raise OrbitalError("evaluation point must be purely imaginary (x = u = xi = 0)")


# ---------------------------------------------------------------------------
# spectral-side sums
# ---------------------------------------------------------------------------

def _radius2(sd: SpectralData, p: ComplexPoint) -> float:
    _require_point(sd, p)
    return float(np.sum(p.zi ** 2) + np.sum(p.wi ** 2))


def gutzmer_spectral(sd: SpectralData, p: ComplexPoint) -> float:
    """Spectral side of the Gutzmer identity at a purely imaginary point
    (inf past the float range)."""
    return _exp(_log_spectral_sum(sd, _radius2(sd, p), 2.0 * sd.lam * p.zeta_i))


def apply_D(sd: SpectralData, p: ComplexPoint) -> float:
    """Bessel-shifted orbital integral D O_{|F|^2}(iy, iv, i eta).

    Same weighted sum as gutzmer_spectral with each Laguerre factor
    [k!(n-1)!/(k+n-1)!] phi_k^lambda(2iy,2iv) replaced by
    j_{n-1}(2i sqrt((2k+n)|lambda|) r); inf past the float range.
    """
    return _exp(_log_spectral_sum(sd, _radius2(sd, p), 2.0 * sd.lam * p.zeta_i, bessel=True))


# ---------------------------------------------------------------------------
# direct orbital integral (n = 1)
# ---------------------------------------------------------------------------

def _orbital_points(nx: int, hx: float, r: float) -> int:
    """Orbital grid points per axis: the sample grid widened on every side by
    r = |w| in whole cells plus the monitored frame, at most PAD_FACTOR * nx."""
    return min(nx + 2 * (int(np.ceil(r / hx)) + _EDGE), int(round(PAD_FACTOR * nx)))


def _orbital_plan(sd: SpectralData) -> tuple:
    """(live, plan): the populated slices of sd, each (lambda, -lambda) pair
    next to each other, and their _offset_plan.

    Built on first use and kept on sd outside its dataclass fields, so ==,
    repr and dataclasses.replace ignore it; reused while every lambda and
    every coefficient equals the one it was built from, and rebuilt
    otherwise, so an in-place edit of sd.modal shows in the next sum.
    """
    key = (sd.lam.tolist(), [(ms.lam, ms.coef.shape) for ms in sd.modal])
    coefs = np.concatenate([ms.coef.ravel() for ms in sd.modal])
    kept = vars(sd).get("_kept_orbital_plan")
    if kept is not None and kept[0] == key and np.array_equal(kept[1], coefs):
        return kept[2]
    live = [j for group in abs_lam_groups(sd.lam) for j in group if sd.modal[j].coef.any()]
    sd._kept_orbital_plan = key, coefs, (live, _offset_plan([sd.modal[j] for j in live]))
    return sd._kept_orbital_plan[2]


def _orbital_sum(sd: SpectralData, r: float, eta: float, npad: int, hx: float) -> tuple:
    """(sum, outer-frame part of the sum) on npad x npad points spaced hx, at
    the displacement w = r e^{i pi/4}, from the points with u >= x."""
    xg = (np.arange(npad) - npad // 2) * hx
    row, col = np.triu_indices(npad)
    x, u = xg[row], xg[col]
    c = r / np.sqrt(2.0)
    zc = (x - c) + 1j * (u + c)
    zm = (x + c) + 1j * (c - u)
    phase = c * (u - x)
    off = row < col       # points whose mirror (u, x) is another point
    frame = (row < _EDGE) | (col >= npad - _EDGE)    # row <= col here

    total = 0.0
    shell = 0.0
    live, plan = _orbital_plan(sd)
    al_now = None
    for j, power in zip(live, slice_powers([sd.modal[j] for j in live], zc, zm, plan)):
        lv = sd.lam[j]
        if abs(lv) != al_now:
            # e^{+-|lambda| phase}: lambda and -lambda take them in swapped roles
            al_now = abs(lv)
            grow, decay = np.exp(al_now * phase), np.exp(-al_now * phase)
        here, mirror = (grow, decay) if lv > 0 else (decay, grow)
        pref = sd.wmu[j] * 2.0 * np.pi / abs(lv) * np.exp(2.0 * lv * eta) * hx * hx
        cell = power[0] * here
        cell += power[1] * mirror * off
        total += pref * float(np.sum(cell))
        shell += pref * float(np.sum(cell[frame]))
    return total, shell


def orbital_direct(sd: SpectralData, p: ComplexPoint,
                   spec: Optional[QuadratureSpec] = None) -> float:
    """integral over G_1 of |F(g.(iy,iv,i eta))|^2 by tensor quadrature.

    theta: by Parseval.  The substitution z' -> e^{i theta} z' leaves the
    phase -Im(zbar' w) alone and rotates the displacement w = y + iv, and the
    slice's U(1) parts G_q pick up e^{i q theta}, so the theta-mean of |F|^2
    is sum_q |G_q|^2 at the one displacement w (hermite_modes.slice_powers,
    one call for all populated slices, in real arithmetic; an all-zero slice
    adds nothing and is skipped).  The theta-mean covers every rotation of
    w, so the integral depends on |w| alone, and the sum runs at w rotated
    onto the diagonal, |w| e^{i pi/4}.  (x',u'): sample-spaced points
    centred on the origin; t': one period of the fixture's lambda-comb,
    summed in closed form by Parseval (the integrand is trigonometric in t',
    so the period sum is the integral).  F is evaluated through the entire
    extension of each slice at the imaginary displacement.  The mode fit
    confines each slice to the sample grid and the displacement shifts it by
    at most |w|, so the grid is the sample grid widened on every side by |w|
    in whole cells plus a 2-cell frame, at most PAD_FACTOR times its points
    per axis.  On the diagonal the swap (x', u') -> (u', x') maps the grid
    and its frame onto themselves and takes (zc, zm) to (i zm, -i zc): the
    Laguerre sums and the Gaussian stay, |P|^2 and |Q|^2 trade places
    (slice_powers' swapped orientation) and the phase changes sign.  So the
    sum runs on the npad(npad+1)/2 points with u' >= x', each off the
    diagonal adding its mirror too.  A frame share of the sum above
    SHELL_TOL on a narrower grid retries on the PAD_FACTOR grid, and raises
    only there.  spec is not read.
    Once per fixture, not per call: the list of populated slices and the
    scatter of their coefficients into running-sum weights (_orbital_plan,
    kept on sd until a coefficient changes).  Per call, once per |lambda|
    group: the Laguerre sums of each offset (a constant, with no recurrence,
    for an offset whose weights stop at m = 0), the monomial powers and the
    pair of exponentials e^{+-|lambda| phase}.
    """
    if sd.n != 1:
        raise OrbitalError("direct orbital integrals are implemented for n=1 only")
    _require_point(sd, p)
    r = float(np.hypot(p.zi[0], p.wi[0]))
    hx = float(sd.xgrid[1] - sd.xgrid[0])
    cap = int(round(PAD_FACTOR * sd.xgrid.size))
    for npad in sorted({_orbital_points(sd.xgrid.size, hx, r), cap}):
        total, shell = _orbital_sum(sd, r, p.zeta_i, npad, hx)
        if not (total > 0 and shell > SHELL_TOL * total):
            return float(total)
    raise OrbitalError(
        f"orbital quadrature truncation {shell/total:.2e} above tolerance "
        f"{SHELL_TOL:.1e}; enlarge PAD_FACTOR"
    )


# ---------------------------------------------------------------------------
# growth fits and the Paley-Wiener detector
# ---------------------------------------------------------------------------

def _ray_logs(sd: SpectralData, plan: RayPlan) -> tuple:
    """log D O along the plan's eta ray (0, 0, i eta) and radial ray (r, 0, 0)."""
    def log_d(r, eta):
        return _log_spectral_sum(sd, r * r, 2.0 * sd.lam * eta, bessel=True)
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
            "fits": [{key: getattr(f, key)
                      for key in ("ray", "slope", "intercept", "residual", "samples")}
                     for f in self.fits],
            "tail_test": self.tail_test,
            "verdict": self.verdict,
        }


def detect_bandlimit(sd: SpectralData, plan: Optional[RayPlan] = None) -> DetectReport:
    """Recover (A, B) from the growth of the shifted orbital integral.

    A_hat is half the tail slope of log D O(0,0,i eta); B_hat the square of
    half the radial slope.  The spectral tail test corroborates B_hat.  A
    second pass rescales the rays so both dimensionless products match the
    calibration of the default plan.
    Degenerate or non-monotone growth returns verdict "inconclusive".
    """
    plan = plan or RayPlan()

    def run(pl: RayPlan):
        eta_logs, rad_logs = _ray_logs(sd, pl)
        return fit_growth(pl.etas, eta_logs, "eta"), fit_growth(pl.rs, rad_logs, "radial")

    fe, fr = run(plan)
    if not (np.isfinite(fe.slope) and np.isfinite(fr.slope)) or fe.slope <= 0:
        return DetectReport(np.nan, np.nan, [fe, fr], {}, "inconclusive")
    A_hat, B_hat = fe.slope / 2.0, (fr.slope / 2.0) ** 2
    fe, fr = run(plan.scaled(A_hat, max(B_hat, 1e-9)))
    if np.isfinite(fe.slope) and np.isfinite(fr.slope):
        A_hat, B_hat = fe.slope / 2.0, (fr.slope / 2.0) ** 2
    verdict = "ok"
    if fe.residual > 0.1 or fr.residual > 0.1:
        verdict = "inconclusive"
    tail = _tail_test(sd, B_hat)
    if verdict == "ok" and not tail["bounded"]:
        verdict = "tail-violation"
    return DetectReport(float(A_hat), float(B_hat), [fe, fr], tail, verdict)
