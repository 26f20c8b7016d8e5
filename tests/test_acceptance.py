"""Acceptance criteria, one test per criterion, at the stated tolerances and
resolutions (n=1: 48^2 x 96 grid, K_max=16, 33-node lambda grid).  Each test
prints a single pass/fail line; every tolerance is pinned here, none is
derived at run time."""

import time

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from conftest import planted
from gutzmerlab.cli import _positive_half
from gutzmerlab.complexification import (
    detect_bandlimit,
    gutzmer_spectral,
    orbital_direct,
)
from gutzmerlab.euclid import flat_band_limit, flat_gutzmer, flat_pw_check, flat_synth_bandlimited
from gutzmerlab.grids import QuadratureSpec
from gutzmerlab.heatlab import (
    gauss_bessel_check,
    heat_apply,
    heat_image_norm,
    lemma63_check,
    thm35_converse_tail,
    thm35_forward,
)
from gutzmerlab.heisenberg_core import ComplexPoint
from gutzmerlab.specfun import bessel_j_norm, hermite_fn_1d, hilb_compare, laguerre
from gutzmerlab.spectral import analyze, invert_grid, plancherel_check, synth_bandlimited

SEEDS = (101, 102, 103, 104, 105)


def report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def deskspec():
    return QuadratureSpec()  # 48^2 x 96, kmax 16, 33 lambda nodes


@pytest.fixture(scope="module")
def pipeline(deskspec):
    """Synth + analysis for the 5 seeded fixtures, with the wall time kept."""
    t0 = time.time()
    fixtures, analyzed = [], []
    for seed in SEEDS:
        f, sd = synth_bandlimited(1.0, 9.0, seed, spec=deskspec)
        fixtures.append((seed, f, sd))
        analyzed.append((seed, f, analyze(f, sd.lgrid, deskspec.kmax, deskspec)))
    return fixtures, analyzed, time.time() - t0


@pytest.fixture(scope="module")
def fixtures(pipeline):
    return pipeline[0]


@pytest.fixture(scope="module")
def analyzed(pipeline):
    return pipeline[1]


def test_criterion_01_plancherel(deskspec, pipeline):
    fixtures, analyzed, elapsed_pipe = pipeline
    t0 = time.time()
    worst = 0.0
    for seed, f, sd in analyzed:
        _, _, rel = plancherel_check(f, sd)
        worst = max(worst, rel)
    elapsed = time.time() - t0 + elapsed_pipe
    ok = worst <= 1e-4 and elapsed <= 60.0
    report(1, "Plancherel", ok,
           f"max relerr {worst:.2e} (tol 1e-4) over {len(analyzed)} fixtures, "
           f"{elapsed:.1f}s incl. synthesis+analysis (budget 60s)")


def test_criterion_02_inversion_round_trip(deskspec, analyzed):
    t0 = time.time()
    worst = 0.0
    for seed, f, sd in analyzed:
        f2 = invert_grid(sd, f.tgrid)
        N = deskspec.nx
        sl = (slice(N // 4, 3 * N // 4),) * 2 + (slice(None),)
        num = float(np.max(np.abs(f2.samples[sl] - f.samples[sl])))
        den = float(np.max(np.abs(f.samples[sl])))
        worst = max(worst, num / den)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed <= 120.0
    report(2, "inversion round trip", ok,
           f"max interior relerr {worst:.2e} (tol 1e-4), {elapsed:.1f}s (budget 120s)")


def test_criterion_03_gutzmer_identity(deskspec, fixtures):
    t0 = time.time()
    seed, f, sd = fixtures[0]
    pts = [(0.3, 0.0, 0.0), (0.0, 0.5, 0.25), (0.5, 0.5, 0.5),
           (0.75, 0.75, 1.0), (1.06, 1.06, 0.0), (0.2, 0.3, 1.0)]
    worst = 0.0
    for (y, v, eta) in pts:
        assert np.hypot(y, v) <= 1.5 and abs(eta) <= 1.0
        p = ComplexPoint.purely_imaginary([y], [v], eta)
        od = orbital_direct(sd, p, deskspec)
        gs = gutzmer_spectral(sd, p)
        worst = max(worst, abs(od - gs) / abs(gs))
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed <= 600.0
    report(3, "Gutzmer identity", ok,
           f"max relerr {worst:.2e} (tol 1e-3) over 6 points, {elapsed:.0f}s (budget 600s)")


def test_criterion_04_gaussian_bessel():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2):
        for k in (0, 1, 4):
            for lam in (0.25, 1.0):
                for t in (0.1, 0.5):
                    worst = max(worst, gauss_bessel_check(k, lam, t, n))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 30.0
    report(4, "Gaussian-Bessel identity", ok,
           f"max relerr {worst:.2e} (tol 1e-6) over the (k,lam,t,n) box, "
           f"{elapsed:.1f}s (budget 30s)")


def test_criterion_05_heat_image_constancy(fixtures):
    t0 = time.time()
    worst = 0.0
    ratios = []
    for seed, f, sd in fixtures[:3]:
        base = f.squared_norm()
        vals = [heat_image_norm(heat_apply(sd, t), t) / base for t in (0.1, 0.2, 0.4)]
        ratios.extend(vals)
        worst = max(worst, (max(vals) - min(vals)) / vals[0])
    cross = (max(ratios) - min(ratios)) / ratios[0]
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and cross <= 1e-3 and elapsed <= 60.0
    report(5, "heat-image constancy", ok,
           f"spread across t {worst:.2e}, across fixtures {cross:.2e} (tol 1e-3), "
           f"{elapsed:.1f}s (budget 60s)")


def test_criterion_06_paley_wiener_detector(deskspec):
    t0 = time.time()
    details = []
    ok = True
    for (A, B) in ((1.0, 9.0), (0.5, 2.0)):
        f, sd = synth_bandlimited(A, B, seed=7, spec=deskspec, tune_grid=True)
        assert sd.achieved_band().B == pytest.approx(B, rel=1e-9), "grid tuning must realize B"
        rep = detect_bandlimit(sd)
        eta_fit = next(ft for ft in rep.fits if ft.ray == "eta")
        rad_fit = next(ft for ft in rep.fits if ft.ray == "radial")
        e_err = abs(eta_fit.slope - 2 * A) / (2 * A)
        r_err = abs(rad_fit.slope - 2 * np.sqrt(B)) / (2 * np.sqrt(B))
        a_err = abs(rep.A_hat - A) / A
        b_err = abs(rep.B_hat - B) / B
        ok &= (e_err <= 0.05 and r_err <= 0.05 and a_err <= 0.05 and b_err <= 0.05
               and rep.verdict == "ok")
        details.append(f"(A={A},B={B}): slopes {e_err*100:.1f}%/{r_err*100:.1f}%, "
                       f"detect {a_err*100:.1f}%/{b_err*100:.1f}%")
        # planted out-of-band cell must be rejected by the tail test
        lam_t = 1.25 * B / (2 * 4 + 1)
        j = int(np.argmin(np.abs(np.abs(sd.lam) - lam_t)))
        repv = detect_bandlimit(planted(sd, 4, j, 1e-3 * np.max(sd.norms2)))
        ok &= repv.verdict == "tail-violation" and bool(repv.tail_test["offending_cells"])
        details.append("planted cell rejected" if repv.verdict == "tail-violation"
                       else "planted cell MISSED")
    elapsed = time.time() - t0
    ok = ok and elapsed <= 120.0
    report(6, "Paley-Wiener exponents/detector", ok,
           "; ".join(details) + f"; {elapsed:.1f}s (budget 120s)")


def test_criterion_07_lemma63():
    t0 = time.time()
    worst = 0.0
    for k in (0, 1, 4):
        for lam in (0.25, 1.0):
            for t in (0.1, 0.5):
                worst = max(worst, lemma63_check(k, lam, t, 1))
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed <= 30.0
    report(7, "Lemma 6.3 identity", ok,
           f"max relerr {worst:.2e} (tol 1e-5, n=1 box), {elapsed:.1f}s (budget 30s)")


def test_criterion_08_thm35_bounds(deskspec, fixtures):
    t0 = time.time()
    _, f, sd0 = fixtures[1]
    sd = _positive_half(sd0)
    bl = sd.achieved_band()
    rep = thm35_forward(sd, bl.A, bl.B)
    tail_ok = thm35_converse_tail(sd, bl.B)["verdict"] == "supported"
    j = int(np.argmin(np.abs(sd.lam - bl.A)))
    kbad = int(np.ceil((1.4 * bl.B / bl.A - 1) / 2))
    sdv = planted(sd, kbad, j, 1e-3 * np.max(sd.norms2))
    tail_bad = thm35_converse_tail(sdv, bl.B)["verdict"] == "violated"
    elapsed = time.time() - t0
    ok = rep["passes"] and tail_ok and tail_bad and elapsed <= 60.0
    report(8, "Thm 3.5 spectral bounds", ok,
           f"log-t slope {rep['max_slope']:.2f} <= {rep['slope_bound']:.2f}, tail verdicts "
           f"{'correct' if tail_ok and tail_bad else 'WRONG'}, {elapsed:.1f}s (budget 60s)")


def test_criterion_09_euclid_gutzmer_pw():
    t0 = time.time()
    f = flat_synth_bandlimited(2.0, seed=7)
    astar = flat_band_limit(f)
    worst = max(flat_gutzmer(f, [ym, 0.0])[2] for ym in (0.5, 1.0, 2.0))
    fit, a_hat, verdict = flat_pw_check(f, astar)
    slope_err = abs(fit.slope - 2 * astar) / (2 * astar)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and slope_err <= 0.05 and verdict == "ok" and elapsed <= 60.0
    report(9, "Euclidean Gutzmer + PW", ok,
           f"max relerr {worst:.2e} (tol 1e-4), slope err {slope_err*100:.2f}% "
           f"(tol 5%), {elapsed:.1f}s (budget 60s)")


def test_criterion_10_specfun_suite():
    t0 = time.time()
    ok = True
    msgs = []
    # Laguerre recurrence residual over s in [0,50], k <= 60, a <= 4
    s = np.linspace(0.0, 50.0, 26)
    worst_res = 0.0
    for a in range(5):
        for k in range(1, 61, 7):
            lkm1, lk, lkp1 = laguerre(k - 1, a, s), laguerre(k, a, s), laguerre(k + 1, a, s)
            resid = np.abs((k + 1) * lkp1 - (2 * k + a + 1 - s) * lk + (k + a) * lkm1)
            scale = np.maximum.reduce([np.abs(lkm1), np.abs(lk), np.abs(lkp1),
                                       np.ones_like(s)])
            worst_res = max(worst_res, float(np.max(resid / scale)))
    ok &= worst_res <= 1e-10
    msgs.append(f"Laguerre recurrence {worst_res:.1e}")
    # Hermite orthonormality at >= 2*maxdeg nodes
    y, w = hermgauss(260)
    degs = [0, 3, 17, 60, 120]
    vals = {m: hermite_fn_1d(m, y) * np.exp(y * y / 2.0) for m in degs}
    worst_on = max(
        abs(np.dot(w, vals[a] * vals[b]) - (1.0 if a == b else 0.0))
        for a in degs for b in degs
    )
    ok &= worst_on <= 1e-8
    msgs.append(f"Hermite orthonormality {worst_on:.1e}")
    # normalized Bessel on the imaginary axis
    s = np.linspace(0.0, 40.0, 81)
    for nu in (0, 1, 2):
        v = np.real(bessel_j_norm(nu, 1j * s))
        ok &= bool(np.all(v > 0) and np.all(np.diff(v) >= 0) and np.all(v <= np.exp(s) + 1e-12))
    msgs.append("j_nu imaginary-axis bounds ok")
    # Hilb comparison non-increasing in k (10% diagnostic slack)
    fan = 6.0
    devs = [hilb_compare(k, fan / (2 * k + 1), 0.8) for k in (0, 2, 8, 32)]
    ok &= all(devs[i + 1] <= devs[i] * 1.10 for i in range(len(devs) - 1))
    msgs.append("Hilb deviation non-increasing")
    elapsed = time.time() - t0
    ok = ok and elapsed <= 10.0
    report(10, "special-function suite", ok, "; ".join(msgs) + f"; {elapsed:.1f}s (budget 10s)")
