"""Command-line front door: fixture synthesis, identity verification suites,
band-limit detection, and the flat-model checks.

    gutzmerlab synth  --A 1 --B 9 --seed 42 -o fixture
    gutzmerlab verify plancherel [-i fixture] [--tol 1e-4]
    gutzmerlab detect -i fixture.spd -o report.json
    gutzmerlab euclid [--seed 7] [-o rows.csv]

verify emits one CSV row per check (name, params, lhs, rhs, relerr, pass) and
exits 0 only if every check passes its tolerance; usage/config errors exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import containers
from .complexification import detect_bandlimit, gutzmer_spectral, orbital_direct
from .grids import QuadratureSpec
from .heisenberg_core import ComplexPoint
from .heatlab import (
    gauss_bessel_check,
    heat_apply,
    heat_image_norm,
    lemma63_check,
    thm35_converse_tail,
    thm35_forward,
)
from .euclid import flat_gutzmer, flat_pw_check, flat_synth_bandlimited, flat_band_limit
from .spectral import analyze, invert_grid, plancherel_check, synth_bandlimited

USAGE_EXIT = 2


def _spec_from_args(args) -> QuadratureSpec:
    for name in ("grid", "kmax", "lambda_grid", "n"):
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise SystemExit(f"--{name.replace('_', '-')} must be positive, got {value}")
    kw = {}
    if getattr(args, "grid", None) is not None:
        kw["nx"] = args.grid
    if getattr(args, "kmax", None) is not None:
        kw["kmax"] = args.kmax
    if getattr(args, "lambda_grid", None) is not None:
        nlam = args.lambda_grid
        if nlam < 9 or nlam % 2 == 0:
            raise SystemExit("--lambda-grid must be an odd count >= 9")
        kw["nodes_per_A"] = (nlam - 1) // 2 - QuadratureSpec().margin_nodes
    if getattr(args, "n", None) is not None:
        kw["n"] = args.n
    return QuadratureSpec(**kw)


def _write_csv(out_path, header, rows) -> None:
    """CSV to out_path (closed on return), or to stdout when out_path is None."""
    with (open(out_path, "w", newline="") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _emit_rows(rows, out_path):
    _write_csv(out_path, ["name", "params", "lhs", "rhs", "relerr", "pass"],
               [[r["name"], r["params"], f"{r['lhs']:.10g}", f"{r['rhs']:.10g}",
                 f"{r['relerr']:.3e}", "pass" if r["ok"] else "FAIL"] for r in rows])


def _load_or_synth(args, spec):
    if getattr(args, "input", None):
        try:
            f = containers.read_gfn(args.input + ".gfn")
            sd = containers.read_spd(args.input + ".spd")
        except FileNotFoundError as exc:
            raise SystemExit(f"missing input file: {exc}") from exc
        return f, sd
    f, sd = synth_bandlimited(args.A, args.B, args.seed, spec=spec)
    return f, sd


def cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    if args.A <= 0 or args.B <= 0:
        raise SystemExit("band limits must be positive")
    lam_max = args.A * (1 + spec.margin_nodes / spec.nodes_per_A)
    if lam_max * spec.hx >= np.pi:
        raise SystemExit("A larger than the grid can resolve")
    f, sd = synth_bandlimited(args.A, args.B, args.seed, spec=spec,
                              tune_grid=args.tune_grid)
    containers.write_gfn(args.output + ".gfn", f)
    containers.write_spd(args.output + ".spd", sd)
    print(f"wrote {args.output}.gfn and {args.output}.spd "
          f"(achieved band A*={sd.band.A:.6g}, B*={sd.band.B:.6g})")
    return 0


def _suite_plancherel(args, tol):
    spec = _spec_from_args(args)
    rows = []
    for seed in range(args.seed, args.seed + 3):
        f, sd = synth_bandlimited(args.A, args.B, seed, spec=spec)
        sd2 = analyze(f, sd.lgrid, spec.kmax, spec)
        lhs, rhs, rel = plancherel_check(f, sd2)
        rows.append({"name": "plancherel", "params": f"A={args.A};B={args.B};seed={seed}",
                     "lhs": lhs, "rhs": rhs, "relerr": rel, "ok": rel <= tol})
    return rows


def _suite_inversion(args, tol):
    spec = _spec_from_args(args)
    rows = []
    for seed in range(args.seed, args.seed + 2):
        f, sd = synth_bandlimited(args.A, args.B, seed, spec=spec)
        sd2 = analyze(f, sd.lgrid, spec.kmax, spec)
        f2 = invert_grid(sd2, f.tgrid)
        N = f.xgrid.size
        sl = (slice(N // 4, 3 * N // 4),) * 2 + (slice(None),)
        num = float(np.max(np.abs(f2.samples[sl] - f.samples[sl])))
        den = float(np.max(np.abs(f.samples[sl])))
        rel = num / den
        rows.append({"name": "inversion", "params": f"A={args.A};B={args.B};seed={seed}",
                     "lhs": den, "rhs": den + num, "relerr": rel, "ok": rel <= tol})
    return rows


def _suite_gutzmer(args, tol):
    spec = _spec_from_args(args)
    f, sd = _load_or_synth(args, spec)
    pts = [(0.4, 0.0, 0.0), (0.5, 0.5, 0.5), (0.0, 0.9, 1.0)]
    rows = []
    for (y, v, eta) in pts:
        p = ComplexPoint.purely_imaginary([y], [v], eta)
        lhs = orbital_direct(sd, p, spec)
        rhs = gutzmer_spectral(sd, p)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rows.append({"name": "gutzmer", "params": f"y={y};v={v};eta={eta}",
                     "lhs": lhs, "rhs": rhs, "relerr": rel, "ok": rel <= tol})
    return rows


def _suite_heat_image(args, tol):
    spec = _spec_from_args(args)
    f, sd = _load_or_synth(args, spec)
    base = f.squared_norm()
    rows = []
    vals = []
    for t in (0.1, 0.2, 0.4):
        v = heat_image_norm(heat_apply(sd, t), t) / base
        vals.append(v)
        rows.append({"name": "heat-image", "params": f"t={t}", "lhs": v, "rhs": vals[0],
                     "relerr": abs(v - vals[0]) / vals[0], "ok": True})
    spread = (max(vals) - min(vals)) / vals[0]
    for r in rows:
        r["ok"] = spread <= tol
        r["relerr"] = spread
    return rows


def _suite_gauss_bessel(args, tol):
    cases = [(k, lam, t, n) for n in (1, 2) for k in (0, 1, 4)
             for lam in (0.25, 1.0) for t in (0.1, 0.5)]

    def one(c):
        k, lam, t, n = c
        rel = gauss_bessel_check(k, lam, t, n)
        return {"name": "gauss-bessel", "params": f"k={k};lam={lam};t={t};n={n}",
                "lhs": 0.0, "rhs": 0.0, "relerr": rel, "ok": rel <= tol}

    return list(map(one, cases))


def _suite_lemma63(args, tol):
    cases = [(k, lam, t) for k in (0, 1, 4) for lam in (0.25, 1.0) for t in (0.1, 0.5)]

    def one(c):
        k, lam, t = c
        rel = lemma63_check(k, lam, t, n=1)
        return {"name": "lemma63", "params": f"k={k};lam={lam};t={t};n=1",
                "lhs": 0.0, "rhs": 0.0, "relerr": rel, "ok": rel <= tol}

    return list(map(one, cases))


def _positive_half(sd):
    """Copy of sd with the lambda < 0 content zeroed (thm35 needs lambda > 0
    support); sd itself is left unchanged."""
    neg = sd.lam < 0
    modal = [replace(ms, coef=np.zeros_like(ms.coef)) if drop else ms
             for ms, drop in zip(sd.modal, neg)]
    return replace(sd, modal=modal, norms2=np.where(neg, 0.0, sd.norms2))


def _suite_thm35(args, tol):
    spec = _spec_from_args(args)
    f, sd = _load_or_synth(args, spec)
    sd = _positive_half(sd)
    bl = sd.achieved_band()
    alpha, beta = bl.A, bl.B
    rep = thm35_forward(sd, alpha, beta)
    rows = [{"name": "thm35-forward", "params": f"alpha={alpha:.4g};beta={beta:.4g}",
             "lhs": rep["max_slope"], "rhs": rep["slope_bound"],
             "relerr": max(0.0, rep["max_slope"] - rep["slope_bound"]),
             "ok": rep["passes"]}]
    tail = thm35_converse_tail(sd, beta)
    rows.append({"name": "thm35-tail", "params": f"B={beta:.4g}",
                 "lhs": tail["tail_mass"], "rhs": 0.0, "relerr": tail["tail_mass"],
                 "ok": tail["verdict"] == "supported"})
    return rows


def _suite_euclid(args, tol):
    """Flat Gutzmer rows at |y| = 0.5, 1, 2, then the growth-fit row, which
    also carries the fit document that `euclid` writes."""
    f = flat_synth_bandlimited(2.0, args.seed)
    rows = []
    for ymag in (0.5, 1.0, 2.0):
        lhs, rhs, rel = flat_gutzmer(f, [ymag, 0.0])
        rows.append({"name": "euclid-gutzmer", "params": f"|y|={ymag}", "y": ymag,
                     "lhs": lhs, "rhs": rhs, "relerr": rel, "ok": rel <= tol})
    astar = flat_band_limit(f)
    fit, a_hat, verdict = flat_pw_check(f, astar)
    rel = abs(a_hat - astar) / astar
    fitdoc = {"a_hat": a_hat, "band_limit": astar, "slope": fit.slope,
              "residual": fit.residual, "verdict": verdict, "samples": fit.samples}
    rows.append({"name": "euclid-pw", "params": f"a*={astar:.6g}",
                 "lhs": a_hat, "rhs": astar, "relerr": rel,
                 "ok": verdict == "ok" and rel <= 0.05, "fit": fitdoc})
    return rows


SUITES = {
    "plancherel": (_suite_plancherel, 1e-4),
    "inversion": (_suite_inversion, 1e-4),
    "gutzmer": (_suite_gutzmer, 1e-3),
    "heat-image": (_suite_heat_image, 1e-3),
    "gauss-bessel": (_suite_gauss_bessel, 1e-6),
    "lemma63": (_suite_lemma63, 1e-5),
    "thm35": (_suite_thm35, 0.0),
    "euclid": (_suite_euclid, 1e-4),
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite '{args.suite}'; choose from {sorted(SUITES)}",
              file=sys.stderr)
        return USAGE_EXIT
    fn, default_tol = SUITES[args.suite]
    tol = args.tol if args.tol is not None else default_tol
    rows = fn(args, tol)
    _emit_rows(rows, args.output)
    return 0 if all(r["ok"] for r in rows) else 1


def cmd_detect(args) -> int:
    try:
        sd = containers.read_spd(args.input)
    except FileNotFoundError:
        print(f"missing input file: {args.input}", file=sys.stderr)
        return USAGE_EXIT
    report = detect_bandlimit(sd)
    doc = report.to_dict()
    if sd.requested_band is not None:
        doc["requested"] = {"A": sd.requested_band.A, "B": sd.requested_band.B}
    if sd.band is not None:
        doc["achieved"] = {"A": sd.band.A, "B": sd.band.B}
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report.verdict == "ok" else 1


def cmd_euclid(args) -> int:
    tol = args.tol if args.tol is not None else SUITES["euclid"][1]
    rows = _suite_euclid(args, tol)
    _write_csv(args.output, ["y", "lhs", "rhs", "relerr"],
               [[r["y"], f"{r['lhs']:.10g}", f"{r['rhs']:.10g}", f"{r['relerr']:.3e}"]
                for r in rows[:-1]])
    fitdoc = rows[-1]["fit"]
    if args.output:
        with open(args.output + ".fit.json", "w") as fh:
            json.dump(fitdoc, fh, indent=2)
    else:
        print(json.dumps(fitdoc, indent=2))
    return 0 if all(r["ok"] for r in rows) else 1


def tolerance(text: str) -> float:
    """--tol: a finite number >= 0 (0 is thm35's default)."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gutzmerlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, default=1)
        sp.add_argument("--A", type=float, default=1.0)
        sp.add_argument("--B", type=float, default=9.0)
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--tol", type=tolerance, default=None)
        sp.add_argument("--grid", type=int, default=None, help="x/u points per axis")
        sp.add_argument("--kmax", type=int, default=None)
        sp.add_argument("--lambda-grid", type=int, default=None, dest="lambda_grid",
                        help="lambda node count (odd, before the central puncture)")
        sp.add_argument("-i", "--input", default=None,
                        help="fixture path prefix (reads <prefix>.gfn/.spd)")
        sp.add_argument("-o", "--output", default=None)

    ps = sub.add_parser("synth", help="write a GFN1 + SPD1 fixture")
    common(ps)
    ps.add_argument("--tune-grid", action="store_true",
                    help="retune lambda spacing so B is exactly realizable")
    ps.set_defaults(func=cmd_synth)

    pv = sub.add_parser("verify", help="run an identity suite; CSV per check")
    pv.add_argument("suite", help="|".join(sorted(SUITES)))
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pd = sub.add_parser("detect", help="band-limit detection report (JSON)")
    common(pd)
    pd.set_defaults(func=cmd_detect)

    pe = sub.add_parser("euclid", help="flat-model Gutzmer + growth fit")
    common(pe)
    pe.set_defaults(func=cmd_euclid)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0,) else 0
    if args.command == "synth" and not args.output:
        print("synth requires -o output prefix", file=sys.stderr)
        return USAGE_EXIT
    if args.command == "detect" and not args.input:
        print("detect requires -i input .spd file", file=sys.stderr)
        return USAGE_EXIT
    try:
        return args.func(args)
    except SystemExit as exc:
        msg = str(exc)
        if msg:
            print(msg, file=sys.stderr)
        return USAGE_EXIT
    except FileNotFoundError as exc:
        print(f"missing input file: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ValueError as exc:
        # domain/config errors from the numerics (band too large, bad grids...)
        print(f"configuration error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
