"""Command-line front door: fixture synthesis, identity verification suites,
band-limit detection, and the flat-model checks.

    gutzmerlab synth  --A 1 --B 9 --seed 42 -o fixture
    gutzmerlab verify plancherel [--A 1 --B 9 --seed 42] [--tol 1e-4]
    gutzmerlab verify gutzmer [-i fixture] [--tol 1e-3]
    gutzmerlab detect -i fixture.spd -o report.json
    gutzmerlab euclid [--seed 7] [-o rows.csv]

Each command, and each verify suite, accepts only the flags it reads (the
COMMANDS and SUITES tables); verify flags follow the suite name.  verify
emits one CSV row per check (name, params, lhs, rhs, relerr, pass) and exits
0 only if every check passes its tolerance; usage/config errors and a
failed allocation exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
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
    kw = {"n": args.n}
    if args.grid is not None:
        kw["nx"] = args.grid
    if args.kmax is not None:
        kw["kmax"] = args.kmax
    if args.lambda_grid is not None:
        nlam = args.lambda_grid
        if nlam < 9 or nlam % 2 == 0:
            raise SystemExit("--lambda-grid must be an odd count >= 9")
        kw["nodes_per_A"] = (nlam - 1) // 2 - QuadratureSpec().margin_nodes
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
    if args.input:
        return containers.read_gfn(args.input + ".gfn"), containers.read_spd(args.input + ".spd")
    return synth_bandlimited(args.A, args.B, args.seed, spec=spec)


def cmd_synth(args) -> int:
    f, sd = synth_bandlimited(args.A, args.B, args.seed, spec=_spec_from_args(args),
                              tune_grid=args.tune_grid)
    containers.write_gfn(args.output + ".gfn", f)
    containers.write_spd(args.output + ".spd", sd)
    print(f"wrote {args.output}.gfn and {args.output}.spd "
          f"(achieved band A*={sd.band.A:.6g}, B*={sd.band.B:.6g})")
    return 0


def _synth_analyze_rows(args, name, count, check):
    """One row per seed args.seed, ..., args.seed + count - 1: check(f, sd)
    -> (lhs, rhs, relerr) on a fresh fixture f and its analysis sd."""
    spec = _spec_from_args(args)
    rows = []
    for seed in range(args.seed, args.seed + count):
        f, sd = synth_bandlimited(args.A, args.B, seed, spec=spec)
        lhs, rhs, rel = check(f, analyze(f, sd.lgrid, spec.kmax, spec))
        rows.append({"name": name, "params": f"A={args.A};B={args.B};seed={seed}",
                     "lhs": lhs, "rhs": rhs, "relerr": rel, "ok": rel <= args.tol})
    return rows


def _inversion_check(f, sd):
    """(max |f|, that + max |f2 - f|, relative error) of f2 = invert_grid(sd)
    on the central half of the x/u box."""
    f2 = invert_grid(sd, f.tgrid)
    N = f.xgrid.size
    sl = (slice(N // 4, 3 * N // 4),) * 2 + (slice(None),)
    num = float(np.max(np.abs(f2.samples[sl] - f.samples[sl])))
    den = float(np.max(np.abs(f.samples[sl])))
    return den, den + num, num / den


def _suite_plancherel(args):
    return _synth_analyze_rows(args, "plancherel", 3, plancherel_check)


def _suite_inversion(args):
    return _synth_analyze_rows(args, "inversion", 2, _inversion_check)


def _suite_gutzmer(args):
    spec = _spec_from_args(args)
    f, sd = _load_or_synth(args, spec)
    pts = [(0.4, 0.0, 0.0), (0.5, 0.5, 0.5), (0.0, 0.9, 1.0)]
    rows = []
    for (y, v, eta) in pts:
        p = ComplexPoint.purely_imaginary([y], [v], eta)
        lhs = orbital_direct(sd, p)
        rhs = gutzmer_spectral(sd, p)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        rows.append({"name": "gutzmer", "params": f"y={y};v={v};eta={eta}",
                     "lhs": lhs, "rhs": rhs, "relerr": rel, "ok": rel <= args.tol})
    return rows


def _suite_heat_image(args):
    spec = _spec_from_args(args)
    f, sd = _load_or_synth(args, spec)
    base = f.squared_norm()
    ts = (0.1, 0.2, 0.4)
    vals = [heat_image_norm(heat_apply(sd, t), t) / base for t in ts]
    spread = np.ptp(vals) / vals[0]    # nan if any value is nan, so the row fails
    return [{"name": "heat-image", "params": f"t={t}", "lhs": v, "rhs": vals[0],
             "relerr": spread, "ok": spread <= args.tol} for t, v in zip(ts, vals)]


def _case_rows(name, check, ns, tol):
    """One row per case (k, lam, t, n), n in ns: check(k, lam, t, n) is the
    relative error, and lhs = rhs = 0."""
    rows = []
    for n, k, lam, t in itertools.product(ns, (0, 1, 4), (0.25, 1.0), (0.1, 0.5)):
        rel = check(k, lam, t, n)
        rows.append({"name": name, "params": f"k={k};lam={lam};t={t};n={n}",
                     "lhs": 0.0, "rhs": 0.0, "relerr": rel, "ok": rel <= tol})
    return rows


def _suite_gauss_bessel(args):
    return _case_rows("gauss-bessel", gauss_bessel_check, (1, 2), args.tol)


def _suite_lemma63(args):
    return _case_rows("lemma63", lemma63_check, (1,), args.tol)


def _positive_half(sd):
    """Copy of sd with the lambda < 0 content zeroed (thm35 needs lambda > 0
    support); sd itself is left unchanged."""
    neg = sd.lam < 0
    modal = [replace(ms, coef=np.zeros_like(ms.coef)) if drop else ms
             for ms, drop in zip(sd.modal, neg)]
    return replace(sd, modal=modal, norms2=np.where(neg, 0.0, sd.norms2))


def _suite_thm35(args):
    """Criterion 8's slope bound and tail verdict; no --tol."""
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


def _suite_euclid(args):
    """Flat Gutzmer rows at |y| = 0.5, 1, 2, then the growth-fit row, which
    also carries the fit document that `euclid` writes."""
    f = flat_synth_bandlimited(2.0, args.seed)
    rows = []
    for ymag in (0.5, 1.0, 2.0):
        lhs, rhs, rel = flat_gutzmer(f, [ymag, 0.0])
        rows.append({"name": "euclid-gutzmer", "params": f"|y|={ymag}", "y": ymag,
                     "lhs": lhs, "rhs": rhs, "relerr": rel, "ok": rel <= args.tol})
    astar = flat_band_limit(f)
    fit, a_hat, verdict = flat_pw_check(f, astar)
    rel = abs(a_hat - astar) / astar
    fitdoc = {"a_hat": a_hat, "band_limit": astar, "slope": fit.slope,
              "residual": fit.residual, "verdict": verdict, "samples": fit.samples}
    rows.append({"name": "euclid-pw", "params": f"a*={astar:.6g}",
                 "lhs": a_hat, "rhs": astar, "relerr": rel,
                 "ok": verdict == "ok" and rel <= 0.05, "fit": fitdoc})
    return rows


def cmd_verify(args) -> int:
    rows = args.rows(args)
    _emit_rows(rows, args.output)
    return 0 if all(r["ok"] for r in rows) else 1


def cmd_detect(args) -> int:
    sd = containers.read_spd(args.input)
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
    rows = _suite_euclid(args)
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
    """--tol: a finite number >= 0."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def positive(kind):
    """Argument type: a finite `kind` (int or float) > 0."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


# flag group -> ((flag names), add_argument keywords) per flag; --tol is added
# apart, with the default of the command or suite that reads it
FLAGS = {
    "band": [(("--A",), {"type": positive(float), "default": 1.0}),
             (("--B",), {"type": positive(float), "default": 9.0})],
    "seed": [(("--seed",), {"type": int, "default": 42})],
    "spec": [(("--n",), {"type": positive(int), "default": 1}),
             (("--grid",), {"type": positive(int), "help": "x/u points per axis"}),
             (("--kmax",), {"type": positive(int)}),
             (("--lambda-grid",), {"type": positive(int), "help": "lambda node count "
                                   "(odd, before the central puncture)"})],
    "input": [(("-i", "--input"), {"help": "fixture: verify reads <prefix>.gfn/.spd, "
                                           "detect the .spd file"})],
    "output": [(("-o", "--output"), {})],
    "tune": [(("--tune-grid",), {"action": "store_true",
                                 "help": "retune lambda spacing so B is exactly realizable"})],
}

# suite -> (rows function, default --tol or None for a suite without --tol,
# the other flag groups it reads)
SUITES = {
    "plancherel": (_suite_plancherel, 1e-4, ("band", "seed", "spec", "output")),
    "inversion": (_suite_inversion, 1e-4, ("band", "seed", "spec", "output")),
    "gutzmer": (_suite_gutzmer, 1e-3, ("input", "band", "seed", "spec", "output")),
    "heat-image": (_suite_heat_image, 1e-3, ("input", "band", "seed", "spec", "output")),
    "gauss-bessel": (_suite_gauss_bessel, 1e-6, ("output",)),
    "lemma63": (_suite_lemma63, 1e-5, ("output",)),
    "thm35": (_suite_thm35, None, ("input", "band", "seed", "spec", "output")),
    "euclid": (_suite_euclid, 1e-4, ("seed", "output")),
}

# command -> (function, help, default --tol or None, flag groups; a trailing
# "!" makes the group's flags required); verify takes its flags per suite
COMMANDS = {
    "synth": (cmd_synth, "write a GFN1 + SPD1 fixture", None,
              ("band", "seed", "spec", "tune", "output!")),
    "verify": (cmd_verify, "run an identity suite; CSV per check", None, ()),
    "detect": (cmd_detect, "band-limit detection report (JSON)", None, ("input!", "output")),
    "euclid": (cmd_euclid, "flat-model Gutzmer + growth fit", SUITES["euclid"][1],
               ("seed", "output")),
}


def _add_flags(parser, tol, groups) -> None:
    for group in groups:
        for names, kw in FLAGS[group.rstrip("!")]:
            parser.add_argument(*names, required=group.endswith("!"), **kw)
    if tol is not None:
        parser.add_argument("--tol", type=tolerance, default=tol)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gutzmerlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help_text, tol, groups) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        _add_flags(sp, tol, groups)
        sp.set_defaults(func=func)
    suites = sub.choices["verify"].add_subparsers(dest="suite", required=True, metavar="suite",
                                                  help="|".join(sorted(SUITES)))
    for name, (rows, tol, groups) in SUITES.items():
        sp = suites.add_parser(name)
        _add_flags(sp, tol, groups)
        sp.set_defaults(rows=rows)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_EXIT
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
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
