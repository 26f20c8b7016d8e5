"""Metric arithmetic: the end-to-end timing summaries and the per-layer table.

The per-layer table is the single list of layer metrics; BENCHMARK.json's
`per_layer` entries must name exactly these (the benchmark's tests check it).
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import EMPTY_TOTALS, merge_totals, totals_by_name

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples) -> tuple:
    """(value, percentile, samples beyond) for the highest ladder percentile
    that still has at least ten samples strictly above it.

    With fewer than twenty samples no percentile above the median qualifies;
    the median is then reported, labelled p50, with its own beyond count.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    for p in TAIL_LADDER:
        value = float(np.percentile(xs, p))
        beyond = int(np.sum(xs > value))
        if beyond >= 10:
            return value, p, beyond
    value = float(statistics.median(xs))
    return value, 50.0, int(np.sum(xs > value))


# (span name, fields) -> metrics "<span>.<field>"; units by field
LAYER_SPANS = (
    ("specfun.laguerre_all", ("calls", "self_s", "elems")),
    ("specfun.bessel_j_norm", ("calls", "self_s")),
    ("specfun.laguerre_phi", ("calls", "self_s")),
    ("grids.laguerre_tail_mass", ("calls", "self_s", "repeat_ratio")),
    ("grids.pair_fits", ("calls", "self_s")),
    ("hermite_modes.basis_matrix", ("calls", "self_s", "points")),
    ("hermite_modes.ModalSlice.field", ("calls", "self_s", "points")),
    ("hermite_modes.ModalSliceND.field", ("calls", "self_s")),
    ("hermite_modes.e1d", ("calls", "self_s")),
    ("spectral.analyze.n1", ("self_s", "peak_mb")),
    ("spectral.analyze.n2", ("self_s",)),
    ("spectral.partial_fourier_t", ("calls", "self_s")),
    ("spectral.invert_grid", ("self_s",)),
    ("spectral.synth_bandlimited", ("self_s", "peak_mb")),
    ("complexification.orbital_direct", ("calls", "self_s", "peak_mb")),
    ("complexification.gutzmer_spectral", ("self_s",)),
    ("complexification.apply_D", ("calls", "self_s")),
    ("complexification.detect_bandlimit", ("self_s",)),
    ("complexification.fit_growth", ("calls",)),
    ("heatlab.heat_apply", ("calls", "self_s", "bytes", "peak_mb")),
    ("heatlab.heat_image_norm", ("self_s",)),
    ("heatlab.thm35_forward", ("self_s",)),
    ("heatlab.thm35_converse_tail", ("self_s",)),
    ("heatlab.gauss_bessel_check", ("self_s",)),
    ("heatlab.lemma63_check", ("self_s",)),
    ("euclid.flat_synth_bandlimited", ("self_s",)),
    ("euclid.flat_gutzmer", ("self_s",)),
    ("euclid.flat_pw_check", ("self_s",)),
    ("containers.write_spd", ("self_s", "bytes")),
    ("containers.read_spd", ("self_s", "bytes")),
    ("containers.write_gfn", ("self_s", "bytes")),
    ("containers.read_gfn", ("self_s", "bytes")),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "elems": "count", "points": "count",
         "bytes": "B", "peak_mb": "MB", "repeat_ratio": "ratio"}
POINT_CONSTRUCTORS = ("heisenberg_core.HeisPoint", "heisenberg_core.ComplexPoint")
# metrics that are not a field of one span
EXTRA = (("cli.startup_s", "s"), ("cli.nonzero_exits", "count"),
         ("heisenberg_core.calls", "count"), ("trace.overhead_ratio", "ratio"))


def layer_metric_units() -> dict:
    out = {f"{span}.{f}": UNITS[f] for span, fields in LAYER_SPANS for f in fields}
    out.update(EXTRA)
    return out


def layer_metrics(process_spans, memory_spans, n_ops: int, traced_wall: float,
                  untraced_wall: float, cli_steps=()) -> dict:
    """Per-layer metrics, per traced op, from the spans of each traced process.

    process_spans: one span list per process of the timing pass (self time is
    computed within a process); memory_spans: the same for the tracemalloc
    pass, which gives the peaks.  cli_steps: (step wall, exit code, spans) per
    traced CLI child of the timing pass.
    """
    totals: dict = {}
    for spans in process_spans:
        merge_totals(totals, totals_by_name(spans))
    peaks: dict = {}
    for spans in memory_spans:
        merge_totals(peaks, totals_by_name(spans))
    values = {}
    for span, fields in LAYER_SPANS:
        t = totals.get(span, EMPTY_TOTALS)
        for f in fields:
            if f == "peak_mb":
                v = peaks.get(span, EMPTY_TOTALS)["peak_mb"]
            elif f == "repeat_ratio":
                v = t["repeats"] / t["calls"] if t["calls"] else 0.0
            elif f in ("elems", "points", "bytes"):
                v = t["count"] / n_ops
            else:
                v = t[f] / n_ops
            values[f"{span}.{f}"] = v
    startup = 0.0
    for wall, _, spans in cli_steps:
        startup += wall - sum(s.end - s.start for s in spans if s.name == "cli.main")
    values["cli.startup_s"] = startup / n_ops
    values["cli.nonzero_exits"] = sum(rc != 0 for _, rc, _ in cli_steps) / n_ops
    values["heisenberg_core.calls"] = sum(totals.get(n, EMPTY_TOTALS)["calls"]
                                          for n in POINT_CONSTRUCTORS) / n_ops
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    units = layer_metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}
