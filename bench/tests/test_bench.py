"""Tests of the benchmark itself (not of gutzmerlab).

    python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import measure
import run
import tracer
import workloads
from gutzmerlab.grids import QuadratureSpec

BENCH = Path(__file__).resolve().parent.parent
SMALL = dict(nx=40, lx=10.0, nt=64, nodes_per_A=8, margin_nodes=2, kmax=8, beta_cap=24)


def span(sid, name, parent, start, end):
    return tracer.Span(sid, name, parent, start, end)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_on_hand_built_tree():
    spans = [
        span(0, "root", None, 0.0, 10.0),
        span(1, "a", 0, 1.0, 4.0),
        span(2, "b", 0, 3.0, 6.0),      # overlaps a (worker thread): union counts once
        span(3, "c", 0, 8.0, 12.0),     # runs past its parent: clipped to the parent
        span(4, "a", 1, 2.0, 3.0),      # grandchild of root, child of a
    ]
    st = tracer.self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(4.0)
    assert st[4] == pytest.approx(1.0)
    totals = tracer.totals_by_name(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["self_s"] == pytest.approx(3.0)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(13.0)


def test_merge_totals_adds_counts_and_keeps_largest_peak():
    a = {"x": {"calls": 1, "self_s": 1.0, "count": 5, "peak_mb": 3.0, "repeats": 0}}
    b = {"x": {"calls": 2, "self_s": 0.5, "count": 1, "peak_mb": 2.0, "repeats": 1}}
    out = tracer.merge_totals(tracer.merge_totals({}, a), b)
    assert out["x"] == {"calls": 3, "self_s": 1.5, "count": 6, "peak_mb": 3.0, "repeats": 1}


def test_nested_memory_peaks():
    t = tracer.Tracer(targets=())
    tracemalloc.start()
    try:
        outer = t._open("outer", memory=True)
        keep = np.ones(250_000)                     # 2 MB held by the outer span
        inner = t._open("inner", memory=True)
        tmp = np.ones(1_000_000)                    # 8 MB, freed inside the inner span
        del tmp
        t._close(inner)
        t._close(outer)
    finally:
        tracemalloc.stop()
    del keep
    assert 7.9 < inner.peak_mb < 9.0
    assert outer.peak_mb >= 2.0 + inner.peak_mb - 0.1


# ---------------------------------------------------------------------------
# op_tail_s
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, pct, beyond", [
    (1, 50.0, 0), (5, 50.0, 2), (19, 50.0, 9), (20, 50.0, 10), (40, 75.0, 10),
    (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10)])
def test_tail_percentile_rule(n, pct, beyond):
    xs = np.random.default_rng(n).permutation(np.arange(1.0, n + 1.0))
    value, p, count = measure.tail(xs)
    assert (p, count) == (pct, beyond)
    assert value == pytest.approx(np.percentile(xs, p))


def test_tail_of_few_samples_is_the_median():
    assert measure.tail([3.0, 1.0, 2.0, 10.0])[0] == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# inputs from the seed
# ---------------------------------------------------------------------------

def test_one_seed_gives_identical_inputs():
    spec2 = QuadratureSpec(**workloads.N2_SPEC)
    s1, f1 = workloads.analysis_inputs(5, 3, spec2)
    s2, f2 = workloads.analysis_inputs(5, 3, spec2)
    assert s1 == s2 and np.array_equal(f1.samples, f2.samples)
    s3, f3 = workloads.analysis_inputs(6, 3, spec2)
    assert s3 != s1 and not np.array_equal(f3.samples, f1.samples)
    assert workloads.orbital_point(5, 3) == workloads.orbital_point(5, 3)
    assert workloads.orbital_point(5, 3) != workloads.orbital_point(5, 4)
    assert workloads.chain_inputs(5, 3) == workloads.chain_inputs(5, 3)
    assert [workloads.chain_inputs(5, i)[:2] for i in range(4)] == list(workloads.CLI_BANDS) * 2
    assert workloads.draw_seed(5, workloads.FIXTURE) == workloads.draw_seed(5, workloads.FIXTURE)


def test_orbital_points_stay_in_the_criterion_box():
    for i in range(200):
        y, v, eta = workloads.orbital_point(11, i)
        assert np.hypot(y, v) <= 1.5 and abs(eta) <= 1.0


# ---------------------------------------------------------------------------
# checks and fail_ratio
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_analysis():
    return workloads.Analysis(3, spec=QuadratureSpec(**SMALL))


@pytest.fixture(scope="module")
def small_orbital():
    w = workloads.GutzmerOrbital(3, spec=QuadratureSpec(**SMALL))
    _, w.sd = workloads.spectral.synth_bandlimited(*workloads.N1_BAND, 3, spec=w.spec)
    return w


@pytest.fixture(scope="module")
def one_chain(tmp_path_factory):
    return workloads.CliChain(3, tmp_path_factory.mktemp("chain")).op(0)


def assert_each_check_counts(result):
    """Every check passes, and each one forced to fail makes its op a failure."""
    assert result.checks and all(result.checks.values())
    for name in result.checks:
        forced = dataclasses.replace(result, checks={**result.checks, name: False})
        tally = run.Tally()
        tally.run(lambda: forced)
        tally.run(lambda: result)
        assert (tally.attempted, tally.failed, tally.fail_ratio) == (2, 1, 0.5), name


def test_analysis_checks_count(small_analysis):
    assert_each_check_counts(small_analysis.op(0))


def test_orbital_checks_count(small_orbital):
    assert_each_check_counts(small_orbital.op(0))


def test_cli_chain_checks_count(one_chain):
    assert len([n for n in one_chain.checks if n.endswith(".exit")]) == 7
    assert_each_check_counts(one_chain)
    assert one_chain.bytes_written > 0
    assert len(one_chain.checksum[2]) == len(one_chain.checksum[3]) == 64


@pytest.mark.parametrize("name", ["plancherel_n1", "inversion_n1", "plancherel_n2",
                                  "gutzmer_relerr"])
def test_tolerance_checks_fail_at_negative_tolerance(name, small_analysis, small_orbital,
                                                     monkeypatch):
    monkeypatch.setitem(workloads.TOL, name, -1.0)
    w = small_orbital if name == "gutzmer_relerr" else small_analysis
    result = w.op(1)
    assert result.checks[name] is False
    tally = run.Tally()
    tally.run(lambda: result)
    assert tally.fail_ratio == 1.0


def test_an_op_that_raises_is_a_failure():
    def boom():
        raise ValueError("bad input")

    tally = run.Tally()
    assert tally.run(boom) is None
    assert (tally.attempted, tally.failed) == (1, 1)


# ---------------------------------------------------------------------------
# wrapper hygiene
# ---------------------------------------------------------------------------

def test_targets_are_public():
    for t in tracer.TARGETS:
        for part in t.attr.split("."):
            assert not part.startswith("_") or (part.startswith("__") and part.endswith("__"))


def test_install_and_remove_restore_every_attribute(small_analysis):
    before = tracer.attribute_snapshot()
    t = tracer.Tracer()
    with t.installed():
        during = tracer.attribute_snapshot()
        assert not tracer.same_attributes(before, during)
        from gutzmerlab import hermite_modes, specfun

        assert hermite_modes.laguerre_all is specfun.laguerre_all
        assert hermite_modes.laguerre_all.__wrapped__ is before[("gutzmerlab.specfun",
                                                                  "laguerre_all")]
        traced = small_analysis.op(2)
    assert tracer.same_attributes(before, tracer.attribute_snapshot())
    assert traced.checksum == small_analysis.op(2).checksum
    names = {s.name for s in t.spans}
    assert {"spectral.analyze.n1", "spectral.analyze.n2", "spectral.synth_bandlimited",
            "hermite_modes.basis_matrix", "specfun.laguerre_all"} <= names


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_names_what_the_runner_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == measure.layer_metric_units()
