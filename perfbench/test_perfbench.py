"""Self-tests of the benchmark: python -m pytest perfbench -q"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import worker  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times, wrapped_targets  # noqa: E402
from stats import tail  # noqa: E402
from workloads import WORKLOADS, compare_reference  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 2.0, 3.0, parent=1),   # grandchild: counts against a only
        Span("c", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_children():
    spans = [Span("op", 0.0, 10.0), Span("a", 1.0, 6.0, parent=0),
             Span("b", 4.0, 8.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tail_takes_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 101))  # 100 samples: p90 has exactly 10 beyond
    assert tail(samples) == (90.0, 90, 100)
    assert sum(s > 90 for s in samples) == 10
    assert tail(list(range(1, 100)))[0] == 75.0  # p90 would leave 9
    assert tail(list(range(1, 451))) == (90.0, 405, 450)
    assert tail(list(range(1, 1001)))[:2] == (99.0, 990)
    assert tail(list(range(1, 21)))[:2] == (50.0, 10)
    with pytest.raises(ValueError):
        tail(list(range(1, 20)))


def test_layer_metrics_count_outcomes_and_ratios():
    spans = [Span("experiments.trial", 0.0, 1.0),
             Span("discrepancy.exact", 0.1, 0.3, parent=0,
                  counts={"evaluations": 100, "found": 1}),
             Span("discrepancy.exact", 0.4, 0.6, parent=0,
                  counts={"evaluations": 100, "found": 0})]
    m = layer_metrics(spans)
    assert m["discrepancy.exact.calls"] == 2
    assert m["discrepancy.found_ratio"] == 0.5
    assert m["discrepancy.exact.ns_per_eval"] == pytest.approx(2e6)
    assert m["experiments.trial.self_ms"] == pytest.approx(600.0)


def test_reference_check_flags_a_perturbed_row():
    w = WORKLOADS["tree_exact"]
    ops = w.build_ops(0, 1)
    ctx = w.context(0, HERE)
    out = [w.run_op(ctx, ops[0])]
    good = json.loads(json.dumps(w.canonical(ops[0], out[0])))
    assert worker.check_all(w, ctx, ops, out, {}, [good]) == {}
    nudged = dict(good, lp_value=good["lp_value"] * (1 + 1e-12))
    assert worker.check_all(w, ctx, ops, out, {}, [nudged]) == {}
    for key, value in (("lp_value", good["lp_value"] * (1 + 1e-6)),
                       ("tree_size", good["tree_size"] + 1)):
        bad = dict(good, **{key: value})
        failures = worker.check_all(w, ctx, ops, out, {}, [bad])
        assert list(failures) == [0] and key in failures[0]


@pytest.fixture(scope="module")
def round_cert_op():
    w = WORKLOADS["round_cert"]
    return w, w.context(0, HERE), w.build_ops(0, 1)


def _fake_bail_out(*args, **kwargs):
    from giplab import rounding

    raise rounding.PoolTooSmallError("injected")


def _fake_no_search(instance):
    from giplab.discrepancy import DiscOutcome

    return DiscOutcome(found=False, subset=(), deviation=float("inf"), evaluations=0)


@pytest.mark.parametrize("attr, fake, outcome", [
    ("round_pipeline", _fake_bail_out, "pool_too_small"),
    ("disc_exact", _fake_no_search, "search_skipped"),
])
def test_round_cert_flags_an_op_that_skips_the_search(monkeypatch, round_cert_op,
                                                      attr, fake, outcome):
    # either way the record reads round_ok=False, like a failed search
    from giplab import rounding

    w, ctx, ops = round_cert_op
    monkeypatch.setattr(rounding, attr, fake)
    out = [w.run_op(ctx, ops[0])]
    assert out[0].round_ok is False and out[0].status == "cert_bound"
    assert w.observe(ctx, ops[0], out[0]) == {"outcome": outcome}
    failures = worker.check_all(w, ctx, ops, out, {}, None)
    assert list(failures) == [0] and outcome in failures[0]
    assert wrapped_targets() == []


def test_lp_cli_reference_leaves_out_the_pivot_count():
    with open(os.path.join(HERE, "reference", "lp_cli.json"), encoding="utf-8") as fh:
        rows = json.load(fh)["ops"]
    assert rows and all("pivots" not in row and "value" in row for row in rows)


def test_metric_names_match_benchmark_json():
    import run

    assert set(layer_metrics([])) | {"trace.overhead"} == set(run.declared_units(1))
    assert set(run.declared_units(0)) == {
        "ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"}


def test_compare_reference_is_exact_on_discrete_fields():
    assert compare_reference({"a": [1, "x"]}, {"a": [1, "x"]}) == []
    assert compare_reference({"a": 1}, {"a": 1.0}) != []
    assert compare_reference({"a": None}, {"a": 0.0}) != []
    assert compare_reference({"a": 1}, {"b": 1}) != []


def test_untraced_run_installs_no_wrapper(monkeypatch):
    w = WORKLOADS["tree_exact"]
    seen = []
    run_op = type(w).run_op

    def spy(self, ctx, op):
        seen.append(wrapped_targets())
        return run_op(self, ctx, op)

    monkeypatch.setattr(type(w), "run_op", spy)
    ops = w.build_ops(1, 24)
    res = worker.untraced(w, w.context(1, HERE), ops, 5.0, 1)
    assert res["failed"] == 0 and res["attempted"] == 24 and res["problems"] == []
    assert len(seen) == 25 and all(s == [] for s in seen)  # warm-up + 24 ops


def test_tracer_restores_every_attribute():
    import importlib

    from spans import TARGETS

    originals = [getattr(importlib.import_module(m), a) for m, a, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    assert len(wrapped_targets()) == len(TARGETS)
    tracer.uninstall()
    assert wrapped_targets() == []
    assert all(getattr(importlib.import_module(m), a) is o
               for (m, a, _), o in zip(TARGETS, originals))


def test_calibrator_scales_to_reference_speed(monkeypatch):
    import calibrate

    ref = calibrate.REFERENCE_S
    cal = calibrate.Calibrator()
    times = iter([2.0 * ref, 4.0 * ref, 3.0 * ref])
    monkeypatch.setattr(cal, "kernel", lambda: next(times))
    cal.tick()
    cal.tick()                                     # not due: no new sample
    assert cal.samples == [2.0 * ref]
    assert cal.scale() == pytest.approx(0.5)       # machine at half speed
    cal.tick(force=True)
    cal.tick(force=True)
    assert cal.scale() == pytest.approx(1 / 3)     # median of 2, 4 and 3

    cal.times, cal.samples = [10.0, 11.0], [ref, 3.0 * ref]
    assert cal.scale_at(10.5) == pytest.approx(0.5)    # interpolated: 2
    assert cal.scale_at(9.0) == pytest.approx(1.0)     # clamped to the ends
    assert cal.scale_at(12.0) == pytest.approx(1 / 3)
