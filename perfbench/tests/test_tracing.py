"""Span arithmetic on synthetic trees, and the wrapper itself."""

from __future__ import annotations

import pytest

import tracing


def span(name, layer, start, end, parent):
    return [name, layer, start, end, parent]


TREE = [
    span("cli.main", "cli", 0.0, 10.0, -1),                        # 0
    span("modular.j_series", "modular", 1.0, 4.0, 0),              # 1
    span("series.UniSeries.__mul__", "series", 2.0, 3.0, 1),       # 2
    span("series.UniSeries.__rmul__", "series", 3.0, 3.5, 1),      # 3
    span("recursion.solve_from_seeds", "recursion", 3.5, 6.0, 0),  # 4 overlaps 1
    span("recursion.solve_from_seeds", "recursion", 4.0, 5.0, 4),  # 5 nested, same name
    span(tracing.OBSERVE, tracing.OBSERVE, 6.0, 6.5, 0),           # 6
]


def test_self_time_subtracts_the_union_of_children():
    selfs = tracing.self_times(TREE)
    # children of the root cover 1..6.5: the overlap 3.5..4 counts once
    assert selfs[0] == pytest.approx(10.0 - 5.5)
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(2.5 - 1.0)
    assert selfs[5] == pytest.approx(1.0)


def test_children_outside_the_parent_are_clipped():
    spans = [span("a", "cli", 0.0, 2.0, -1), span("b", "series", 1.5, 3.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_inclusive_time_counts_nested_same_name_spans_once():
    totals = tracing.inclusive_times(TREE)
    assert totals["recursion.solve_from_seeds"] == pytest.approx(2.5)
    assert totals["modular.j_series"] == pytest.approx(3.0)


def test_summarize_groups_layers_and_operators():
    out = tracing.summarize({"spans": TREE, "counters": {"series.terms_out": 7}})
    assert out["cli.self_s"] == pytest.approx(4.5)
    assert out["modular.self_s"] == pytest.approx(1.5)
    assert out["series.self_s"] == pytest.approx(1.5)
    assert out["recursion.self_s"] == pytest.approx(2.5)
    assert out["series.uni_mul.self_s"] == pytest.approx(1.5)
    assert out["series.uni_mul.calls"] == 2
    assert out["modular.j_series.calls"] == 1
    assert out["modular.j_series.s"] == pytest.approx(3.0)
    assert out["series.terms_out"] == 7
    # self times add up to 10.5 (two siblings overlap by 0.5); the
    # observer's 0.5 belongs to no layer
    layers = sum(out[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(10.5 - 0.5)
    assert f"{tracing.OBSERVE}.self_s" not in out


def test_wrapper_records_nesting_and_closes_spans_on_error():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_w = recorder.wrap(inner, "recursion.inner", "recursion")
    outer_w = recorder.wrap(lambda x: inner_w(x) + 1, "cli.outer", "cli")
    assert outer_w(2) == 3
    with pytest.raises(ValueError):
        outer_w(-1)
    names = [(s[0], s[4]) for s in recorder.spans]
    assert names == [("cli.outer", -1), ("recursion.inner", 0),
                     ("cli.outer", -1), ("recursion.inner", 2)]
    assert all(s[3] > s[2] for s in recorder.spans)
    assert recorder.stack == []
