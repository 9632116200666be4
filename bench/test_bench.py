"""Tests for the benchmark's own helpers.

    python3 -m pytest bench/test_bench.py -q
"""

import pytest

from run import central_median, tail_latency
from tracing import Tracer, node_counts, self_times
from worker import CALIBRATION_REF_S, import_package, speed_factors

import_package()

from sympoisson import expr as ex  # noqa: E402
from sympoisson import geometry  # noqa: E402


def test_tail_is_the_value_with_ten_samples_beyond_it():
    assert tail_latency([float(v) for v in range(100, 0, -1)]) == (90.0, 90.0)
    value, pct = tail_latency([float(v) for v in range(11)])
    assert value == 0.0 and pct == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        tail_latency([1.0] * 10)


def test_central_median_averages_the_middle_fifth():
    assert central_median([5.0, 1.0, 3.0, 2.0, 4.0]) == 3.0
    assert central_median([float(v) for v in range(10)]) == 4.5
    # two clusters: the estimate stays between them instead of jumping to one
    assert central_median([1.0] * 5 + [3.0] * 5) == 2.0


def test_speed_factors_use_calibrations_within_one_operation_length():
    ref = CALIBRATION_REF_S
    calibrations = [(0.0, ref), (0.1, ref), (5.0, 2 * ref), (5.1, 2 * ref), (6.0, 2 * ref), (20.0, 4 * ref)]
    # a short operation sees only the calibrations at its ends
    assert speed_factors([(0.0, 0.1), (5.0, 5.1)], calibrations) == [1.0, 0.5]
    # the long operation [0.1, 5.0] also sees those within 4.9 s of it
    assert speed_factors([(0.1, 5.0)], calibrations) == [0.5]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("a", 0.0, 10.0, None),
        ("b", 1.0, 4.0, 0),
        ("c", 3.0, 6.0, 0),  # overlaps b: the union [1, 6] is covered once
        ("d", 2.0, 3.0, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_tracer_records_nesting_and_errors():
    tracer = Tracer()

    def inner(fail):
        if fail:
            raise RuntimeError
        return 1

    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: inner(False) + inner(False))
    tracer.op = 7
    assert outer() == 2
    with pytest.raises(RuntimeError):
        inner(True)
    names = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert names == [("outer", None, 7, False), ("inner", 0, 7, False), ("inner", 0, 7, False), ("inner", None, 7, True)]
    own = self_times(tracer.spans)
    assert own[0] <= tracer.spans[0][2] - tracer.spans[0][1]


def test_node_counts_on_a_shared_expression():
    x, y = ex.var(0), ex.var(1)
    xy = ex.mul(x, y)
    assert node_counts([ex.add(xy, xy)]) == (7, 4, 4)
    # separately built but equal subtrees are distinct objects, one structure
    assert node_counts([ex.add(ex.mul(x, y), ex.mul(ex.var(0), y))]) == (7, 6, 4)


def test_node_counts_on_the_killing_bracket():
    chart = geometry.Chart(["x", "y"])
    g = geometry.SymFormField.from_dict(
        chart, 2, {(0, 0): f"2 + {0.1:.6f}*x", (0, 1): f"{0.2:.6f}", (1, 1): f"2 + {-0.3:.6f}*y"}
    )
    ginv = geometry.invert_metric(g)
    bracket = geometry.schouten(geometry.levi_civita(g), ginv, geometry.raise_indices(ginv, g))
    assert node_counts(list(bracket.comps.flat)) == (53068, 978, 381)
