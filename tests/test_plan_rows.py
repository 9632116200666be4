"""`Plan.rows`, the one located read of many points, and its three callers.

`rows` returns what a `Plan.values` loop over the points returns, and
raises what that loop raises first: the error of the first failing row,
whatever the table's root-first order would name.  `_SymField.evaluate_on`,
`poisson._commutator_table` and `pw._values_at` read their values through
it, so each raises at the same row.  Points of the wrong length are
refused before any evaluation.
"""

import math

import numpy as np
import pytest

from sympoisson import expr as ex
from sympoisson import poisson, pw
from sympoisson.geometry import Chart, Connection, GeometryError, SymTensorField

XY = Chart(["x", "y"])


def _field(*components):
    return SymTensorField.from_dict(XY, 1, dict(enumerate(components)))


def _loop(plan, points):
    return np.array([plan.values(p) for p in points])


# the root-first table names 1 / (x1 - 2) (root 0 fails at row 1); a loop
# over the rows meets ln(x1 - 1.5) at row 0 first
EARLIER_ROW = (("1/(x-2)", "ln(x-1.5)"), [[1.0, 0.0], [2.0, 0.0]], "ln of a non-positive argument in subterm 'ln(x1 - 1.5)'")
# row 1 overflows in ** (the table reads inf there); row 2 is a domain
# error that the table raises on, root-first and naming ln(x1)
OVERFLOW_FIRST = (("x^401", "ln(x)"), [[1.0, 0.0], [1000.0, 0.0], [-1.0, 0.0]], "overflow in subterm 'x1^401'")


@pytest.mark.parametrize("components, samples, message", [EARLIER_ROW, OVERFLOW_FIRST], ids=["domain", "overflow"])
def test_the_first_failing_row_raises(components, samples, message):
    field = _field(*components)
    plan = field.plan()
    with pytest.raises(ex.EvalDomainError) as table_err:
        plan.table(samples)
    assert str(table_err.value) != message
    with pytest.raises(ex.EvalDomainError) as loop_err:
        _loop(plan, samples)
    assert str(loop_err.value) == message
    for read in (plan.rows, field.evaluate_on, lambda s: poisson._commutator_table([field], s, 2),
                 lambda s: pw._values_at(list(field.comps), np.array(s))):
        with pytest.raises(ex.EvalDomainError) as err:
            read(samples)
        assert str(err.value) == message and err.value.node is loop_err.value.node


def test_an_overflow_in_power_at_a_later_row_raises_there():
    field = _field("x^401", "y")
    samples = [[1.0, 0.0], [1000.0, 0.0]]
    values, scales = field.plan().table(samples)
    assert np.isfinite(scales[0]).all() and values[1, 0] == math.inf
    for read in (field.plan().rows, field.evaluate_on, lambda s: poisson._commutator_table([field], s, 2)):
        with pytest.raises(ex.EvalDomainError, match="overflow in subterm 'x1\\^401'"):
            read(samples)


def test_an_infinity_no_row_raises_on_is_returned():
    field = _field("1e200 * x", "y")
    samples = [[1.0, 0.5], [1e200, -0.5]]
    want = [[1e200, 0.5], [math.inf, -0.5]]
    assert _loop(field.plan(), samples).tolist() == want
    assert field.plan().rows(samples).tolist() == want
    assert field.evaluate_on(samples).tolist() == want
    assert pw._values_at(list(field.comps), np.array(samples)).tolist() == want
    # the commutator table refuses a value that is not finite by name
    with pytest.raises(ex.EvalDomainError, match="a commutator is not finite at"):
        poisson._commutator_table([field], samples, 2)


def test_rows_equal_the_point_loop_bit_for_bit():
    field = _field("exp(x*y) - sin(x)^3 / (2 + cos(y))", "sqrt(1 + x^2) * ln(2 + y)")
    samples = XY.sample_points()
    got = field.plan().rows(samples)
    assert np.array_equal(got.view(np.uint64), _loop(field.plan(), samples).view(np.uint64))


# ---------------------------------------------------------------------------
# points of the wrong length
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0)])
def test_gamma_at_refuses_a_point_of_the_wrong_length(point):
    conn = Connection.from_dict(XY, {(0, 0, 1): "1/x"})
    assert conn.gamma_at((2.0, 1.0))[0, 1, 0] == 0.5
    with pytest.raises(GeometryError, match="points of shape"):
        conn.gamma_at(point)


@pytest.mark.parametrize("point", [(1.0,), (1.0, 2.0, 3.0)])
def test_a_scalar_field_refuses_a_point_of_the_wrong_length(point):
    f = ex.parse("x*y", ["x", "y"])
    assert f((1.0, 2.0)) == 2.0
    with pytest.raises(ex.ExprError, match="arity 2"):
        f(point)
