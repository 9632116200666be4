"""`Plan.table`, the one runner over many points, and its callers.

`table` runs a plan over many points with the operations of `Plan.values`,
so its values are what a `values` loop over the points returns, and where
a node fails it raises what that loop raises first: the error of the first
failing row, an overflow in ``**`` included.  `Plan.residual` raises the
same error, and `_SymField.evaluate_on` reads its values through `table`,
so it raises at the same row; so does `poisson.involutivity_check`, which
reads the jet table of theta and its derivatives.  Points of the wrong
length are refused before any evaluation.
"""

import math

import numpy as np
import pytest

from sympoisson import expr as ex
from sympoisson import poisson
from sympoisson.geometry import Chart, Connection, GeometryError, SymTensorField

XY = Chart(["x", "y"])


def _field(*components):
    return SymTensorField.from_dict(XY, 1, dict(enumerate(components)))


def _pair(*diagonal):
    """The flat pair whose theta is diagonal with these entries."""
    theta = SymTensorField.from_dict(XY, 2, {(i, i): e for i, e in enumerate(diagonal)})
    return poisson.SymPoissonPair(theta, Connection.euclidean(XY))


def _loop(plan, points):
    return np.array([plan.values(p) for p in points])


# root 0, 1 / (x1 - 2), fails only at row 1; ln(x1 - 1.5) fails at row 0,
# which a loop over the rows meets first
EARLIER_ROW = (("1/(x-2)", "ln(x-1.5)"), [[1.0, 0.0], [2.0, 0.0]], "ln of a non-positive argument in subterm 'ln(x1 - 1.5)'")
# row 1 overflows in **, row 2 is a domain error: row 1 is the first to raise
OVERFLOW_FIRST = (("x^401", "ln(x)"), [[1.0, 0.0], [1000.0, 0.0], [-1.0, 0.0]], "overflow in subterm 'x1^401'")


@pytest.mark.parametrize("components, samples, message", [EARLIER_ROW, OVERFLOW_FIRST], ids=["domain", "overflow"])
def test_the_first_failing_row_raises(components, samples, message):
    field = _field(*components)
    plan = field.plan()
    with pytest.raises(ex.EvalDomainError) as loop_err:
        _loop(plan, samples)
    assert str(loop_err.value) == message
    for read in (plan.table, plan.residual, field.residual_on, lambda s: plan.table(s)[0], field.evaluate_on,
                 lambda s: poisson.involutivity_check(_pair(*components), s)):
        with pytest.raises(ex.EvalDomainError) as err:
            read(samples)
        assert str(err.value) == message and err.value.node is loop_err.value.node


def test_an_overflow_in_power_at_a_later_row_raises_there():
    field = _field("x^401", "y")
    samples = [[1.0, 0.0], [1000.0, 0.0]]
    with pytest.raises(ex.EvalDomainError) as loop_err:
        _loop(field.plan(), samples)
    assert str(loop_err.value) == "overflow in subterm 'x1^401'"
    for read in (field.plan().table, field.plan().residual, field.residual_on, field.evaluate_on,
                 lambda s: poisson.involutivity_check(_pair("x^401", "y"), s)):
        with pytest.raises(ex.EvalDomainError) as err:
            read(samples)
        assert str(err.value) == str(loop_err.value) and err.value.node is loop_err.value.node


def test_an_infinity_no_row_raises_on_is_returned():
    field = _field("1e200 * x", "y")
    samples = [[1.0, 0.5], [1e200, -0.5]]
    want = [[1e200, 0.5], [math.inf, -0.5]]
    assert _loop(field.plan(), samples).tolist() == want
    assert field.plan().table(samples)[0].tolist() == want
    assert field.evaluate_on(samples).tolist() == want


def test_a_commutator_no_row_raises_on_is_refused_by_name():
    # theta = x^2 (dx^2 + dy^2) is finite at x = 1e120, where the commutator
    # [theta(dx), theta(dy)]^y = x^2 (2 x) overflows in a product
    pair = _pair("x^2", "x^2")
    samples = [[1.0, 0.5], [1e120, -0.5]]
    message = "a commutator is not finite at (1e+120, -0.5) in subterm '[theta(dx), theta(dy)]^y'"
    with pytest.raises(ex.EvalDomainError) as err:
        poisson.involutivity_check(pair, samples)
    assert str(err.value) == message


def test_rows_equal_the_point_loop_bit_for_bit():
    field = _field("exp(x*y) - sin(x)^3 / (2 + cos(y))", "sqrt(1 + x^2) * ln(2 + y)")
    samples = XY.sample_points()
    got = field.plan().table(samples)[0]
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
