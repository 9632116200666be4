"""Entries given as {index: value}, points of the wrong width, and a
commutator that overflows.

`geometry._fill` writes every dict of given entries: symmetric fields,
connections, left-invariant thetas and connections, and structure
constants.  It stores each value at every permutation of the symmetric
axes (negated at odd ones for Lie constants) and refuses an index that
names no entry or a second key for one slot, with the caller's error.
"""

import contextlib
import io
import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from sympoisson import cli, jj, liealg, poisson, registry
from sympoisson import expr as ex
from sympoisson.geometry import Chart, Connection, GeometryError, SymTensorField, _fill
from sympoisson.jj import AlgebraError, CommutativeAlgebra
from sympoisson.liealg import LeftInvariantSymTensor, LieAlgebra, LieAlgebraError

R2 = Chart(["x", "y"])


class _Refused(Exception):
    pass


def _odd(perm):
    """The parity of a permutation from its cycles: n minus the cycle count."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return (len(perm) - cycles) % 2


@st.composite
def fills(draw):
    """(shape, sym, sign, entries): at most one key per slot, and for sign -1
    no key whose symmetric axes repeat an index."""
    ndim = draw(st.integers(0, 4))
    sym = draw(st.integers(0, ndim))
    n = draw(st.integers(1, 3))
    sign = draw(st.sampled_from([1, -1]))
    head = ndim - sym
    entries, slots = {}, set()
    keys = st.tuples(*[st.integers(0, n - 1)] * ndim)
    for key, v in draw(st.lists(st.tuples(keys, st.integers(-5, 5)), max_size=6)):
        slot = key[:head] + tuple(sorted(key[head:]))
        if slot in slots or (sign < 0 and len(set(key[head:])) < sym):
            continue
        slots.add(slot)
        entries[key] = v
    return (n,) * ndim, sym, sign, entries


@settings(max_examples=150, deadline=None)
@given(fills())
def test_fill_stores_each_value_at_every_permutation_of_the_symmetric_axes(drawn):
    shape, sym, sign, entries = drawn
    out = np.full(shape, Fraction(0), dtype=object)
    assert _fill(out, entries, Fraction, sym, _Refused, sign) is out
    head = len(shape) - sym
    want = np.full(shape, Fraction(0), dtype=object)
    for key, v in entries.items():
        for perm in itertools.permutations(range(sym)):
            cell = key[:head] + tuple(key[head + t] for t in perm)
            want[cell] = Fraction(v) * (sign if _odd(perm) else 1)
            if sign > 0:
                assert out[cell] is out[key]
    assert (out == want).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.data())
def test_a_symmetric_field_stores_one_node_per_slot(degree, data):
    chart = Chart(["x", "y", "z"])
    sorted_idx = list(itertools.combinations_with_replacement(range(3), degree))
    chosen = data.draw(st.lists(st.sampled_from(sorted_idx), unique=True, max_size=4))
    entries = {tuple(data.draw(st.permutations(idx))): f"{k} + x*y" for k, idx in enumerate(chosen)}
    field = SymTensorField.from_dict(chart, degree, entries)
    for key, text in entries.items():
        for perm in itertools.permutations(key):
            assert field.comps[perm] is chart.parse(text).expr
    given_cells = {perm for key in entries for perm in itertools.permutations(key)}
    assert all(field.comps[idx] is ex.ZERO for idx in np.ndindex(field.comps.shape) if idx not in given_cells)


@pytest.mark.parametrize(
    "entries",
    [
        {(0, 1): 1},  # short
        {1: 1},  # an int is a 1-tuple: short
        {(0, 1, 2, 0): 1},  # long
        {(0, -1, 2): 1},  # negative
        {(0, 3, 1): 1},  # out of range
        {(0, 1.0, 2): 1},  # not an integer
        {(0, "1", 2): 1},
        {(0, 1, 2): 1, (0, 2, 1): 2},  # one slot twice
        {(1, 2, 0): 1, (1, 0, 2): 1},  # even with one value
    ],
)
def test_fill_refuses_an_index_that_names_no_entry_or_a_slot_twice(entries):
    out = np.zeros((3, 3, 3), dtype=object)
    with pytest.raises(_Refused, match="names no entry|name the same entry"):
        _fill(out, entries, int, 2, _Refused)


def test_fill_takes_numpy_integers_and_an_int_for_a_1_tuple():
    out = _fill(np.zeros((3, 3), dtype=object), {(np.int64(0), np.int32(2)): 5}, int, 2, _Refused)
    assert out[0, 2] == out[2, 0] == 5
    assert list(_fill(np.zeros(3, dtype=object), {np.int64(1): 4, 2: 6}, int, 1, _Refused)) == [0, 4, 6]


# ---------------------------------------------------------------------------
# each dict fill refuses what `_fill` refuses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda: SymTensorField.from_dict(R2, 2, {(-1, 0): "x"}),
        lambda: SymTensorField.from_dict(R2, 2, {(2, 0): "x"}),
        lambda: SymTensorField.from_dict(R2, 2, {(0, 1): "x", (1, 0): "y"}),
        lambda: SymTensorField.from_dict(R2, 2, {(0,): "x"}),
        lambda: Connection.from_dict(R2, {(0, -1, 0): "x"}),
        lambda: Connection.from_dict(R2, {(2, 0, 0): "x"}),
        lambda: Connection.from_dict(R2, {(0, 0, 1): "1", (0, 1, 0): "5"}),
    ],
    ids=["sym-negative", "sym-out-of-range", "sym-slot-twice", "sym-short",
         "conn-negative", "conn-out-of-range", "conn-slot-twice"],
)
def test_chart_fills_refuse_bad_indices(build):
    with pytest.raises(GeometryError, match="names no entry|name the same entry"):
        build()


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: LeftInvariantSymTensor.from_dict(2, 2, {(0, 1): 1, (1, 0): 2}), LieAlgebraError),
        (lambda: LeftInvariantSymTensor.from_dict(2, 2, {(0, -1): 1}), LieAlgebraError),
        (lambda: CommutativeAlgebra.from_products(2, {(0, 1): {0: 1}, (1, 0): {0: 2}}), AlgebraError),
        (lambda: CommutativeAlgebra.from_products(2, {(0, 1): {2: 1}}), AlgebraError),
        (lambda: LieAlgebra.from_brackets(2, {(0, 1): {1: 1}, (1, 0): {1: 1}}), LieAlgebraError),
        (lambda: liealg.left_invariant_connection(liealg.algebra("aff1"), {(0, 0, -1): 1}), LieAlgebraError),
    ],
    ids=["theta-slot-twice", "theta-negative", "products-slot-twice", "products-out-of-range",
         "brackets-slot-twice", "connection-negative"],
)
def test_exact_fills_refuse_bad_indices(build, error):
    with pytest.raises(error, match="names no entry|name the same entry"):
        build()


def test_constants_given_in_either_order_are_the_same_algebra():
    assert LieAlgebra.from_brackets(2, {(1, 0): {1: -1}}).c.tolist() == liealg.algebra("aff1").c.tolist()
    swapped = CommutativeAlgebra.from_products(4, {(0, 0): {3: 1}, (1, 0): {2: 1}})
    assert swapped == jj.catalog_entry("dim4_4").algebra


# ---------------------------------------------------------------------------
# points and sample sets of the wrong width
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "call",
    [
        lambda pair: pair.theta.evaluate((0.5, 0.6, 9.0)),
        lambda pair: poisson.characteristic_data(pair.theta, (0.5,)),
        lambda pair: poisson.involutivity_check(pair, samples=np.zeros((3, 1))),
        lambda pair: poisson.involutivity_check(pair, samples=np.zeros((3, 3))),
        lambda pair: pair.theta.residual_on(np.zeros((3, 3))),
        lambda pair: poisson.parallel_residual(pair, np.zeros((3, 1))),
        lambda pair: pair.theta.evaluate_on(np.zeros(2)),
    ],
    ids=["evaluate-long", "characteristic-short", "involutivity-narrow", "involutivity-wide",
         "residual-wide", "mixed-residual-narrow", "table-one-point"],
)
def test_points_of_the_wrong_width_are_refused(call):
    with pytest.raises(GeometryError, match="on a chart of dimension 2"):
        call(registry.build("rotation"))


# ---------------------------------------------------------------------------
# a commutator that overflows
# ---------------------------------------------------------------------------

OVERFLOW = """[chart]
dim = 2
names = x, y
box = 1e120:2e120, -1:1

[theta]
theta[1,1] = "x^2"
theta[2,2] = "x^2"
"""


def test_an_overflowing_commutator_is_a_numeric_failure(tmp_path):
    path = tmp_path / "overflow.ini"
    path.write_text(OVERFLOW)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as seen, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(["check", str(path)])
    assert code == 3, out.getvalue() + err.getvalue()
    assert err.getvalue().startswith("error: a commutator is not finite at (1.")
    assert err.getvalue().endswith("in subterm '[theta(dx), theta(dy)]^y'\n")
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# li_is_involutive against one bracket at a time
# ---------------------------------------------------------------------------

_VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["abelian_2", "so3", "aff1", "aff1xR", "heisenberg3"]), st.data())
def test_li_is_involutive_matches_the_pairwise_route(ident, data):
    g = liealg.algebra(ident)
    idx = st.integers(0, g.dim - 1)
    drawn = data.draw(st.lists(st.tuples(st.tuples(idx, idx), _VALUES), max_size=4))
    theta = LeftInvariantSymTensor.from_dict(g.dim, 2, {tuple(sorted(ij)): v for ij, v in drawn})
    assert liealg.li_is_involutive(theta, g) == reference.involutive_pairwise(g.c, theta.comps)


@pytest.mark.parametrize(
    "ident,entries,want",
    [
        ("so3", {(0, 0): 1, (1, 1): 1}, False),  # [X0, X1] = X2 leaves the span
        ("heisenberg3", {(0, 0): 1, (1, 1): 1}, False),
        ("heisenberg3", {(0, 0): 1, (2, 2): Fraction(1, 3)}, True),
        ("aff1xR", {(0, 0): 1, (1, 1): 2}, True),  # [X0, X1] = X1 stays
        ("so3", {(0, 0): 1, (1, 1): 1, (2, 2): 1}, True),
    ],
)
def test_li_is_involutive_on_known_spans(ident, entries, want):
    g = liealg.algebra(ident)
    theta = LeftInvariantSymTensor.from_dict(g.dim, 2, entries)
    assert liealg.li_is_involutive(theta, g) is want
    assert reference.involutive_pairwise(g.c, theta.comps) is want
