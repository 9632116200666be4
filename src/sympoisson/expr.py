"""A small expression engine: parsing, exact differentiation, evaluation.

Every coordinate field in the toolkit is an immutable expression tree over

    real constants, variables (by index), + - * /, ^ with a constant integer
    exponent, and the unary functions exp, ln, sin, cos, sqrt, neg.

The concrete grammar (ASCII) accepted by :func:`parse`:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' int)?
    base   := number | ident | func '(' expr ')' | '(' expr ')' | '-' base
    func   := exp | ln | sin | cos | sqrt

Each text is scanned once into a token list, which a recursive-descent
parser reads by index; it nests at most 200 unary minuses, parentheses and
function arguments one inside another.  Identifiers bind to the declared
coordinate names, in order.  Differentiation is symbolic with constant
folding only; there is no simplification to a canonical form.  Zero-testing
is done by sampling (see :func:`is_zero_field`).

Nodes are interned (hash-consed): while a node is alive, building the same
structure again, by any constructor, returns that node, so a tree is a DAG
with maximal sharing.  Each node stores its largest variable index when it is
interned, so `Expr.max_var` is one read.  `Expr.diff` is memoised per node and
variable, so differentiating a DAG costs one rule per distinct node.

An evaluation plan (`Plan`) has two runners with one failure rule:
`Plan.values` at one point and `Plan.table` over many samples.  A node fails
where its Python float operation raises (a domain error, or an overflow in
``**`` or exp), and either runner raises a located EvalDomainError naming it.
"""

from __future__ import annotations

import math
import operator
import struct
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .defaults import N_SAMPLES, SEED, TOL


class ExprError(Exception):
    """Base class for expression-engine errors."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalDomainError(ExprError):
    """Evaluation left the function's domain (log/sqrt/division) or overflowed.

    `subterm` is the failing node, or its text; `reason` is the message
    without the subterm.  `sample` is the index of the sample `Plan.table`
    found it at, and None where no table raised it.
    """

    sample: int | None = None

    def __init__(self, message: str, subterm: "Expr | str"):
        super().__init__(f"{message} in subterm '{subterm}'")
        self.reason = message
        self.subterm = str(subterm)
        self.node = subterm if isinstance(subterm, Expr) else None

    def named(self, names: Sequence[str] | None) -> str:
        """The message with the subterm printed in the given coordinate names."""
        if self.node is None:
            return str(self)
        return f"{self.reason} in subterm '{self.node.to_string(names)}'"


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

_FUNCS: dict[str, Callable[[float], float]] = {
    "exp": math.exp,
    "ln": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
}


class Expr:
    """Immutable, interned expression node.  Construct via the helper functions below.

    Each kind's constructor returns the live node of the same structure if
    there is one, so structurally equal nodes are one object and compare,
    hash and deduplicate by identity.
    """

    __slots__ = ("_dmemo", "_max_var", "__weakref__")

    def diff(self, index: int) -> "Expr":
        """The derivative in variable `index`, built once per node and index."""
        memo = self._dmemo
        if memo is None:
            memo = {}
            _set_dmemo(self, memo)
        d = memo.get(index)
        if d is None:
            d = memo[index] = self._diff(index)
        return d

    def _diff(self, index: int) -> "Expr":
        raise NotImplementedError

    def max_var(self) -> int:
        """Largest variable index used, or -1 for constant expressions."""
        return self._max_var

    def to_string(self, names: Sequence[str] | None = None) -> str:
        return _print(self, names, _PREC_EXPR)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Expr({self.to_string()})"

    def __reduce__(self):
        # copy and pickle rebuild through the interning constructor
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


# The intern table: one entry per live node.  A key is the node's kind, its
# payload and the ids of its children; the node holds its children, so those
# ids stay unique while the entry can be found.  A value is a weak reference
# that removes its entry when the node dies.
class _Ref(weakref.ref):
    __slots__ = ("key",)


_NODES: dict[tuple, _Ref] = {}
_float_bits = struct.Struct("<d").pack
_set_dmemo = Expr._dmemo.__set__
_set_max_var = Expr._max_var.__set__


def _forget(ref: _Ref) -> None:
    # a newer node of the same structure may already hold the key
    if _NODES.get(ref.key) is ref:
        _NODES.pop(ref.key, None)


def _intern(cls, key: tuple, max_var: int, *values) -> Expr:
    """The live node entered under `key`; else a new node of kind `cls` with
    the given largest variable index (-1 for a constant, else the variable's
    own or the largest of the children's) and field values, entered there."""
    ref = _NODES.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = object.__new__(cls)
        for put, value in zip(cls._puts, values):
            put(node, value)
        _set_dmemo(node, None)
        _set_max_var(node, max_var)
        ref = _NODES[key] = _Ref(node, _forget)
        ref.key = key
    return node


def _node(cls):
    """A node kind: a frozen slotted dataclass built by its interning __new__.

    init=False, as __new__ sets the fields, through the slot setters in
    `_puts`; eq=False, as identity is structural equality.
    """
    cls = dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)(cls)
    cls._puts = tuple(cls.__dict__[name].__set__ for name in cls.__dataclass_fields__)
    return cls


@_node
class Const(Expr):
    value: float

    def __new__(cls, value: float):
        # keyed on the bits, so 0.0 and -0.0 stay apart and a NaN finds
        # itself; float(), so the payload's type does not depend on who
        # built the node first
        value = float(value)
        return _intern(cls, (cls, _float_bits(value)), -1, value)

    def _diff(self, index):
        return ZERO


@_node
class Var(Expr):
    index: int

    def __new__(cls, index: int):
        index = int(index)
        return _intern(cls, (cls, index), index, index)

    def _diff(self, index):
        return ONE if index == self.index else ZERO


@_node
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    def __new__(cls, op: str, left: Expr, right: Expr):
        # a comparison, not max(): it runs on every call, found node or new
        a, b = left._max_var, right._max_var
        return _intern(cls, (cls, op, id(left), id(right)), a if a > b else b, op, left, right)

    def _diff(self, index):
        da = self.left.diff(index)
        db = self.right.diff(index)
        if self.op == "+":
            return add(da, db)
        if self.op == "-":
            return sub(da, db)
        if self.op == "*":
            return add(mul(da, self.right), mul(self.left, db))
        # (a/b)' = a'/b - a b'/b^2
        return sub(div(da, self.right),
                   div(mul(self.left, db), powi(self.right, 2)))


@_node
class Pow(Expr):
    base: Expr
    exponent: int

    def __new__(cls, base: Expr, exponent: int):
        return _intern(cls, (cls, id(base), exponent), base._max_var, base, exponent)

    def _diff(self, index):
        db = self.base.diff(index)
        k = self.exponent
        return mul(mul(Const(float(k)), powi(self.base, k - 1)), db)


@_node
class Neg(Expr):
    arg: Expr

    def __new__(cls, arg: Expr):
        return _intern(cls, (cls, id(arg)), arg._max_var, arg)

    def _diff(self, index):
        return neg(self.arg.diff(index))


@_node
class Call(Expr):
    func: str
    arg: Expr

    def __new__(cls, func: str, arg: Expr):
        return _intern(cls, (cls, func, id(arg)), arg._max_var, func, arg)

    def _diff(self, index):
        da = self.arg.diff(index)
        if self.func == "exp":
            outer = Call("exp", self.arg)
        elif self.func == "ln":
            return div(da, self.arg)
        elif self.func == "sin":
            outer = Call("cos", self.arg)
        elif self.func == "cos":
            outer = neg(Call("sin", self.arg))
        elif self.func == "sqrt":
            return div(da, mul(Const(2.0), Call("sqrt", self.arg)))
        else:  # pragma: no cover
            raise ExprError(f"unknown function {self.func}")
        return mul(outer, da)


ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Smart constructors with constant folding
# ---------------------------------------------------------------------------

def is_structural_zero(e: Expr) -> bool:
    """Whether e is the constant 0 or -0: zero without sampling."""
    return type(e) is Const and e.value == 0.0


# Each constructor tests an operand's kind once, with `type(x) is Const`;
# `== 0.0` keeps -0.0 a zero, which an identity test against ZERO would not.

def add(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        # 0.0 + b is b bit for bit, or +0.0 where b is a zero (not a NaN):
        # the node exists, so no Const is built (the start of every expr_sum)
        if a is ZERO and b.value == b.value:
            return ZERO if b.value == 0.0 else b
        return Const(a.value + b.value)
    if ca and a.value == 0.0:
        return b
    if cb and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        return Const(a.value - b.value)
    if cb and b.value == 0.0:
        return a
    if ca and a.value == 0.0:
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        # 0.0 times +0.0 or a finite positive constant is 0.0 bit for bit
        if a is ZERO or b is ZERO:
            other = b if a is ZERO else a
            if other is ZERO or 0.0 < other.value < math.inf:
                return ZERO
        return Const(a.value * b.value)
    # at most one operand is a constant from here on
    if ca or cb:
        c, other = (a.value, b) if ca else (b.value, a)
        if c == 0.0:
            return ZERO
        if c == 1.0:
            return other
        if c == -1.0:
            return neg(other)
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if cb and b.value == 1.0:
        return a
    if ca and a.value == 0.0 and not (cb and b.value == 0.0):
        return ZERO
    if ca and cb and b.value != 0.0:
        return Const(a.value / b.value)
    return BinOp("/", a, b)


def powi(a: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return a
    if type(a) is Const:
        try:
            return Const(a.value ** k)
        except _EVAL_FAILURES as err:
            raise _domain_error(err, "^", Pow(a, k)) from None
    return Pow(a, k)


def neg(a: Expr) -> Expr:
    t = type(a)
    if t is Const:
        return Const(-a.value)
    if t is Neg:
        return a.arg
    return Neg(a)


def const(v: float) -> Expr:
    return Const(float(v))


def var(i: int) -> Expr:
    return Var(i)


def call(func: str, a: Expr) -> Expr:
    if func not in _FUNCS:
        raise ExprError(f"unknown function {func}")
    if type(a) is Const:
        try:
            return Const(_FUNCS[func](a.value))
        except _EVAL_FAILURES as err:
            raise _domain_error(err, func, Call(func, a)) from None
    return Call(func, a)


def expr_sum(terms: Sequence[Expr]) -> Expr:
    out: Expr = ZERO
    for t in terms:
        out = add(out, t)
    return out


def expr_product(factors: Sequence[Expr]) -> Expr:
    out: Expr = ONE
    for f in factors:
        out = mul(out, f)
    return out


# ---------------------------------------------------------------------------
# Printing (re-parses to an identically evaluating tree)
# ---------------------------------------------------------------------------

_PREC_EXPR, _PREC_TERM, _PREC_FACTOR, _PREC_BASE = 0, 1, 2, 3


def number_text(v: float) -> str:
    """repr(v) without a trailing '.0': the shortest text that reads back as v."""
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _default_names(upto: int) -> list[str]:
    return [f"x{i + 1}" for i in range(upto + 1)]


def _print(e: Expr, names: Sequence[str] | None, ctx: int) -> str:
    if isinstance(e, Const):
        s = number_text(e.value)
        if s.startswith("-"):
            return s if ctx == _PREC_EXPR else f"({s})"
        return s
    if isinstance(e, Var):
        if names is None:
            names = _default_names(e.index)
        return names[e.index]
    if isinstance(e, BinOp):
        if e.op in "+-":
            s = f"{_print(e.left, names, _PREC_EXPR)} {e.op} {_print(e.right, names, _PREC_TERM)}"
            return f"({s})" if ctx > _PREC_EXPR else s
        s = f"{_print(e.left, names, _PREC_TERM)} {e.op} {_print(e.right, names, _PREC_FACTOR)}"
        return f"({s})" if ctx > _PREC_TERM else s
    if isinstance(e, Pow):
        s = f"{_print(e.base, names, _PREC_BASE)}^{e.exponent}"
        return f"({s})" if ctx > _PREC_FACTOR else s
    if isinstance(e, Neg):
        s = f"-{_print(e.arg, names, _PREC_BASE)}"
        return f"({s})" if ctx > _PREC_EXPR else s
    if isinstance(e, Call):
        return f"{e.func}({_print(e.arg, names, _PREC_EXPR)})"
    raise ExprError(f"unprintable node {e!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _tokens(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of `text`, in one scan: "op", "num"
    and "ident" tokens, then an "end" token.

    Where the text cannot be lexed, the list ends with an "error" token
    instead, its text the message; `_Parser` raises it only when it reads
    that token, so a text fails at the first token its parse reads wrongly.
    """
    tokens = []
    n, j = len(text), 0
    while True:
        while j < n and text[j].isspace():
            j += 1
        if j == n:
            return tokens + [("end", "", j)]
        start, ch = j, text[j]
        if ch in "+-*/^()":
            j += 1
            tokens.append(("op", ch, start))
        elif ch.isdigit() or ch == ".":
            seen_e = False
            while j < n:
                c = text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_e and j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            lit = text[start:j]
            try:
                float(lit)
            except ValueError:
                return tokens + [("error", f"bad number literal '{lit}'", start)]
            tokens.append(("num", lit, start))
        elif ch.isalpha() or ch == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[start:j], start))
        else:
            return tokens + [("error", f"unexpected character '{ch}'", start)]


# unary minuses, parentheses and function arguments one inside another
_MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
        self.tokens = _tokens(text)
        self.at = 0
        self.depth = 0
        # the first index of a repeated name, as list.index gives
        self.index = {name: i for i, name in reversed(list(enumerate(names)))}

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.at]
        if token[0] == "error":
            raise ParseError(token[1], token[2])
        self.at += 1
        return token

    def accept(self, ops: str) -> str | None:
        """The next token's operator, read, if it is one of `ops`; else None."""
        kind, val, _ = self.next()
        if kind == "op" and val in ops:
            return val
        self.at -= 1
        return None

    def expect(self, op: str, message: str) -> None:
        if not self.accept(op):
            raise ParseError(message, self.tokens[self.at][2])

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.next()
        if kind != "end":
            raise ParseError(f"unexpected trailing input '{val}'", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while op := self.accept("+-"):
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while op := self.accept("*/"):
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.base()
        if self.accept("^"):
            sign = -1 if self.accept("-") else 1
            kind, val, pos = self.next()
            if kind != "num" or any(c in val for c in ".eE"):
                raise ParseError("exponent must be a constant integer", pos)
            e = powi(e, sign * int(val))
        return e

    def base(self) -> Expr:
        if self.accept("-"):
            self.enter()
            e = neg(self.base())
        elif self.accept("("):
            self.enter()
            e = self.expr()
            self.expect(")", "expected ')'")
        else:
            kind, val, pos = self.next()
            if kind == "num":
                return Const(float(val))
            if kind != "ident":
                raise ParseError(f"unexpected token '{val}'", pos)
            if val not in _FUNCS:
                if val in self.index:
                    return Var(self.index[val])
                raise ParseError(f"unknown identifier '{val}'", pos)
            self.expect("(", f"expected '(' after function {val}")
            self.enter()
            e = self.expr()
            self.expect(")", "expected ')'")
            e = call(val, e)
        self.depth -= 1
        return e

    def enter(self) -> None:
        """Open a nesting level (a unary minus, a parenthesis or a function's
        argument) at the token just read; the levels are bounded, so the
        recursion stays within the interpreter's limit."""
        if self.depth == _MAX_NESTING:
            raise ParseError("expression nested too deeply", self.tokens[self.at - 1][2])
        self.depth += 1


# ---------------------------------------------------------------------------
# Evaluation plans: every distinct node evaluated once
# ---------------------------------------------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# why evaluation left the domain at a node of this kind; an OverflowError
# anywhere reads "overflow"
_DOMAIN_MESSAGES = {
    "/": "division by zero",
    "^": "zero raised to a negative power",
    "exp": "overflow",
    "ln": "ln of a non-positive argument",
    "sqrt": "sqrt of a negative argument",
    "sin": "sin of a non-finite argument",
    "cos": "cos of a non-finite argument",
}

# what float arithmetic and math.* raise on Python floats; the point paths
# turn them into a located EvalDomainError (Plan._located)
_EVAL_FAILURES = (ZeroDivisionError, ValueError, OverflowError)


def _domain_error(err: Exception | None, kind: str, node: Expr) -> EvalDomainError:
    message = "overflow" if isinstance(err, OverflowError) else _DOMAIN_MESSAGES[kind]
    return EvalDomainError(message, node)


def _elementwise(fn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """fn over the entries of xs on Python floats, as a tree walk applies it.

    numpy's power, exp and log differ from libm in the last ulp on a few
    percent of inputs; applying the same functions keeps residuals equal to
    the tree walk's bit for bit.  Returns the values and a mask of the
    entries where fn raised (their values are nan), or None when it raised
    nowhere.
    """
    try:
        return np.array([fn(x) for x in xs.tolist()], dtype=float), None
    except _EVAL_FAILURES:
        pass
    out = np.empty(len(xs))
    failed = np.zeros(len(xs), dtype=bool)
    for i, x in enumerate(xs.tolist()):
        try:
            out[i] = fn(x)
        except _EVAL_FAILURES:
            out[i] = math.nan
            failed[i] = True
    return out, failed


# point-path operations as functions of two operands; unary ones ignore the second
_POINT_UNARY = {
    "neg": lambda x, _: -x,
    **{name: (lambda x, _, fn=fn: fn(x)) for name, fn in _FUNCS.items()},
}


class Plan:
    """The distinct nodes behind some component expressions.

    Nodes are deduplicated by object identity, which for interned nodes is
    structure, so a subterm shared between components, or repeated inside
    one, is evaluated once.  `nodes` lists
    the constants, then the variables, then every other node in post-order
    of a left-to-right walk over the expressions with repeats dropped; a
    node's position is its slot in the value list.  `roots` holds the slots
    of the expressions themselves.

    `values` interprets the plan at one point on Python floats with
    `math.*` in slot order; `table` runs it over numpy arrays of samples
    with the same elementwise operations, and `residual` reduces the table.
    The two runners have one failure rule: a node fails where its Python
    float operation raises (a domain error, or an overflow in ``**`` or
    exp), and `table` raises what a `values` loop over the samples raises
    first: the error of the first failing sample.  Generated code serves
    only whole RK4 trajectories (`compile_rk4`), where each point depends
    on the last.  All give equal values and, where a node fails, the same
    located EvalDomainError, built by `_located`.
    """

    __slots__ = ("nodes", "roots", "_consts", "_vars", "_ops", "_point_ops")

    def __init__(self, exprs: Iterable[Expr]):
        # one walk sorts the leaves out as it meets them and pushes no child
        # already seen
        exprs = list(exprs)
        consts: list[Expr] = []
        variables: list[Expr] = []
        interior: list[Expr] = []
        seen: set[int] = set()
        for root in exprs:
            stack = [(root, False)]
            pop, push = stack.pop, stack.append
            while stack:
                e, expanded = pop()
                if expanded:
                    seen.add(id(e))
                    interior.append(e)
                    continue
                if id(e) in seen:
                    continue
                t = type(e)
                if t is Const or t is Var:
                    seen.add(id(e))
                    (consts if t is Const else variables).append(e)
                    continue
                push((e, True))
                # children pushed right to left, so they finish left to right
                if t is BinOp:
                    if id(e.right) not in seen:
                        push((e.right, False))
                    child = e.left
                else:
                    child = e.base if t is Pow else e.arg
                if id(child) not in seen:
                    push((child, False))
        self.nodes = consts + variables + interior
        slot = {id(e): i for i, e in enumerate(self.nodes)}
        self.roots = [slot[id(root)] for root in exprs]
        self._consts = [e.value for e in consts]
        self._vars = [e.index for e in variables]
        self._ops = ops = []
        self._point_ops = point_ops = []
        for e in interior:
            t = type(e)
            if t is BinOp:
                a, b = slot[id(e.left)], slot[id(e.right)]
                ops.append((e.op, a, b))
                point_ops.append((_BINARY[e.op], a, b))
                continue
            if t is Pow:
                a, kind, k = slot[id(e.base)], "^", e.exponent
            else:
                a, kind, k = slot[id(e.arg)], "neg" if t is Neg else e.func, None
            ops.append((kind, a, k))
            point_ops.append((_POINT_UNARY[kind] if k is None else lambda x, _, k=k: x ** k, a, a))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def _leaves(self) -> int:
        return len(self._consts) + len(self._vars)

    # -- one point -----------------------------------------------------------

    def values(self, point: Sequence[float]) -> list[float]:
        """The root values at one point.

        Raises the EvalDomainError of the first node in slot order that
        fails: a domain error, or an overflow in ``**`` or exp.
        """
        v = self._consts + [float(point[i]) for i in self._vars]
        append = v.append
        try:
            for op, a, b in self._point_ops:
                append(op(v[a], v[b]))
        except _EVAL_FAILURES as err:
            raise self._located(len(v), err) from None
        return [v[r] for r in self.roots]

    def _located(self, slot: int, err: Exception | None = None) -> EvalDomainError:
        """The located error of the node at `slot`, which raised `err`; the
        one place a plan's runners build it."""
        return _domain_error(err, self._ops[slot - self._leaves][0], self.nodes[slot])

    # -- many samples ----------------------------------------------------------

    def table(self, samples) -> tuple[np.ndarray, np.ndarray]:
        """The root values and their scales at every sample, each (samples, roots).

        Every node is evaluated once, over all samples together, with the
        point path's elementwise operations, so the values equal `values`
        at each sample bit for bit.  A root's scale is the largest |value|
        of any of its subterms at the sample.  A node fails at a sample
        exactly where its operation raises in `values` (a domain error, or
        an overflow in ``**`` or exp); where any does, `values` is run
        again at the first failing sample and raises its located error, so
        the table raises what a `values` loop over the samples raises, with
        that sample's index as its `sample`.
        """
        pts = np.asarray(samples, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ExprError("samples must be a non-empty list of points")
        vals = [np.full(len(pts), c) for c in self._consts] + [pts[:, i] for i in self._vars]
        scales = [np.abs(v) for v in vals]
        failing = np.zeros(len(pts), dtype=bool)
        with np.errstate(all="ignore"):
            for kind, a, b in self._ops:
                failed = None
                if kind == "neg":
                    vals.append(-vals[a])
                    scales.append(scales[a])
                    continue
                if kind in _BINARY:
                    v = _BINARY[kind](vals[a], vals[b])
                    if kind == "/":
                        failed = vals[b] == 0.0
                    s = np.maximum(scales[a], scales[b])
                else:
                    fn = _FUNCS.get(kind) or (lambda x, k=b: x ** k)
                    v, failed = _elementwise(fn, vals[a])
                    s = scales[a]
                if failed is not None:
                    failing |= failed
                vals.append(v)
                scales.append(np.maximum(s, np.abs(v)))
        if failing.any():
            at = int(failing.argmax())
            try:
                self.values(pts[at])  # raises there
            except EvalDomainError as err:
                err.sample = at
                raise
        shape = (len(self.roots), len(pts))
        value, scale = (np.array([col[r] for r in self.roots]).reshape(shape).T for col in (vals, scales))
        return value, scale

    def residual(self, samples) -> float:
        """max over roots and samples of |v| / (1 + scale), from `table`.

        A NaN or infinite value or scale, such as a product that overflows,
        makes the residual inf; no roots give 0.  Where a node fails, it
        raises the error `table` raises: that of the first sample at which
        `values` raises.
        """
        value, scale = self.table(samples)
        if not np.isfinite(scale).all():
            return math.inf
        return float((np.abs(value) / (1.0 + scale)).max(initial=0.0))


def residual(exprs: Iterable[Expr], samples) -> float:
    """Worst scaled residual of the expressions over the samples (see Plan.residual)."""
    return Plan(exprs).residual(samples)


# ---------------------------------------------------------------------------
# Code generation: whole RK4 trajectories as straight-line Python
# ---------------------------------------------------------------------------

_COMPILE_ENV = {
    "_float": float,
    "_isfinite": math.isfinite,
    "_FAILURES": _EVAL_FAILURES,
    **{f"_{name}": fn for name, fn in _FUNCS.items()},
}


class _Source:
    """The function `compile_rk4` generates, under construction: its lines,
    the (plan, slot) computed on each node line, and the globals the code
    reads.  Each plan's lines are written by `nodes`, which shares a value
    only within that plan.

    The code is written to wrap its nodes in one ``try`` whose ``except``
    raises ``_located(err)``: the failing line gives the node, so the error
    is the one `Plan.values` raises, built by `Plan._located`.
    """

    def __init__(self, *lines: str):
        self.lines = list(lines)
        self.sites: dict[int, tuple[Plan, int]] = {}
        self.env = dict(_COMPILE_ENV, _located=self._located)
        self._consts: dict[Expr, str] = {}

    def add(self, indent: str, *lines: str) -> None:
        self.lines += [indent + line for line in lines]

    def nodes(self, plan: Plan, prefix: str, inputs: Sequence[str]):
        """The lines computing `plan` in slot order, and the names holding
        its roots.

        Slot i is the local ``{prefix}{i}``, a constant a global named once
        per source and variable k the local `inputs[k]`.  A node's key is
        its operation and its operands' names, those of ``+`` and ``*``
        sorted: IEEE ``+`` and ``*`` give one value in either order and
        never raise on Python floats.  A node whose key an earlier line of
        the plan holds gets no line and reads that local, so the first line
        that fails is at the first slot where `Plan.values` fails.  Each
        line keeps its node's operation and `math.*` call, so the values
        equal `Plan.values` bit for bit.  A line is (text, plan, slot), as
        `emit` takes it.
        """
        keys: dict[tuple, str] = {}
        names = [f"{prefix}{i}" for i in range(len(plan.nodes))]
        for i, c in enumerate(plan.nodes[: len(plan._consts)]):
            names[i] = self._consts.setdefault(c, f"k{len(self._consts)}")
            self.env[names[i]] = c.value
        for i, k in enumerate(plan._vars, len(plan._consts)):
            names[i] = inputs[k]
        lines = []
        for i, (kind, a, b) in enumerate(plan._ops, plan._leaves):
            x = names[a]
            if kind in _BINARY:
                y = names[b]
                key = (kind, *sorted((x, y))) if kind in ("+", "*") else (kind, x, y)
                rhs = f"{x} {kind} {y}"
            elif kind == "^":
                key, rhs = (kind, x, b), f"{x} ** {b}"
            else:
                key, rhs = (kind, x), f"-{x}" if kind == "neg" else f"_{kind}({x})"
            if key in keys:
                names[i] = keys[key]
                continue
            keys[key] = names[i]
            lines.append((f"{names[i]} = {rhs}", plan, i))
        return lines, [names[r] for r in plan.roots]

    def emit(self, indent: str, lines) -> None:
        """Add node lines from `nodes`, recording the node each computes."""
        for text, plan, slot in lines:
            self.add(indent, text)
            self.sites[len(self.lines)] = (plan, slot)  # lines count from 1

    def _located(self, err: Exception) -> EvalDomainError:
        plan, slot = self.sites[err.__traceback__.tb_lineno]
        return plan._located(slot, err)

    def function(self) -> Callable:
        exec("\n".join(self.lines), self.env)  # noqa: S102 - source is machine generated
        return self.env["f"]


def _tuple(names: Iterable[str]) -> str:
    return f"({''.join(f'{name}, ' for name in names)})"


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """A function of a point returning the value of `e` there (`Plan.values`).

    Nothing in the library calls it; it stays only while the benchmark
    tracer wraps it by name, until the tracer's compile span moves to
    `compile_rk4`.
    """
    plan = Plan([e])
    return lambda v: plan.values(v)[0]


def compile_rk4(rhs: Sequence[Expr]) -> Callable:
    """One generated function ``f(y, dt, steps, rows)`` running a whole
    classical RK4 trajectory of ``y' = rhs(y)`` from the state `y`.

    It appends to `rows` the tuple of each stored state: the initial state,
    then the state after each step.  A step is straight-line code: the four
    stages are `rhs`'s plan emitted four times (`_Source.nodes`, so within
    a stage each (operation, operands) gets one line, ``+`` and ``*`` keyed
    in either operand order), and between them the stage inputs
    ``y + (dt/2) k`` and ``y + dt k`` and the update
    ``y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)`` run element by element in
    that order, so each state equals the array form's bit for bit.

    The run returns after `steps` steps, or early as soon as an updated
    state is not finite, without storing it.  A failing node raises the
    located EvalDomainError of `Plan.values` at the first failing node of
    the first stage that fails; either way `rows` holds the states before
    the step that stopped the run.
    """
    dim = len(rhs)
    plan = Plan(rhs)
    state = [f"y{k}" for k in range(dim)]
    code = _Source("def f(y, dt, steps, rows):")
    code.add("    ", *(f"y{k} = _float(y[{k}])" for k in range(dim)))
    code.add("    ", "dt = _float(dt)", "half = 0.5 * dt", "sixth = dt / 6.0", f"rows.append({_tuple(state)})")
    code.add("    ", "try:", "    for _ in range(steps):")
    body = " " * 12
    stages, inputs = [], state
    for prefix, scale in (("a", None), ("b", "half"), ("c", "half"), ("d", "dt")):
        if scale:
            inputs = [f"y{prefix}{k}" for k in range(dim)]
            code.add(body, *(f"{inputs[k]} = y{k} + {scale} * {stages[-1][k]}" for k in plan._vars))
        lines, k = code.nodes(plan, prefix, inputs)
        code.emit(body, lines)
        stages.append(k)
    update = (f"y{k} + sixth * ((({a} + 2.0 * {b}) + 2.0 * {c}) + {d})" for k, (a, b, c, d) in enumerate(zip(*stages)))
    code.add(body, f"{', '.join(state)}, = {_tuple(update)}")
    code.add(body, f"if not ({' and '.join(f'_isfinite({y})' for y in state)}):", "    return")
    code.add(body, f"rows.append({_tuple(state)})")
    code.add("    ", "except _FAILURES as err:", "    raise _located(err) from None")
    return code.function()


# ---------------------------------------------------------------------------
# ScalarField: an expression plus its arity
# ---------------------------------------------------------------------------

class ScalarField:
    """A function of n chart coordinates given by an expression tree."""

    __slots__ = ("expr", "arity", "_plan")

    def __init__(self, expr: Expr, arity: int):
        if expr.max_var() >= arity:
            raise ExprError(
                f"expression uses variable index {expr.max_var()} "
                f"but arity is {arity}"
            )
        self.expr = expr
        self.arity = arity
        self._plan: Plan | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "ScalarField":
        return ScalarField(ZERO, arity)

    @staticmethod
    def constant(v: float, arity: int) -> "ScalarField":
        return ScalarField(Const(float(v)), arity)

    @staticmethod
    def coordinate(index: int, arity: int) -> "ScalarField":
        return ScalarField(Var(index), arity)

    # -- evaluation ----------------------------------------------------------

    def plan(self) -> Plan:
        """The evaluation plan of the expression, built once and cached."""
        if self._plan is None:
            self._plan = Plan([self.expr])
        return self._plan

    def __call__(self, point: Sequence[float]) -> float:
        """The value at a point of `arity` coordinates (Plan.values:
        EvalDomainError on a domain error or an overflow)."""
        if len(point) != self.arity:
            raise ExprError(f"a point of {len(point)} coordinates for arity {self.arity}")
        return self.plan().values(point)[0]

    def is_zero_expr(self) -> bool:
        return is_structural_zero(self.expr)

    # -- calculus ------------------------------------------------------------

    def diff(self, index: int) -> "ScalarField":
        if index >= self.arity:
            raise ExprError(f"variable index {index} out of range for arity {self.arity}")
        return ScalarField(self.expr.diff(index), self.arity)

    def with_arity(self, arity: int) -> "ScalarField":
        """Reinterpret over a larger variable set (same leading variables)."""
        if arity < self.arity and self.expr.max_var() >= arity:
            raise ExprError("cannot shrink arity below used variables")
        return ScalarField(self.expr, arity)

    # -- algebra -------------------------------------------------------------

    def _coerce(self, other) -> "ScalarField":
        if isinstance(other, ScalarField):
            if other.arity != self.arity:
                raise ExprError("arity mismatch")
            return other
        return ScalarField.constant(float(other), self.arity)

    def __add__(self, other):
        o = self._coerce(other)
        return ScalarField(add(self.expr, o.expr), self.arity)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return ScalarField(sub(self.expr, o.expr), self.arity)

    def __rsub__(self, other):
        o = self._coerce(other)
        return ScalarField(sub(o.expr, self.expr), self.arity)

    def __mul__(self, other):
        o = self._coerce(other)
        return ScalarField(mul(self.expr, o.expr), self.arity)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return ScalarField(div(self.expr, o.expr), self.arity)

    def __neg__(self):
        return ScalarField(neg(self.expr), self.arity)

    def to_string(self, names: Sequence[str] | None = None) -> str:
        return self.expr.to_string(names)

    def __repr__(self):
        return f"ScalarField({self.to_string()}, n={self.arity})"


# ---------------------------------------------------------------------------
# Module-level operations (spec surface)
# ---------------------------------------------------------------------------

def parse(text: str, names_or_arity: Sequence[str] | int) -> ScalarField:
    """Parse `text` against coordinate names (or x1..xn for an integer arity)."""
    if isinstance(names_or_arity, int):
        names = [f"x{i + 1}" for i in range(names_or_arity)]
    else:
        names = list(names_or_arity)
    tree = _Parser(text, names).parse()
    return ScalarField(tree, len(names))


def evaluate(f: ScalarField, point: Sequence[float]) -> float:
    return f(point)


def differentiate(f: ScalarField, index: int) -> ScalarField:
    return f.diff(index)


def is_zero_field(
    f: ScalarField,
    samples: Sequence[Sequence[float]],
    tol: float = TOL,
) -> bool:
    """True iff |f(x)| <= tol * (1 + scale) at every sample.

    `scale` is the largest absolute value attained by any subterm of f at x,
    so cancellation between large intermediates is judged relatively.
    """
    return zero_residual(f, samples) <= tol


def zero_residual(f: ScalarField, samples: Sequence[Sequence[float]]) -> float:
    """max over samples of |f(x)| / (1 + scale); 0 for the exact zero field."""
    return residual([f.expr], samples)


def sample_box(
    box: Sequence[tuple[float, float]],
    count: int = N_SAMPLES,
    seed: int = SEED,
) -> np.ndarray:
    """Draw `count` points uniformly from the product of intervals `box`."""
    if count < 1:
        raise ExprError(f"sample count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box], dtype=float)
    hi = np.array([b[1] for b in box], dtype=float)
    try:
        return lo + (hi - lo) * rng.random((count, len(box)))
    except MemoryError:
        raise ExprError(f"cannot allocate {count} samples of {len(box)} coordinates") from None
