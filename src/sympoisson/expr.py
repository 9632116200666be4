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

Identifiers bind to the declared coordinate names, in order.  Differentiation
is symbolic with constant folding only; there is no simplification to a
canonical form.  Zero-testing is done by sampling (see :func:`is_zero_field`).
"""

from __future__ import annotations

import math
import operator
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
    """Evaluation left the function's domain (log/sqrt/division)."""

    def __init__(self, message: str, subterm: str):
        super().__init__(f"{message} in subterm '{subterm}'")
        self.subterm = subterm


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
    """Immutable expression node.  Construct via the helper functions below."""

    __slots__ = ()

    # -- evaluation --------------------------------------------------------

    def evaluate(self, values: Sequence[float]) -> float:
        raise NotImplementedError

    def eval_scaled(self, values: Sequence[float]) -> tuple[float, float]:
        """Return (value, scale) with scale = max |v| over all subterm values.

        A tree walk at one point: the reference route that `Plan.residual`
        is tested against.
        """
        raise NotImplementedError

    def diff(self, index: int) -> "Expr":
        raise NotImplementedError

    def emit(self) -> str:
        """Python source for compilation; `v` is the value vector."""
        raise NotImplementedError

    def max_var(self) -> int:
        """Largest variable index used, or -1 for constant expressions."""
        raise NotImplementedError

    def to_string(self, names: Sequence[str] | None = None) -> str:
        return _print(self, names, _PREC_EXPR)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Expr({self.to_string()})"


@dataclass(frozen=True, slots=True, repr=False)
class Const(Expr):
    value: float

    def evaluate(self, values):
        return self.value

    def eval_scaled(self, values):
        return self.value, abs(self.value)

    def diff(self, index):
        return ZERO

    def emit(self):
        return repr(self.value)

    def max_var(self):
        return -1


@dataclass(frozen=True, slots=True, repr=False)
class Var(Expr):
    index: int

    def evaluate(self, values):
        return values[self.index]

    def eval_scaled(self, values):
        v = values[self.index]
        return v, abs(v)

    def diff(self, index):
        return ONE if index == self.index else ZERO

    def emit(self):
        return f"v[{self.index}]"

    def max_var(self):
        return self.index


@dataclass(frozen=True, slots=True, repr=False)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    def evaluate(self, values):
        a = self.left.evaluate(values)
        b = self.right.evaluate(values)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if b == 0.0:
            raise EvalDomainError("division by zero", self.to_string())
        return a / b

    def eval_scaled(self, values):
        a, sa = self.left.eval_scaled(values)
        b, sb = self.right.eval_scaled(values)
        if self.op == "+":
            v = a + b
        elif self.op == "-":
            v = a - b
        elif self.op == "*":
            v = a * b
        else:
            if b == 0.0:
                raise EvalDomainError("division by zero", self.to_string())
            v = a / b
        return v, max(sa, sb, abs(v))

    def diff(self, index):
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

    def emit(self):
        return f"({self.left.emit()} {self.op} {self.right.emit()})"

    def max_var(self):
        return max(self.left.max_var(), self.right.max_var())


@dataclass(frozen=True, slots=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    def evaluate(self, values):
        b = self.base.evaluate(values)
        if b == 0.0 and self.exponent < 0:
            raise EvalDomainError("zero raised to a negative power", self.to_string())
        return b ** self.exponent

    def eval_scaled(self, values):
        b, sb = self.base.eval_scaled(values)
        if b == 0.0 and self.exponent < 0:
            raise EvalDomainError("zero raised to a negative power", self.to_string())
        v = b ** self.exponent
        return v, max(sb, abs(v))

    def diff(self, index):
        db = self.base.diff(index)
        k = self.exponent
        return mul(mul(Const(float(k)), powi(self.base, k - 1)), db)

    def emit(self):
        return f"({self.base.emit()} ** {self.exponent})"

    def max_var(self):
        return self.base.max_var()


@dataclass(frozen=True, slots=True, repr=False)
class Neg(Expr):
    arg: Expr

    def evaluate(self, values):
        return -self.arg.evaluate(values)

    def eval_scaled(self, values):
        v, s = self.arg.eval_scaled(values)
        return -v, s

    def diff(self, index):
        return neg(self.arg.diff(index))

    def emit(self):
        return f"(-{self.arg.emit()})"

    def max_var(self):
        return self.arg.max_var()


@dataclass(frozen=True, slots=True, repr=False)
class Call(Expr):
    func: str
    arg: Expr

    def evaluate(self, values):
        a = self.arg.evaluate(values)
        return self._apply(a)

    def _apply(self, a: float) -> float:
        if self.func == "ln" and a <= 0.0:
            raise EvalDomainError("ln of a non-positive argument", self.to_string())
        if self.func == "sqrt" and a < 0.0:
            raise EvalDomainError("sqrt of a negative argument", self.to_string())
        try:
            return _FUNCS[self.func](a)
        except OverflowError:
            raise EvalDomainError("overflow", self.to_string()) from None

    def eval_scaled(self, values):
        a, s = self.arg.eval_scaled(values)
        v = self._apply(a)
        return v, max(s, abs(v))

    def diff(self, index):
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

    def emit(self):
        return f"_{self.func}({self.arg.emit()})"

    def max_var(self):
        return self.arg.max_var()


ZERO = Const(0.0)
ONE = Const(1.0)


# ---------------------------------------------------------------------------
# Smart constructors with constant folding
# ---------------------------------------------------------------------------

def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return ZERO
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return BinOp("/", a, b)


def powi(a: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return a
    if _is_const(a):
        return Const(a.value ** k)
    return Pow(a, k)


def neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def const(v: float) -> Expr:
    return Const(float(v))


def var(i: int) -> Expr:
    return Var(i)


def call(func: str, a: Expr) -> Expr:
    if func not in _FUNCS:
        raise ExprError(f"unknown function {func}")
    if _is_const(a):
        return Const(_FUNCS[func](a.value))
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


def _default_names(upto: int) -> list[str]:
    return [f"x{i + 1}" for i in range(upto + 1)]


def _print(e: Expr, names: Sequence[str] | None, ctx: int) -> str:
    if isinstance(e, Const):
        s = repr(e.value)
        if s.endswith(".0"):
            s = s[:-2]
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

class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> tuple[str, str, int]:
        save = self.pos
        tok = self.next()
        self.pos = save
        return tok

    def next(self) -> tuple[str, str, int]:
        self._skip_ws()
        start = self.pos
        if self.pos >= len(self.text):
            return ("end", "", start)
        ch = self.text[self.pos]
        if ch in "+-*/^()":
            self.pos += 1
            return ("op", ch, start)
        if ch.isdigit() or ch == ".":
            j = self.pos
            seen_e = False
            while j < len(self.text):
                c = self.text[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_e and j + 1 < len(self.text) and (
                    self.text[j + 1].isdigit() or self.text[j + 1] in "+-"
                ):
                    seen_e = True
                    j += 2 if self.text[j + 1] in "+-" else 1
                else:
                    break
            lit = self.text[self.pos:j]
            self.pos = j
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"bad number literal '{lit}'", start) from None
            return ("num", lit, start)
        if ch.isalpha() or ch == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            name = self.text[self.pos:j]
            self.pos = j
            return ("ident", name, start)
        raise ParseError(f"unexpected character '{ch}'", start)


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
        self.lexer = _Lexer(text)
        self.names = list(names)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.lexer.next()
        if kind != "end":
            raise ParseError(f"unexpected trailing input '{val}'", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.lexer.peek()
            if kind == "op" and val in "+-":
                self.lexer.next()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.lexer.peek()
            if kind == "op" and val in "*/":
                self.lexer.next()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        kind, val, _ = self.lexer.peek()
        if kind == "op" and val == "^":
            self.lexer.next()
            e = powi(e, self._int_literal())
        return e

    def _int_literal(self) -> int:
        kind, val, pos = self.lexer.next()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.lexer.next()
        if kind != "num" or any(c in val for c in ".eE"):
            raise ParseError("exponent must be a constant integer", pos)
        return sign * int(val)

    def base(self) -> Expr:
        kind, val, pos = self.lexer.next()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "-":
            return neg(self.base())
        if kind == "op" and val == "(":
            e = self.expr()
            kind, val, pos = self.lexer.next()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return e
        if kind == "ident":
            if val in _FUNCS:
                kind2, val2, pos2 = self.lexer.next()
                if not (kind2 == "op" and val2 == "("):
                    raise ParseError(f"expected '(' after function {val}", pos2)
                e = self.expr()
                kind2, val2, pos2 = self.lexer.next()
                if not (kind2 == "op" and val2 == ")"):
                    raise ParseError("expected ')'", pos2)
                return call(val, e)
            if val in self.names:
                return Var(self.names.index(val))
            raise ParseError(f"unknown identifier '{val}'", pos)
        raise ParseError(f"unexpected token '{val}'", pos)


# ---------------------------------------------------------------------------
# Compilation to a fast callable
# ---------------------------------------------------------------------------

_COMPILE_ENV = {f"_{name}": fn for name, fn in _FUNCS.items()}


def compile_expr(e: Expr) -> Callable[[Sequence[float]], float]:
    """Compile to a plain Python callable; evaluation order matches .evaluate()."""
    src = f"lambda v: {e.emit()}"
    return eval(src, dict(_COMPILE_ENV))  # noqa: S307 - source is machine generated


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

_FAILURES = (ZeroDivisionError, ValueError, OverflowError)


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Neg, Call)):
        return (e.arg,)
    return ()


def _power(x: float, k: int) -> float:
    """x ** k on Python floats; an overflow gives the +-inf a numpy float would."""
    try:
        return x ** k
    except OverflowError:
        return float(np.float64(x) ** k)


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
    except _FAILURES:
        pass
    out = np.empty(len(xs))
    failed = np.zeros(len(xs), dtype=bool)
    for i, x in enumerate(xs.tolist()):
        try:
            out[i] = fn(x)
        except _FAILURES:
            out[i] = math.nan
            failed[i] = True
    return out, failed


# point-path operations as functions of two operands; unary ones ignore the second
_POINT_UNARY = {
    "neg": lambda x, _: -x,
    **{name: (lambda x, _, fn=fn: fn(x)) for name, fn in _FUNCS.items()},
}


def _point_op(kind: str, exponent: int | None):
    if kind in _BINARY:
        return _BINARY[kind]
    if kind == "^":
        return lambda x, _: x ** exponent
    return _POINT_UNARY[kind]


class Plan:
    """The distinct node objects behind some component expressions.

    Nodes are deduplicated by object identity, so a subterm shared between
    components, or repeated inside one, is evaluated once.  `nodes` lists
    the constants, then the variables, then every other node in post-order
    of a left-to-right walk over the expressions with repeats dropped; a
    node's position is its slot in the value list.  `roots` holds the slots
    of the expressions themselves.

    `residual` runs the plan over numpy arrays of samples; `values` runs it
    at one point on Python floats with `math.*`, in the order a compiled
    lambda would, so its values equal those of `compile_expr`.
    """

    __slots__ = ("nodes", "roots", "_consts", "_vars", "_ops", "_point_ops")

    def __init__(self, exprs: Iterable[Expr]):
        exprs = list(exprs)
        seen: set[int] = set()
        walk: list[Expr] = []
        for root in exprs:
            stack = [(root, False)]
            while stack:
                e, expanded = stack.pop()
                if id(e) in seen:
                    continue
                if expanded:
                    seen.add(id(e))
                    walk.append(e)
                else:
                    stack.append((e, True))
                    stack.extend((c, False) for c in reversed(_children(e)))
        consts = [e for e in walk if isinstance(e, Const)]
        variables = [e for e in walk if isinstance(e, Var)]
        interior = [e for e in walk if not isinstance(e, (Const, Var))]
        self.nodes = consts + variables + interior
        slot = {id(e): i for i, e in enumerate(self.nodes)}
        self.roots = [slot[id(root)] for root in exprs]
        self._consts = [e.value for e in consts]
        self._vars = [e.index for e in variables]
        self._ops = []
        for e in interior:
            a, *rest = (slot[id(c)] for c in _children(e))
            if isinstance(e, BinOp):
                self._ops.append((e.op, a, rest[0]))
            elif isinstance(e, Pow):
                self._ops.append(("^", a, e.exponent))
            else:
                self._ops.append(("neg" if isinstance(e, Neg) else e.func, a, None))
        self._point_ops = [
            (_point_op(kind, b), a, b if kind in _BINARY else a) for kind, a, b in self._ops
        ]

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def _leaves(self) -> int:
        return len(self._consts) + len(self._vars)

    # -- one point -----------------------------------------------------------

    def values(self, point: Sequence[float]) -> list[float]:
        """The root values at one point.

        Raises EvalDomainError where a compiled lambda would raise, and where
        ``**`` or exp overflows.
        """
        v = self._consts + [float(point[i]) for i in self._vars]
        append = v.append
        try:
            for op, a, b in self._point_ops:
                append(op(v[a], v[b]))
        except _FAILURES as err:
            kind = self._ops[len(v) - self._leaves][0]
            message = "overflow" if isinstance(err, OverflowError) else _DOMAIN_MESSAGES[kind]
            raise EvalDomainError(message, self.nodes[len(v)].to_string()) from None
        return [v[r] for r in self.roots]

    # -- many samples ----------------------------------------------------------

    def residual(self, samples) -> float:
        """max over roots and samples of |v| / (1 + scale).

        `scale` is the largest |value| of any subterm of the root at the
        sample.  Every node is evaluated once, over all samples together.  A
        NaN or infinite value or scale makes the residual inf.  A domain error
        raises the EvalDomainError that a per-component, per-sample tree walk
        would meet first.
        """
        pts = np.asarray(samples, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ExprError("samples must be a non-empty list of points")
        vals = [np.full(len(pts), c) for c in self._consts] + [pts[:, i] for i in self._vars]
        scales = [np.abs(v) for v in vals]
        failures: dict[int, np.ndarray] = {}
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
                    fn = _FUNCS.get(kind) or (lambda x, k=b: _power(x, k))
                    v, failed = _elementwise(fn, vals[a])
                    s = scales[a]
                if failed is not None and failed.any():
                    v[failed] = math.nan
                    failures[len(vals)] = failed
                vals.append(v)
                scales.append(np.maximum(s, np.abs(v)))
        if failures:
            raise self._first_failure(failures)
        if not self.roots:
            return 0.0
        scale = np.array([scales[r] for r in self.roots])
        if not np.isfinite(scale).all():
            return math.inf
        value = np.abs(np.array([vals[r] for r in self.roots]))
        return float((value / (1.0 + scale)).max())

    def _first_failure(self, failures: dict[int, np.ndarray]) -> EvalDomainError:
        # A tree walk goes root by root, then sample by sample, and stops at
        # the first failing node in post-order.  Nodes that an earlier root
        # reaches never fail (that root would have raised), so within the
        # first failing root, slot order is its walk order.
        for root in self.roots:
            hit = sorted(i for i in self._reach(root) if i in failures)
            if hit:
                sample = int(np.argmax(np.any([failures[i] for i in hit], axis=0)))
                node = next(i for i in hit if failures[i][sample])
                message = _DOMAIN_MESSAGES[self._ops[node - self._leaves][0]]
                return EvalDomainError(message, self.nodes[node].to_string())
        raise AssertionError("a failing node is reachable from some root")

    def _reach(self, root: int) -> set[int]:
        seen = set()
        stack = [root]
        while stack:
            i = stack.pop()
            if i not in seen:
                seen.add(i)
                if i >= self._leaves:
                    kind, a, b = self._ops[i - self._leaves]
                    stack.append(a)
                    if kind in _BINARY:
                        stack.append(b)
        return seen


def residual(exprs: Iterable[Expr], samples) -> float:
    """Worst scaled residual of the expressions over the samples (see Plan.residual)."""
    return Plan(exprs).residual(samples)


# ---------------------------------------------------------------------------
# ScalarField: an expression plus its arity
# ---------------------------------------------------------------------------

class ScalarField:
    """A function of n chart coordinates given by an expression tree."""

    __slots__ = ("expr", "arity", "_compiled")

    def __init__(self, expr: Expr, arity: int):
        if expr.max_var() >= arity:
            raise ExprError(
                f"expression uses variable index {expr.max_var()} "
                f"but arity is {arity}"
            )
        self.expr = expr
        self.arity = arity
        self._compiled: Callable[[Sequence[float]], float] | None = None

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

    def compiled(self) -> Callable[[Sequence[float]], float]:
        if self._compiled is None:
            self._compiled = compile_expr(self.expr)
        return self._compiled

    def __call__(self, point: Sequence[float]) -> float:
        return self.expr.evaluate(point)

    def is_zero_expr(self) -> bool:
        return _is_const(self.expr, 0.0)

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
    return f.expr.evaluate(point)


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
    return lo + (hi - lo) * rng.random((count, len(box)))
