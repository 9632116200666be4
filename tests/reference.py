"""The reference route that evaluation plans are tested against.

`eval_scaled` walks an expression tree recursively at one point, node by
node with multiplicity, independently of `expr.Plan` and `compile_plan`.
"""

import math

from sympoisson.expr import BinOp, Call, Const, EvalDomainError, Neg, Pow, Var

_FUNCS = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


def eval_scaled(e, values):
    """(value, scale) of `e` at the point `values`; scale = max |v| over all
    subterm values.  Raises EvalDomainError naming the first failing subterm."""
    if isinstance(e, Const):
        return e.value, abs(e.value)
    if isinstance(e, Var):
        v = values[e.index]
        return v, abs(v)
    if isinstance(e, BinOp):
        a, sa = eval_scaled(e.left, values)
        b, sb = eval_scaled(e.right, values)
        if e.op == "+":
            v = a + b
        elif e.op == "-":
            v = a - b
        elif e.op == "*":
            v = a * b
        else:
            if b == 0.0:
                raise EvalDomainError("division by zero", e)
            v = a / b
        return v, max(sa, sb, abs(v))
    if isinstance(e, Pow):
        b, sb = eval_scaled(e.base, values)
        if b == 0.0 and e.exponent < 0:
            raise EvalDomainError("zero raised to a negative power", e)
        v = b ** e.exponent
        return v, max(sb, abs(v))
    if isinstance(e, Neg):
        v, s = eval_scaled(e.arg, values)
        return -v, s
    if isinstance(e, Call):
        a, s = eval_scaled(e.arg, values)
        v = _apply(e, a)
        return v, max(s, abs(v))
    raise TypeError(f"not an expression node: {e!r}")


def _apply(e, a):
    if e.func == "ln" and a <= 0.0:
        raise EvalDomainError("ln of a non-positive argument", e)
    if e.func == "sqrt" and a < 0.0:
        raise EvalDomainError("sqrt of a negative argument", e)
    try:
        return _FUNCS[e.func](a)
    except OverflowError:
        raise EvalDomainError("overflow", e) from None
