"""Generated structure files through `sympoisson check` and `integrate`,
in-process.

Whatever the file holds, both commands end with a documented exit code (0
pass, 1 usage or parse error, 2 mismatch, 3 numeric failure) and no
exception escapes.  A sample box that is not finite with lo < hi, a
`[catalog]` id outside the catalog, a `[probe]` point with a coordinate that
is not finite, a `[chart]` without `dim` or `names`, a `[hamiltonian]`
without `H` and a `[theta]` that gives one symmetric slot twice are usage
errors.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sympoisson import cli

_BOUNDS = ["-1", "0", "0.5", "1", "2", "nan", "inf", "-inf"]

intervals = st.one_of(
    st.tuples(st.sampled_from(_BOUNDS), st.sampled_from(_BOUNDS)).map(":".join),
    st.sampled_from(["", "1", ":", "a:b", "1:2:3"]),
)

catalog_ids = st.one_of(
    st.sampled_from(cli.catalog_ids()),
    st.sampled_from(["jj:nope", "ex:nope", "liealg:abelian_3", "liealg:abelian_x", "liealg:so3", "dim2", ""]),
)

atoms = st.sampled_from(["x", "y", "1", "2.5", "0", "(-1)"])
exprs = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["ln", "sqrt", "exp"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.integers(-3, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
    ),
    max_leaves=5,
)


coordinates = st.sampled_from(["0", "0.5", "-1", "2", "1e308", "nan", "inf", "-inf", "x"])

probes = st.lists(
    st.tuples(
        st.sampled_from([2, 2, 2, 1, 3]).flatmap(lambda size: st.lists(coordinates, min_size=size, max_size=size)),
        st.one_of(st.none(), st.sampled_from(["0", "1", "2", "x"])),
        st.one_of(st.none(), st.sampled_from(["1, 0", "0, 0", "1, 1", "2"])),
    ),
    max_size=2,
)


def _non_finite_point(tokens: list[str]) -> bool:
    """Whether every coordinate parses as a float and one is not finite."""
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        return False
    return not all(math.isfinite(v) for v in values)


def _box_ok(box: list[str]) -> bool | None:
    """Whether every interval is finite with lo < hi; None when one does not parse."""
    ok = True
    for tok in box:
        lo, sep, hi = tok.partition(":")
        try:
            lo, hi = float(lo), float(hi)
        except ValueError:
            return None
        ok = ok and math.isfinite(lo) and math.isfinite(hi) and lo < hi
    return ok


@st.composite
def structure_files(draw, command):
    # integrate reads probes as check does; without them it reaches a run more often
    drawn_probes = draw(probes) if command == "check" else []
    facts = {"non_finite_point": any(_non_finite_point(tokens) for tokens, _, _ in drawn_probes)}
    extra_lines = []
    for number, (tokens, rank, signature) in enumerate(drawn_probes):
        section = "probe" if number == 0 else f"probe.{number}"
        extra_lines += [f"[{section}]", f"point = {', '.join(tokens)}"]
        extra_lines += [] if rank is None else [f"rank = {rank}"]
        extra_lines += [] if signature is None else [f"signature = {signature}"]
    hamiltonian = draw(st.sampled_from([None, "missing", "given"]))
    if hamiltonian is not None:
        extra_lines += ["[hamiltonian]"] + ([f'H = "{draw(exprs)} * p1 + p2^2"'] if hamiltonian == "given" else [])
    facts["missing_h"] = hamiltonian == "missing"
    if draw(st.booleans()):
        ident = draw(catalog_ids)
        return "\n".join([f"[catalog]\nid = {ident}", *extra_lines]) + "\n", {"ident": ident, **facts}
    missing = draw(st.sampled_from([None, None, None, "dim", "names"]))
    box = draw(st.one_of(st.none(), st.lists(intervals, min_size=2, max_size=2)))
    lines = ["[chart]"] + [line for key, line in [("dim", "dim = 2"), ("names", "names = x, y")] if key != missing]
    if box is not None:
        lines.append(f"box = {', '.join(box)}")
    lines.append("[theta]")
    keys = draw(st.lists(st.sampled_from(["1,1", "1,2", "2,2", "2,1"]), min_size=1, max_size=3, unique=True))
    for key in keys:
        lines.append(f'theta[{key}] = "{draw(exprs)}"')
    twice = [key for key in keys if key in ("1,2", "2,1")]
    facts["twice"] = twice if len(twice) == 2 else None
    if draw(st.booleans()):
        lines += ["[connection]", f'gamma[1,1,2] = "{draw(exprs)}"']
    if draw(st.booleans()):
        lines += ["[expect]", f"symmetric_poisson = {draw(st.sampled_from(['true', 'false']))}"]
    return "\n".join(lines + extra_lines) + "\n", {"box": box, "missing": missing, **facts}


ARGS = {"check": ["--samples", "3"], "integrate": ["--x0", "0.5, 0.5", "--p0", "1, 0", "--steps", "3"]}
runs = st.sampled_from(list(ARGS)).flatmap(lambda command: st.tuples(st.just(command), structure_files(command)))


@settings(max_examples=60, deadline=None)
@given(runs)
def test_check_never_escapes_its_exit_codes(run):
    command, (text, facts) = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.ini"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path), *ARGS[command]])
    assert code in (0, 1, 2, 3), text
    if facts.get("missing") is not None:
        assert code == 1, text
        assert err.getvalue() == f"error: [chart] needs {facts['missing']}\n", text
        return
    if facts.get("twice") is not None:
        # theta[1,2] and theta[2,1] name one slot; only a box that does not
        # parse is reported before them
        assert code == 1, text
        if facts["box"] is None or _box_ok(facts["box"]) is not None:
            first, second = facts["twice"]
            assert err.getvalue() == f"error: [theta] theta[{first}] and theta[{second}] name the same slot\n", text
        return
    if facts["missing_h"]:
        assert code == 1, text
        assert err.getvalue().startswith("error: "), text
    if "ident" in facts and facts["ident"] not in cli.catalog_ids():
        assert code == 1, text
        assert err.getvalue().startswith("error: "), text
    if facts.get("box") is not None and _box_ok(facts["box"]) is False:
        assert code == 1, text
        assert "must be finite with lo < hi" in err.getvalue(), text
    if facts["non_finite_point"]:
        assert code == 1, text
        assert err.getvalue().startswith("error: "), text
