import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sympoisson import cli

ROOT = Path(__file__).resolve().parents[1]
STRUCTURES = ROOT / "structures"


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout/stderr and the exit code."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def assert_exact_fields(path):
    """Every value of an integrate CSV is exactly what '%.17g' prints for its double."""
    for line in path.read_text().splitlines()[1:]:
        for field in line.split(","):
            assert field == "%.17g" % float(field), line


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name",
    ["inclusion.ini", "nondeg_kill.ini", "flat_11.ini", "r5.ini", "sing_line.ini"],
)
def test_check_shipped_structures(name):
    code, out, err = run_cli("check", str(STRUCTURES / name))
    assert code == 0, out + err
    assert "PASS" in out


def test_check_mismatch_exit_code(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"x\"\n\n"
        "[expect]\nsymmetric_poisson = true\n"
    )
    code, out, err = run_cli("check", str(bad))
    assert code == 2
    assert "MISMATCH" in out


def test_check_parse_error_exit_code(tmp_path):
    bad = tmp_path / "broken.ini"
    bad.write_text(
        "[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"x +* 2\"\n"
    )
    code, out, err = run_cli("check", str(bad))
    assert code == 1
    assert "error" in err


def test_check_unknown_identifier_exit_code(tmp_path):
    bad = tmp_path / "unknown.ini"
    bad.write_text("[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"q\"\n")
    code, out, err = run_cli("check", str(bad))
    assert code == 1


def test_check_missing_file():
    code, out, err = run_cli("check", "/nonexistent/file.ini")
    assert code == 1


MISSING_KEYS = {
    "dim": "[chart]\nnames = x\n\n[theta]\ntheta[1,1] = \"1\"\n",
    "names": "[chart]\ndim = 1\n\n[theta]\ntheta[1,1] = \"1\"\n",
    "H": "[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"1\"\n\n[hamiltonian]\n",
}


@pytest.mark.parametrize("key", MISSING_KEYS)
def test_a_missing_key_is_a_usage_error(tmp_path, key):
    path = tmp_path / "missing.ini"
    path.write_text(MISSING_KEYS[key])
    section = "hamiltonian" if key == "H" else "chart"
    for argv in (["check"], ["integrate", "--x0", "1", "--p0", "0", "--steps", "3"]):
        code, out, err = run_cli(argv[0], str(path), *argv[1:])
        assert (code, out, err) == (1, "", f"error: [{section}] needs {key}\n"), argv


ONE_DIM = "[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"1\"\n"
STRUCTURE_ERRORS = {
    "bad key": (ONE_DIM + "phi[1,1] = \"x\"\n", "bad key 'phi[1,1]', expected theta[i,...]"),
    "index count": (ONE_DIM.replace("theta[1,1]", "theta[1]"), "key 'theta[1]' needs 2 indices"),
    "0-based index": (ONE_DIM.replace("theta[1,1]", "theta[0,1]"), "indices in 'theta[0,1]' are 1-based"),
    "bad boolean": (ONE_DIM + "\n[expect]\nstrong = maybe\n", "expected a boolean, got 'maybe'"),
    "malformed": (ONE_DIM.replace("names", "dim"),
                  "malformed file {path}: While reading from '{path}' [line  3]: option 'dim' in section 'chart' "
                  "already exists"),
    "bare line": (ONE_DIM.replace("names = x\n", "names = x\ngarbage\n"),
                  "malformed file {path}: Source contains parsing errors: '{path}' [line  4]: 'garbage\\n'"),
    "no section header": ("dim = 1\n" + ONE_DIM,
                          "malformed file {path}: File contains no section headers. file: '{path}', line: 1 "
                          "'dim = 1\\n'"),
    "involutivity verdict": (ONE_DIM + "\n[expect]\ninvolutive = maybe\n", "unknown involutivity verdict 'maybe'"),
    "expectation": (ONE_DIM + "\n[expect]\nflat = true\n", "unknown expectation 'flat'"),
    "probe point": (ONE_DIM + "\n[probe]\nrank = 1\n", "[probe] needs a point"),
    "signature": (ONE_DIM + "\n[probe]\npoint = 0.5\nsignature = 1\n", "[probe] signature must be 'p, q'"),
    "no chart": ("[theta]\ntheta[1,1] = \"1\"\n", "missing [chart] section (or a [catalog] reference)"),
    "names and dim": (ONE_DIM.replace("dim = 1", "dim = 2"), "names list does not match dim"),
    "box interval": (ONE_DIM.replace("names = x", "names = x\nbox = -1 1"), "box intervals use lo:hi"),
    "box count": (ONE_DIM.replace("names = x", "names = x\nbox = -1:1, -1:1"),
                  "sample box must list one interval per coordinate"),
    "monitor": (ONE_DIM, "unknown monitor 'energy'"),
    "blank index": (ONE_DIM.replace("theta[1,1]", "theta[1, ,2]"), "bad key 'theta[1, ,2]', expected theta[i,...]"),
    "dim number": (ONE_DIM.replace("dim = 1", "dim = 2.5"),
                   "[chart] dim: invalid literal for int() with base 10: '2.5'"),
    "box number": (ONE_DIM.replace("names = x", "names = x\nbox = a:1"),
                   "[chart] box: could not convert string to float: 'a'"),
    "point number": (ONE_DIM + "\n[probe]\npoint = 0.1, zz\n", "[probe] point: could not convert string to float: 'zz'"),
    "point dimension": (ONE_DIM.replace("dim = 1\nnames = x", "dim = 2\nnames = x, y") + "\n[probe]\npoint = 0.1\n",
                        "[probe] point has wrong dimension"),
    "rank number": (ONE_DIM + "\n[probe.a]\npoint = 0.5\nrank = two\n",
                    "[probe.a] rank: invalid literal for int() with base 10: 'two'"),
    "signature number": (ONE_DIM + "\n[probe]\npoint = 0.5\nsignature = 1, b\n",
                         "[probe] signature: invalid literal for int() with base 10: 'b'"),
    "nested parentheses": (ONE_DIM.replace('"1"', '"' + "(" * 300 + "x" + ")" * 300 + '"'),
                           "expression nested too deeply (at position 200)"),
    "unary minuses": (ONE_DIM.replace('"1"', '"' + "-" * 1000 + "x" + '"'),
                      "expression nested too deeply (at position 200)"),
    # it parses, but differentiating it recurses past the interpreter's limit
    "long product": (ONE_DIM.replace('"1"', '"' + "*".join(["x"] * 500) + '"'), "expression nested too deeply"),
}


@pytest.mark.parametrize("case", STRUCTURE_ERRORS)
def test_a_structure_file_error_is_one_usage_error_line(tmp_path, case):
    text, message = STRUCTURE_ERRORS[case]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    integrate = ["integrate", "--x0", "1", "--p0", "0", "--steps", "3"]
    runs = [integrate + ["--monitors", "energy"]] if case == "monitor" else [["check"], integrate]
    for argv in runs:
        code, out, err = run_cli(argv[0], str(path), *argv[1:])
        assert (code, out, err) == (1, "", f"error: {message.format(path=path)}\n"), argv


@pytest.mark.parametrize("theta", ["(" * 200 + "x" + ")" * 200, "*".join(["x"] * 400)], ids=["parentheses", "product"])
def test_a_deep_expression_within_the_bounds_is_checked(tmp_path, theta):
    path = tmp_path / "deep.ini"
    path.write_text(ONE_DIM.replace('"1"', f'"{theta}"'))
    code, out, err = run_cli("check", str(path))
    assert (code, err) == (0, ""), err[-300:]
    assert out.splitlines()[-1] == "PASS (4/4)"


def test_a_deep_failing_subterm_is_named(tmp_path):
    # ln's argument is about 1,000 levels deep, past the interpreter's
    # recursion limit, and negative on the whole box: the error prints it
    path = tmp_path / "deep.ini"
    product = "*".join(["x"] * 995)
    path.write_text("[chart]\ndim = 2\nnames = x, y\n\n[theta]\ntheta[1,1] = \"1\"\n\n"
                    f"[connection]\ngamma[1,1,2] = \"ln({product} - 1e300)\"\n")
    code, out, err = run_cli("check", str(path))
    assert (code, out) == (3, ""), err[-300:]
    assert err == f"error: ln of a non-positive argument in subterm 'ln({product.replace('*', ' * ')} - 1e+300)'\n"


def test_check_index_out_of_range(tmp_path):
    bad = tmp_path / "range.ini"
    bad.write_text("[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,2] = \"x\"\n")
    code, out, err = run_cli("check", str(bad))
    assert code == 1


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

def test_integrate_writes_csv(tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, err = run_cli(
        "integrate",
        str(STRUCTURES / "inclusion.ini"),
        "--x0", "0.2,0.1",
        "--p0", "1.0,0.5",
        "--steps", "200",
        "--monitors", "hamiltonian,speed_sq",
        "--out", str(out_path),
    )
    assert code == 0, err
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,p1,p2,hamiltonian,speed_sq"
    assert len(lines) == 202
    assert "monitor hamiltonian" in out
    assert "monitor speed_sq" in out


def test_integrate_without_out_writes_the_same_bytes_to_stdout(tmp_path):
    # without --out the CSV takes stdout, so the monitor lines go to stderr
    out_path = tmp_path / "traj.csv"
    argv = [
        sys.executable, "-m", "sympoisson.cli", "integrate", str(STRUCTURES / "nondeg_kill.ini"),
        "--x0=0.1,0.2", "--p0=0.4,-0.3", "--steps", "50", "--monitors", "hamiltonian,speed_sq,geodesic_residual",
    ]
    to_file = subprocess.run([*argv, "--out", str(out_path)], capture_output=True, cwd=ROOT / "src")
    to_stdout = subprocess.run(argv, capture_output=True, cwd=ROOT / "src")
    assert (to_file.returncode, to_file.stderr) == (0, b"")
    assert to_stdout.returncode == 0
    assert to_stdout.stdout == out_path.read_bytes()
    monitors = to_file.stdout.decode().splitlines()
    assert [line.split(":")[0] for line in monitors] == [
        "monitor hamiltonian", "monitor speed_sq", "monitor geodesic_residual"
    ]
    assert to_stdout.stderr.decode().splitlines() == monitors
    assert_exact_fields(out_path)


def test_integrate_conserves_for_integrable_structure(tmp_path):
    out_path = tmp_path / "traj.csv"
    code, out, err = run_cli(
        "integrate",
        str(STRUCTURES / "nondeg_kill.ini"),
        "--x0", "0.0,0.0",
        "--p0", "0.7,0.3",
        "--steps", "1000",
        "--monitors", "hamiltonian,speed_sq",
        "--out", str(out_path),
    )
    assert code == 0
    drift = [float(l.split("max drift ")[1]) for l in out.strip().split("\n")]
    assert max(drift) <= 1e-8


def test_integrate_oscillator_matches_cosine(tmp_path):
    out_path = tmp_path / "osc.csv"
    steps = int(round(2 * math.pi / 1e-3))
    code, out, err = run_cli(
        "integrate",
        str(STRUCTURES / "oscillator.ini"),
        "--x0", "1.0",
        "--p0", "0.0",
        "--steps", str(steps),
        "--out", str(out_path),
    )
    assert code == 0
    data = np.genfromtxt(out_path, delimiter=",", names=True)
    err_max = np.abs(data["x1"] - np.cos(data["t"])).max()
    assert err_max <= 1e-6


def test_integrate_a_quotient_by_a_huge_constant_runs(tmp_path):
    # differentiating x^2 / 1e200 squared the constant 1e200, which
    # overflowed into a traceback; the derivative is now 2 x / 1e200
    out_path = tmp_path / "osc.csv"
    code, out, err = run_cli(
        "integrate", str(STRUCTURES / "oscillator.ini"), "--hamiltonian", "0.5*p1^2 - 0.5*x^2 / 1e200 * 1e200",
        "--x0", "1", "--p0", "0", "--steps", "1000", "--out", str(out_path),
    )
    assert code == 0 and err == ""
    data = np.genfromtxt(out_path, delimiter=",", names=True)
    assert len(data) == 1001
    assert np.abs(data["x1"] - np.cos(data["t"])).max() <= 1e-13


def test_integrate_usage_error_on_zero_steps():
    code, out, err = run_cli(
        "integrate",
        str(STRUCTURES / "inclusion.ini"),
        "--x0", "0,0",
        "--p0", "1,0",
        "--steps", "0",
    )
    assert code == 1


def test_integrate_an_x0_of_the_wrong_dimension_is_a_usage_error():
    code, out, err = run_cli(
        "integrate", str(STRUCTURES / "nondeg_kill.ini"), "--x0=0.1", "--p0=0.2", "--steps", "3",
    )
    assert (code, out, err) == (1, "", "error: --x0 has the wrong dimension\n")


@pytest.mark.parametrize("x0, p0, message", [
    ("0.1,0.2", "0.3", "x and p must have the same length"),
    ("nan,0.2", "0.3,0.1", "state entries must be finite"),
])
def test_integrate_an_initial_state_the_flow_refuses_is_a_usage_error(x0, p0, message):
    code, out, err = run_cli(
        "integrate", str(STRUCTURES / "nondeg_kill.ini"), f"--x0={x0}", f"--p0={p0}", "--steps", "3",
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("dt", ["nan", "inf", "-inf"])
def test_integrate_non_finite_dt_is_a_usage_error(dt):
    code, out, err = run_cli(
        "integrate",
        str(STRUCTURES / "oscillator.ini"),
        "--x0", "1",
        "--p0", "0",
        f"--dt={dt}",
        "--steps", "3",
    )
    assert (code, out, err) == (1, "", "error: need --steps >= 1 and a finite --dt > 0\n")


def test_integrate_geodesic_monitor_needs_two_steps(tmp_path):
    out_path = tmp_path / "run.csv"
    code, out, err = run_cli(
        "integrate", str(STRUCTURES / "nondeg_kill.ini"), "--x0", "0.1,0.2", "--p0", "0.4,-0.3",
        "--steps", "1", "--monitors", "hamiltonian,geodesic_residual", "--out", str(out_path),
    )
    assert (code, out, err) == (1, "", "error: the geodesic_residual monitor needs --steps >= 2\n")
    assert not out_path.exists()


@pytest.mark.parametrize("option", ["--tol=5", "--samples=0", "--seed=3"])
def test_integrate_refuses_the_verdict_options(option):
    # integrate samples nothing, so the verdict suite's knobs are not its own
    code, out, err = run_cli(
        "integrate", str(STRUCTURES / "oscillator.ini"), "--x0", "1", "--p0", "0", "--steps", "2", option,
    )
    assert (code, out) == (1, "")
    assert err.endswith(f"error: unrecognized arguments: {option}\n"), err


@pytest.mark.parametrize("hamiltonian", [[], ["--hamiltonian", "p1^2"], ["--hamiltonian", "theta_v"]])
def test_integrate_refuses_a_coordinate_named_like_a_momentum(tmp_path, hamiltonian):
    # the phase chart names its momenta p1..pn, so a base coordinate p1 is
    # ambiguous whichever Hamiltonian the run lifts
    structure = tmp_path / "clash.ini"
    structure.write_text('[chart]\ndim = 1\nnames = p1\n\n[theta]\ntheta[1,1] = "1/p1"\n')
    out_path = tmp_path / "run.csv"
    code, out, err = run_cli(
        "integrate", str(structure), "--x0", "0.5", "--p0", "1", "--steps", "3", "--out", str(out_path), *hamiltonian,
    )
    assert (code, out, err) == (1, "", "error: base coordinates {'p1'} collide with momentum names\n")
    assert not out_path.exists()


def test_integrate_blow_up_flushes_partial(tmp_path):
    src = tmp_path / "explode.ini"
    src.write_text(
        "[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"1\"\n\n"
        "[hamiltonian]\nH = \"x^2 * p1^2\"\n"
    )
    out_path = tmp_path / "partial.csv"
    code, out, err = run_cli(
        "integrate",
        str(src),
        "--x0", "2.0",
        "--p0", "2.0",
        "--dt", "0.05",
        "--steps", "5000",
        "--out", str(out_path),
    )
    assert code == 3
    assert "blew up" in err
    assert out_path.exists()
    assert len(out_path.read_text().strip().split("\n")) > 1
    assert_exact_fields(out_path)


@pytest.mark.parametrize(
    "x0, p0, message, rows",
    [
        # the second RK4 stage of step 1 lands on x = 0, where H_x = 1/x
        ("0.001", "-2", "division by zero in subterm '1 / x' at step 1", 1),
        # the first state is outside the domain of the hamiltonian monitor
        ("-1", "0", "ln of a non-positive argument in subterm 'ln(x)' at step 0", 0),
    ],
)
def test_integrate_domain_error_exits_3_and_flushes(tmp_path, x0, p0, message, rows):
    out_path = tmp_path / "partial.csv"
    code, out, err = run_cli(
        "integrate", str(STRUCTURES / "oscillator.ini"), "--hamiltonian", "0.5*p1^2 + ln(x)",
        f"--x0={x0}", f"--p0={p0}", "--out", str(out_path),
    )
    assert code == 3, out + err
    assert err == f"error: {message}\n"
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,x1,p1,hamiltonian"
    assert len(lines) == 1 + rows
    assert_exact_fields(out_path)


def test_integrate_monitor_overflow_exits_3_and_flushes(tmp_path):
    out_path = tmp_path / "partial.csv"
    code, out, err = run_cli(
        "integrate", str(STRUCTURES / "oscillator.ini"), "--hamiltonian", "0.5*p1^2 + x^4",
        "--x0=100", "--p0=1e30", "--out", str(out_path),
    )
    assert code == 3, out + err
    assert re.match(r"error: trajectory blew up at step \d+: overflow in subterm '(p1|x)\^[24]'\n", err), err
    assert len(out_path.read_text().splitlines()) >= 2
    assert_exact_fields(out_path)


def test_integrate_geodesic_monitor_domain_error(tmp_path):
    src = tmp_path / "log.ini"
    src.write_text("[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"ln(x)\"\n")
    out_path = tmp_path / "run.csv"
    # x crosses 0 at t = 0.01; the flow of p1^2/2 never evaluates theta
    code, out, err = run_cli(
        "integrate", str(src), "--hamiltonian", "0.5*p1^2", "--x0=0.01", "--p0=-1",
        "--steps", "50", "--monitors", "hamiltonian,geodesic_residual", "--out", str(out_path),
    )
    assert code == 3, out + err
    assert err.startswith("error: ")
    assert err.endswith("in subterm 'ln(x)' in the geodesic_residual monitor\n"), err
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,x1,p1,hamiltonian"
    assert len(lines) == 52
    assert_exact_fields(out_path)


# sha256 of the partial CSV below, recorded while the monitors were computed
# inside the RK4 loop, one state at a time
PARTIAL_CSV_DIGEST = "3cc92e1a0f09342892230ca27fb0d9d354bc43256982cf14395cfee046e50ce6"


def test_a_monitor_that_fails_mid_run_leaves_pinned_partial_bytes(tmp_path):
    import hashlib

    src = tmp_path / "log.ini"
    src.write_text("[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"ln(x) + 2\"\n")
    out_path = tmp_path / "run.csv"
    # the flow of p1^2/2 never evaluates theta; x crosses 0 at state 11, where
    # speed_sq = (ln(x) + 2) p1^2 fails, though the flow runs on to step 50
    code, out, err = run_cli(
        "integrate", str(src), "--hamiltonian", "0.5*p1^2", "--x0=0.0105", "--p0=-1",
        "--steps", "50", "--monitors", "hamiltonian,speed_sq", "--out", str(out_path),
    )
    assert code == 3, out + err
    assert err == "error: ln of a non-positive argument in subterm 'ln(x)' at step 11\n"
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,x1,p1,hamiltonian,speed_sq"
    assert len(lines) == 12
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == PARTIAL_CSV_DIGEST


def test_a_gamma_no_verdict_term_reads_fails_check_and_the_monitor(tmp_path):
    # theta's row y is all structural zeros, so no verdict term multiplies
    # Gamma^y_yy = ln(x) in; the one jet plan evaluates it all the same, so
    # check fails where x < 0 on the samples, and the monitor's Gamma v v
    # fails once x crosses 0 at t = 0.01
    src = tmp_path / "masked.ini"
    src.write_text("[chart]\ndim = 2\nnames = x, y\n\n[theta]\ntheta[1,1] = \"x\"\n\n"
                   "[connection]\ngamma[2,2,2] = \"ln(x)\"\n")
    code, out, err = run_cli("check", str(src))
    assert (code, err) == (3, "error: ln of a non-positive argument in subterm 'ln(x)'\n"), out + err
    out_path = tmp_path / "run.csv"
    code, out, err = run_cli(
        "integrate", str(src), "--hamiltonian", "0.5*p1^2", "--x0=0.01,0.2", "--p0=-1,0",
        "--steps", "50", "--monitors", "hamiltonian,geodesic_residual", "--out", str(out_path),
    )
    assert code == 3, out + err
    assert err.startswith("error: ln of a non-positive argument")
    assert err.endswith("in subterm 'ln(x)' in the geodesic_residual monitor\n"), err
    assert len(out_path.read_text().splitlines()) == 52


def test_a_verdict_scale_that_overflows_over_finite_leaves_stays_finite(tmp_path):
    # the scale of theta^{im} nabla_m theta sums products of leaf scales near
    # 1e150 and 1e300, which overflow; every value and leaf scale is finite,
    # so the scale is formed again over leaf scales times 2^-e
    src = tmp_path / "overflow.ini"
    src.write_text("[chart]\ndim = 2\nnames = x, y\n\n[theta]\ntheta[1,1] = \"-1\"\n"
                   "theta[1,2] = \"sin(x) / (1e150*x)\"\ntheta[2,2] = \"x - 1e150*x\"\n")
    code, out, err = run_cli("check", str(src))
    assert (code, err) == (0, ""), out + err
    assert out.splitlines()[1:3] == [
        "check:symmetric_poisson  expected=- got=True residual=9.07e-298 [ok]",
        "check:strong             expected=- got=False residual=1 [ok]",
    ]
    from sympoisson import poisson

    pair = cli.load_structure(str(src)).pair
    jets = pair.jets()
    for quantity in ("directional", "schouten"):
        value, scale = jets.contracted[quantity]
        assert np.isfinite(value).all() and not np.isfinite(scale).all(), quantity
        assert np.isfinite(jets.scales[:, pair._jet_plan.columns[: 2 * 2 + 2**3]]).all()
    assert 0.0 < poisson.symmetric_poisson_residual(pair) < 1e-290
    assert poisson.strong_residual(pair) == 1.0


def test_a_rescaled_scale_reads_a_node_of_theta_and_gamma_once(tmp_path):
    # Gamma^x_{xy} and theta^{yy} are one node, so one column of the jet
    # table.  The scales of D and [theta, theta] overflow over finite leaf
    # scales, so each is summed again with its theta and d theta factors
    # read from the scales times 2^-e and its Gamma factors from the scales
    src = tmp_path / "shared.ini"
    src.write_text("[chart]\ndim = 2\nnames = x, y\n\n[theta]\ntheta[1,1] = \"-1\"\n"
                   "theta[1,2] = \"sin(x) / (1e150*x)\"\ntheta[2,2] = \"x - 1e150*x\"\n\n"
                   "[connection]\ngamma[1,1,2] = \"x - 1e150*x\"\n")
    code, out, err = run_cli("check", str(src))
    assert (code, err) == (0, ""), out + err
    assert out.splitlines()[1:] == [
        "check:symmetric_poisson  expected=- got=True residual=9.09e-151 [ok]",
        "check:strong             expected=- got=False residual=1 [ok]",
        "check:parallel           expected=- got=False residual=1 [ok]",
        "check:involutive         expected=- got=involutive_on_samples residual=2.9e-301 [ok]",
        "PASS (4/4)",
    ]
    from sympoisson import poisson

    pair = cli.load_structure(str(src)).pair
    columns, jets = pair._jet_plan.columns, pair.jets()
    # leaf ids: theta^{yy} at 3, Gamma^x_{xy} at 2^2 + 2^3 + 1
    assert columns[3] == columns[13]
    for quantity in ("directional", "schouten"):
        value, scale = jets.contracted[quantity]
        assert np.isfinite(value).all() and not np.isfinite(scale).all(), quantity
    assert np.isfinite(jets.scales).all()
    assert poisson.symmetric_poisson_residual(pair) == 9.085809280526513e-151


def test_integrate_geodesic_monitor_overflow_exits_3_and_flushes(tmp_path):
    import warnings

    src = tmp_path / "line.ini"
    src.write_text("[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"x\"\n")
    out_path = tmp_path / "run.csv"
    # p grows along the flow, so the defect ~ p^2 x is finite at first and its
    # square overflows from step 11; every state stays finite
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            "integrate", str(src), "--x0=1", "--p0=1e77", "--dt=1e-78", "--steps", "15",
            "--monitors", "hamiltonian,geodesic_residual", "--out", str(out_path),
        )
    assert (code, err) == (3, "error: the geodesic residual is not finite at step 11\n"), out + err
    assert "geodesic_residual" not in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "t,x1,p1,hamiltonian"
    assert len(lines) == 17
    assert_exact_fields(out_path)
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "theta, message",
    [
        ("0^-1 + {}", "zero raised to a negative power in subterm '0^-1'"),
        ("exp(1000) * {}", "overflow in subterm 'exp(1000)'"),
    ],
)
def test_constant_folding_errors_are_usage_errors(tmp_path, theta, message):
    path = tmp_path / "fold.ini"
    path.write_text(f"[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"{theta.format('x')}\"\n")
    assert run_cli("check", str(path)) == (1, "", f"error: {message}\n")
    code, out, err = run_cli(
        "integrate", str(STRUCTURES / "oscillator.ini"), "--hamiltonian", theta.format("p1"),
        "--x0=1", "--p0=1",
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_integrate_deterministic_bytes(tmp_path):
    def once(path):
        run_cli(
            "integrate",
            str(STRUCTURES / "nondeg_kill.ini"),
            "--x0", "0.1,0.2",
            "--p0", "0.4,-0.3",
            "--steps", "100",
            "--monitors", "hamiltonian,speed_sq",
            "--out", str(path),
        )
        return path.read_bytes()

    assert once(tmp_path / "a.csv") == once(tmp_path / "b.csv")


def test_integrate_unwritable_out_exits_1(tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        "integrate", str(STRUCTURES / "oscillator.ini"), "--x0=1", "--p0=0", "--steps", "5", "--out", str(path),
    )
    assert (code, out, err) == (1, "", f"error: cannot write {path}: No such file or directory\n")


# ---------------------------------------------------------------------------
# verdicts that must not pass by accident
# ---------------------------------------------------------------------------

NAN_BOX = """\
[chart]
dim = 2
names = x, y
box = nan:1, -1:1

[theta]
theta[1,2] = "exp(-2*(x+y))"

[connection]
gamma[1,1,2] = "1"
gamma[2,1,2] = "1"

[expect]
symmetric_poisson = true
strong = true
"""


def test_check_nan_box_fails_instead_of_passing(tmp_path):
    path = tmp_path / "nan_box.ini"
    path.write_text(NAN_BOX)
    code, out, err = run_cli("check", str(path))
    assert code == 1, out + err
    assert err == "error: sample box interval nan:1 must be finite with lo < hi\n"
    assert "PASS" not in out


@pytest.mark.parametrize("box", ["1:-1, -1:1", "-1:1, 0:0", "inf:inf, -1:1", "-1:1, -inf:1", "-1:1, 0:nan"])
def test_check_rejects_a_bad_sample_box(tmp_path, box):
    path = tmp_path / "box.ini"
    path.write_text(NAN_BOX.replace("box = nan:1, -1:1", f"box = {box}"))
    code, out, err = run_cli("check", str(path))
    assert code == 1, out + err
    assert err.startswith("error: sample box interval ") and err.endswith(" must be finite with lo < hi\n")
    assert out == ""


def test_check_overflow_is_a_numeric_failure(tmp_path):
    path = tmp_path / "overflow.ini"
    path.write_text(
        "[chart]\ndim = 2\nnames = x, y\nbox = 2:1000, 2:1000\n\n"
        "[theta]\ntheta[1,2] = \"x^400 + y\"\n"
    )
    code, out, err = run_cli("check", str(path))
    assert code == 3, out + err
    assert err.startswith("error: overflow in subterm")
    assert "Traceback" not in out + err


def test_check_domain_error_exits_3(tmp_path):
    path = tmp_path / "ln.ini"
    path.write_text("[chart]\ndim = 2\nnames = x, y\n\n[theta]\ntheta[1,1] = \"ln(x)\"\n")
    code, out, err = run_cli("check", str(path))
    assert code == 3, out + err
    assert err == "error: ln of a non-positive argument in subterm 'ln(x)'\n"
    assert out == ""


def test_a_gamma_stored_once_for_both_slots_is_not_sampled_for_torsion(tmp_path):
    # the file stores Gamma^x_{xy} and Gamma^x_{yx} as one node, so the
    # torsion check samples nothing and the file loads; ln(y) then fails in
    # the verdicts, a numeric failure where loading failed as a usage error
    path = tmp_path / "torsion.ini"
    path.write_text("[chart]\ndim = 2\nnames = x, y\n\n[theta]\ntheta[1,2] = \"0.5\"\n\n"
                    "[connection]\ngamma[1,1,2] = \"y - 1e150*y + ln(y)\"\n")
    assert cli.load_structure(str(path)).pair.nabla.is_torsion_free()
    assert run_cli("check", str(path)) == (3, "", "error: ln of a non-positive argument in subterm 'ln(y)'\n")


def test_check_names_the_first_failing_samples_subterm(tmp_path):
    # on the default samples theta[1,1] first fails at the fourth sample
    # (x = 0.59) and theta[2,2] at the first (y = 0.98): the earlier sample
    # wins, whichever component comes first
    path = tmp_path / "two.ini"
    path.write_text(
        "[chart]\ndim = 2\nnames = x, y\n\n"
        "[theta]\ntheta[1,1] = \"ln(0.5 - x)\"\ntheta[2,2] = \"ln(0.5 - y)\"\n"
    )
    code, out, err = run_cli("check", str(path))
    assert (code, out) == (3, ""), err
    assert err == "error: ln of a non-positive argument in subterm 'ln(0.5 - y)'\n"


def test_check_refuses_a_coordinate_name_the_parser_cannot_read(tmp_path):
    path = tmp_path / "names.ini"
    path.write_text("[chart]\ndim = 2\nnames = x, exp\n\n[theta]\ntheta[1,1] = \"1\"\n")
    code, out, err = run_cli("check", str(path))
    assert (code, out) == (1, ""), err
    assert err == "error: coordinate name 'exp' is not an identifier the expression parser reads\n"


@pytest.mark.parametrize(
    "argv", [["catalog", "--id", "ex:flat_2"], ["check", str(STRUCTURES / "flat_11.ini")]]
)
def test_a_sample_count_that_cannot_be_allocated_is_a_usage_error(argv):
    # 10**15 points of two coordinates are 16 PB, more than any 64-bit
    # address space, so the allocation fails at once
    code, out, err = run_cli(*argv, "--samples", str(10**15))
    assert (code, out) == (1, ""), err
    assert err == f"error: cannot allocate {10**15} samples of 2 coordinates\n"


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(STRUCTURES / "nondeg_kill.ini")],
        ["catalog", "--id", "jj:dim5_nonassoc"],
        ["catalog", "--all"],
        ["report", "--format", "csv"],
    ],
)
def test_sample_counts_below_one_are_usage_errors(argv, count):
    code, out, err = run_cli(*argv, "--samples", count)
    assert code == 1, out + err
    assert err == f"error: sample count must be at least 1, got {count}\n"
    assert out == ""


def test_a_valid_tolerance_reaches_the_verdicts():
    # at tol = 0.5, strong (residual 0.495) passes where sing_line expects
    # it to fail, and parallel (residual 0.5) passes at the bound
    code, out, err = run_cli("check", str(STRUCTURES / "sing_line.ini"), "--tol", "0.5")
    assert (code, err) == (2, ""), out + err
    assert out.splitlines() == [
        "# samples=25 seed=0x5eed tol=0.5",
        "check:symmetric_poisson  expected=False got=False residual=0.855 [ok]",
        "check:strong             expected=False got=True residual=0.495 [MISMATCH]",
        "check:parallel           expected=- got=True residual=0.5 [ok]",
        "check:involutive         expected=- got=involutive_on_samples residual=0 [ok]",
        "FAIL (3/4)",
    ]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(STRUCTURES / "sing_line.ini")],
        ["catalog", "--id", "jj:dim5_nonassoc"],
        ["report", "--format", "csv"],
    ],
)
def test_a_tolerance_that_is_not_finite_and_non_negative_is_a_usage_error(argv, tol):
    code, out, err = run_cli(*argv, f"--tol={tol}")
    assert (code, out) == (1, ""), err
    assert err.endswith(f"error: argument --tol: must be a finite number >= 0, got '{tol}'\n"), err


@pytest.mark.parametrize("argv", [["catalog", "--all"], ["report"]])
def test_catalog_domain_error_exits_3(monkeypatch, argv):
    from sympoisson.expr import EvalDomainError

    def failing(ident, tol, samples_n, seed):
        raise EvalDomainError("sqrt of a negative argument", "sqrt(x1)")

    monkeypatch.setattr(cli, "run_catalog_id", failing)
    code, out, err = run_cli(*argv)
    assert code == 3
    assert err == "error: sqrt of a negative argument in subterm 'sqrt(x1)'\n"


def test_dim5_commutator_line_uses_the_suite_samples(monkeypatch):
    from sympoisson.jj import catalog_entry, to_linear_structure
    from sympoisson.poisson import Jets

    seen = []
    original = Jets.commutators.func

    def recording(self):
        seen.extend(tuple(p) for p in self.samples)
        return original(self)

    monkeypatch.setattr(Jets, "commutators", property(recording))
    lines = cli.run_catalog_id("jj:dim5_nonassoc", 1e-9, 3, 9)
    assert all(line.ok for line in lines)
    assert lines[-1].name == "module_commutator"
    chart = to_linear_structure(catalog_entry("dim5_nonassoc").algebra).chart
    suite_points = {tuple(p) for p in chart.sample_points(3, 9)}
    assert seen and set(seen) == suite_points


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_dim5():
    code, out, err = run_cli("catalog", "--id", "dim5_nonassoc")
    assert code == 0, out
    assert "jacobi" in out and "module_commutator" in out
    assert "PASS" in out


def test_catalog_so3():
    code, out, err = run_cli("catalog", "--id", "liealg:so3")
    assert code == 0, out
    assert "strong" in out and "involutive" in out


def test_catalog_unknown_id():
    code, out, err = run_cli("catalog", "--id", "granite")
    assert code == 1


@pytest.mark.parametrize(
    "ident", ["liealg:abelian_x", "liealg:abelian_0", "liealg:abelian_3", "jj:nope", "ex:", ":so3", "so3:"]
)
def test_catalog_id_outside_the_table_exits_1(ident):
    code, out, err = run_cli("catalog", "--id", ident)
    assert code == 1, out + err
    assert err == f"error: unknown catalog id '{ident}'\n"
    assert out == ""


def test_catalog_bare_names_resolve_only_for_catalog_id():
    from sympoisson import registry

    ids = cli.catalog_ids()
    assert len(ids) == 27
    for ident in ids:
        bare = ident.split(":", 1)[1]
        assert registry.catalog_entry(bare, bare=True) is registry.catalog_entry(ident)
        with pytest.raises(registry.CatalogError):
            registry.catalog_entry(bare)


@pytest.mark.parametrize("ident", ["jj:nope", "ex:nope", "liealg:abelian_3", "dim5_nonassoc", ""])
def test_check_catalog_reference_outside_the_table_exits_1(tmp_path, ident):
    path = tmp_path / "ref.ini"
    path.write_text(f"[catalog]\nid = {ident}\n")
    code, out, err = run_cli("check", str(path))
    assert code == 1, out + err
    assert err == f"error: unknown catalog id '{ident}'\n"


def test_check_catalog_section_without_an_id_exits_1(tmp_path):
    path = tmp_path / "ref.ini"
    path.write_text("[catalog]\nname = jj:dim2\n")
    code, out, err = run_cli("check", str(path))
    assert code == 1, out + err
    assert err == "error: unknown catalog id ''\n"


def test_a_symmetric_slot_given_twice_is_a_usage_error(tmp_path):
    path = tmp_path / "twice.ini"
    path.write_text('[chart]\ndim = 2\nnames = x, y\n[connection]\ngamma[1,1,2] = "1"\ngamma[1,2,1] = "5"\n')
    code, out, err = run_cli("check", str(path))
    assert code == 1, out + err
    assert err == "error: [connection] gamma[1,1,2] and gamma[1,2,1] name the same slot\n"


# sha256 of `check` on each shipped structure file, recorded before the pair
# built its derivative chain once
CHECK_DIGESTS = {
    "flat_11.ini": "1a7d226694e1617d7823b382bb4d299e24294a933a98947869d747de9bdca254",
    "inclusion.ini": "d0e639cb9ca9278651959c200b479315d61d5949151e19fa5e7fd35b0670efa7",
    "nondeg_kill.ini": "513f2939414decfa71e0a702a364447c45687b2e039ec3abdd2468822356fb04",
    "oscillator.ini": "af0f55c13d2203b9c61a42e532bedc9e1816517bc494a58e1d628d6eff5c143a",
    "r5.ini": "f652b5c157df548690ebf1c594f639d2fb948c8c88e47b3128bab957be8ffa46",
    "sing_line.ini": "4f4f8bc6f4f69a0c229ce5bcde025c503d20c762f629274ab766213a9396ac97",
}


@pytest.mark.parametrize("name", CHECK_DIGESTS)
def test_check_output_bytes_are_pinned(name):
    import hashlib

    code, out, err = run_cli("check", str(STRUCTURES / name))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_DIGESTS[name]


# sha256 of export_structure() of each [catalog] reference, recorded before the
# catalog became a table (aff1 exports the (1, 1, 1) member of its family)
REFERENCE_DIGESTS = {
    "liealg:aff1": "2144a755b5bb3d6f701cd4a6657bce4896f2bb2d785168370eae9cd23a371f5d",
    "liealg:aff1xR": "eeb9c134f4df5121464bde105e2b19e2beceb8573aada1f890bb23192d352754",
    "liealg:heisenberg3": "ce5f36df9ff0e64f48b0d3a05b78722fdfc5d55ca4f9ababde66b30cf1424c5c",
    "liealg:abelian_2": "dac02c4ec5574ee886db0023ede378f013210266c2f6959ee08460e30c8d528b",
    "jj:dim4_5": "eac402818f24b28bb6fd0c4fef16d7b8bd7114239850f0ef91029ba067d9df71",
    "ex:rotation": "3fb1b718997d61c3d830dad8b9b973a8f23c979a1a485d394085cf277cfa7d4b",
}


@pytest.mark.parametrize("ident", REFERENCE_DIGESTS)
def test_catalog_reference_builds_the_recorded_pair(tmp_path, ident):
    import hashlib

    path = tmp_path / "ref.ini"
    path.write_text(f"[catalog]\nid = {ident}\n")
    text = cli.export_structure(cli.load_structure(str(path)).pair)
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_DIGESTS[ident]


def test_catalog_all_passes():
    code, out, err = run_cli("catalog", "--all")
    assert code == 0, out
    assert "PASS" in out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_text_and_csv(tmp_path):
    code, text, _ = run_cli("report")
    assert code == 0
    code, csv_text, _ = run_cli("report", "--format", "csv")
    assert code == 0
    header = csv_text.strip().split("\n")[0]
    assert header == "suite,check,expected,got,residual,ok,samples,seed,tol"
    assert len(csv_text.strip().split("\n")) > 30


def test_report_deterministic():
    code_a, a, _ = run_cli("report", "--format", "csv")
    code_b, b, _ = run_cli("report", "--format", "csv")
    assert a == b


def test_report_unwritable_out_exits_1(tmp_path):
    path = tmp_path / "missing" / "report.csv"
    code, out, err = run_cli("report", "--format", "csv", "--out", str(path))
    assert (code, out, err) == (1, "", f"error: cannot write {path}: No such file or directory\n")


# sha256 of the catalog's output, recorded when the sampled verdicts began to
# contract the jet table (seed 7 again when each verdict scale became its
# value's live-term sum over the leaf scales); the residual column and every
# line's order are pinned with the verdicts
CATALOG_DIGESTS = [
    (("report", "--format", "csv"), "a01df8b786ec8d1747b404c4286a91422c3c36e6d658a5c9f93934ce2324885b"),
    (("report", "--format", "csv", "--seed", "7"), "2f1bed893db3c4718f886b2f2955d06e9a141c3a22bbf42971d50274a283e058"),
    (("catalog", "--all"), "0db0b76fae7895199b226197220229f48694eb39a51c1db96c29fa6577a54213"),
]


@pytest.mark.parametrize("argv,digest", CATALOG_DIGESTS, ids=[" ".join(a) for a, _ in CATALOG_DIGESTS])
def test_catalog_output_bytes_are_pinned(argv, digest):
    import hashlib

    code, out, err = run_cli(*argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `report --format csv --seed S` for S = 1..40,
# concatenated in seed order: every verdict and residual bit at 40 seeds,
# recorded when each verdict scale became its value's live-term sum over the
# leaf scales
REPORT_SEEDS_DIGEST = "b48ccc06ffd3c98e80c500856e8d93bed5098a2c5fffc58bcb2431f070550e5e"


def test_report_csv_at_forty_seeds_is_pinned():
    import hashlib

    digest = hashlib.sha256()
    for seed in range(1, 41):
        code, out, err = run_cli("report", "--format", "csv", "--seed", str(seed))
        assert code == 0, (seed, err)
        digest.update(out.encode())
    assert digest.hexdigest() == REPORT_SEEDS_DIGEST


# sha256 of the same 40 reports with the residual column dropped: every verdict,
# expectation and ok flag, recorded while residuals were read from symbolic trees
VERDICT_COLUMNS_DIGEST = "230ba1e9ca1f57c5b1b752aa88fb5cbfcf74baf106a98d0d88d4f92cfb9c58e8"


def test_report_verdict_columns_at_forty_seeds_are_pinned():
    import hashlib

    digest = hashlib.sha256()
    for seed in range(1, 41):
        code, out, err = run_cli("report", "--format", "csv", "--seed", str(seed))
        assert code == 0, (seed, err)
        for line in out.splitlines(keepends=True):
            # the expected column may hold commas; the residual is fifth from the right
            fields = line.split(",")
            digest.update(",".join(fields[:-5] + fields[-4:]).encode())
    assert digest.hexdigest() == VERDICT_COLUMNS_DIGEST


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sympoisson.cli", "catalog", "--id", "jj:dim2"],
        capture_output=True,
        text=True,
        cwd=ROOT / "src",  # -m imports from the working directory first
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


# ---------------------------------------------------------------------------
# structure export round trip
# ---------------------------------------------------------------------------

def test_export_round_trip_structure_constants(tmp_path):
    from sympoisson import jj
    from sympoisson.cli import export_structure, load_structure

    for ident in ["dim2", "dim4_4", "dim5_nonassoc"]:
        entry = jj.catalog_entry(ident)
        pair = jj.to_linear_structure(entry.algebra)
        path = tmp_path / f"{ident}.ini"
        path.write_text(export_structure(pair, {"symmetric_poisson": True}))
        loaded = load_structure(str(path))
        assert jj.from_linear_structure(loaded.pair.theta) == entry.algebra
        assert loaded.expect == {"symmetric_poisson": True}


def test_export_then_check_passes(tmp_path):
    from sympoisson import registry
    from sympoisson.cli import export_structure
    from sympoisson.poisson import Involutivity

    pair = registry.build("nondeg_kill")
    path = tmp_path / "exported.ini"
    path.write_text(
        export_structure(
            pair,
            {
                "symmetric_poisson": True,
                "strong": False,
                "involutive": Involutivity.INVOLUTIVE_ON_SAMPLES,
            },
        )
    )
    code, out, err = run_cli("check", str(path))
    assert code == 0, out + err


def test_catalog_reference_liealg(tmp_path):
    src = tmp_path / "invariant.ini"
    src.write_text(
        "[catalog]\nid = liealg:aff1xR\n\n[expect]\n"
        "symmetric_poisson = true\nstrong = false\n"
        "involutive = involutive_on_samples\n"
    )
    code, out, err = run_cli("check", str(src))
    assert code == 0, out + err


def test_catalog_reference_liealg_without_frame(tmp_path):
    src = tmp_path / "bad.ini"
    src.write_text("[catalog]\nid = liealg:so3\n")
    code, out, err = run_cli("check", str(src))
    assert code == 1
    assert "chart realization" in err


def test_check_bad_number_in_probe(tmp_path):
    bad = tmp_path / "badnum.ini"
    bad.write_text(
        "[chart]\ndim = 1\nnames = x\n\n[theta]\ntheta[1,1] = \"1\"\n\n"
        "[probe]\npoint = zero\n"
    )
    code, out, err = run_cli("check", str(bad))
    assert code == 1
    assert "error" in err


def test_check_overflow_under_a_finite_theta_is_a_numeric_failure(tmp_path):
    # 1/x^400 is finite where x^400 overflows: the sampled checks still name it
    path = tmp_path / "overflow.ini"
    path.write_text(
        "[chart]\ndim = 2\nnames = x, y\nbox = 2:1000, 2:1000\n\n"
        "[theta]\ntheta[1,2] = \"1/x^400 + y\"\n"
    )
    code, out, err = run_cli("check", str(path))
    assert (code, out, err) == (3, "", "error: overflow in subterm 'x^400'\n")


PROBE = "[chart]\ndim = 2\nnames = x, y\n\n[theta]\n{theta}\n[probe]\npoint = {point}\nrank = {rank}\n"


@pytest.mark.parametrize("point", ["nan, 0", "0, inf", "-inf, 0.5"])
def test_check_rejects_a_non_finite_probe_point(tmp_path, point):
    path = tmp_path / "probe.ini"
    path.write_text(PROBE.format(theta='theta[1,1] = "1/x"', point=point, rank=0))
    code, out, err = run_cli("check", str(path))
    assert code == 1, out + err
    assert err.startswith("error: [probe] point (") and err.endswith(") must be finite\n")
    assert out == ""


@pytest.mark.parametrize(
    "theta, point, message",
    [
        ('theta[1,1] = "x*x*x*x"\ntheta[2,2] = "1"', "1e100, 0", "theta is not finite at (1e+100, 0.0) in subterm 'x * x * x * x'"),
        ('theta[1,1] = "x"\ntheta[1,2] = "x"\ntheta[2,2] = "x"', "1e308, 0", "the eigenvalues of theta overflow at (1e+308, 0.0) in subterm 'theta'"),
    ],
)
def test_check_probe_where_theta_is_not_finite_exits_3(tmp_path, theta, point, message):
    path = tmp_path / "probe.ini"
    path.write_text(PROBE.format(theta=theta, point=point, rank=0))
    code, out, err = run_cli("check", str(path))
    assert code == 3, out + err
    assert err == f"error: {message}\n"
    assert out == ""


def test_export_keeps_box_bounds_exact(tmp_path):
    from sympoisson.cli import export_structure, load_structure
    from sympoisson.geometry import Chart, Connection, SymTensorField
    from sympoisson.poisson import SymPoissonPair

    chart = Chart(["x", "y"], box=[(0.1234567, 1.0), (-2.5e-7, 1e20)])
    pair = SymPoissonPair(SymTensorField.from_dict(chart, 2, {(0, 0): "x"}), Connection.euclidean(chart))
    text = export_structure(pair)
    assert "box = 0.1234567:1, -2.5e-07:1e+20\n" in text
    path = tmp_path / "box.ini"
    path.write_text(text)
    assert load_structure(str(path)).pair.chart.box == chart.box


@pytest.mark.parametrize("option", ["--x0", "--p0"])
def test_an_initial_state_that_is_not_a_number_names_its_option(option):
    state = ["--x0", "0.5,0.5", "--p0", "1,0"]
    state[state.index(option) + 1] = "a"
    code, out, err = run_cli("integrate", str(STRUCTURES / "inclusion.ini"), *state)
    assert (code, out, err) == (1, "", f"error: {option}: could not convert string to float: 'a'\n")


def test_a_tolerance_that_is_not_a_number_is_a_usage_error():
    code, out, err = run_cli("check", str(STRUCTURES / "sing_line.ini"), "--tol", "abc")
    assert code == 1
    assert err.endswith("error: argument --tol: must be a finite number >= 0, got 'abc'\n")


def test_integrate_bad_initial_state():
    code, out, err = run_cli(
        "integrate",
        str(STRUCTURES / "inclusion.ini"),
        "--x0", "a,b",
        "--p0", "1,0",
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(STRUCTURES / "r5.ini"), "--seed", "-1"],
        ["catalog", "--id", "jj:dim2", "--seed", "-5"],
        ["catalog", "--all", "--seed=-0x10"],
        ["report", "--seed", "-1"],
        ["report", "--seed", "seven"],
    ],
)
def test_a_seed_that_is_not_a_non_negative_integer_is_a_usage_error(argv):
    code, out, err = run_cli(*argv)
    assert (code, out) == (1, ""), err
    assert err.endswith(f"error: argument --seed: must be an integer >= 0, got '{argv[-1].split('=')[-1]}'\n"), err
    assert "Traceback" not in err


def test_a_seed_is_read_in_any_base():
    assert run_cli("catalog", "--id", "jj:dim2", "--seed", "0x5EED") == run_cli("catalog", "--id", "jj:dim2")


@pytest.mark.parametrize("count", ["0", "-2"])
@pytest.mark.parametrize("ident", ["liealg:so3", "liealg:heisenberg3"])
def test_sample_counts_below_one_are_refused_before_any_suite_runs(ident, count):
    # a liealg: suite is exact and samples nothing, so the count is checked up front
    code, out, err = run_cli("catalog", "--id", ident, "--samples", count)
    assert (code, out) == (1, "")
    assert err == f"error: sample count must be at least 1, got {count}\n"
