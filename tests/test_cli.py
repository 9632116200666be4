import math
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


def test_integrate_usage_error_on_zero_steps():
    code, out, err = run_cli(
        "integrate",
        str(STRUCTURES / "inclusion.ini"),
        "--x0", "0,0",
        "--p0", "1,0",
        "--steps", "0",
    )
    assert code == 1


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
    assert code == 2, out + err
    assert "check:strong" in out and "got=False residual=inf [MISMATCH]" in out
    assert "PASS" not in out


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
    assert err == "error: ln of a non-positive argument in subterm 'ln(x1)'\n"
    assert out == ""


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
    from sympoisson.geometry import SymTensorField
    from sympoisson.jj import catalog_entry, to_linear_structure

    seen = []
    original = SymTensorField.evaluate

    def recording(self, point):
        seen.append(tuple(point))
        return original(self, point)

    monkeypatch.setattr(SymTensorField, "evaluate", recording)
    lines = cli.run_catalog_id("jj:dim5_nonassoc", 1e-9, 3, 9)
    assert all(line.ok for line in lines)
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


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sympoisson.cli", "catalog", "--id", "jj:dim2"],
        capture_output=True,
        text=True,
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


def test_integrate_bad_initial_state():
    code, out, err = run_cli(
        "integrate",
        str(STRUCTURES / "inclusion.ini"),
        "--x0", "a,b",
        "--p0", "1,0",
    )
    assert code == 1
