"""End-to-end runs of the command-line front end through main(argv).

Reports are line-oriented key=value text, so most tests freeze the expected
output verbatim and compare bytes.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fewvar.cli import main
from helpers import src_env

PROJ_CIRCUIT = """\
fewvar-circuit v1
vars=3 field=Q s=1 k=1
term scale=1
factor support=0
coeff 1 ; 0:1
"""

ZERO_CIRCUIT = """\
fewvar-circuit v1
vars=2 field=Q s=1 k=1
term scale=1
factor support=0
coeff 1 ; 0:1
term scale=-1
factor support=0
coeff 1 ; 0:1
"""

HOM_CIRCUIT = """\
fewvar-circuit v1
vars=4 field=Q s=2 k=2
term scale=1
factor support=0,1
coeff 1 ; 0:1 1:1
coeff 1 ;
factor support=2
coeff 1 ; 0:1
term scale=-2
factor support=1,3
coeff 1 ; 0:1
coeff 3 ; 1:2
"""

QUAD_POLY = """\
vars=4 field=Q
coeff 1 ; 0:1 1:1
coeff 1 ; 2:1 3:1
"""

NW_PARAMS_MU0_N2 = """\
seed=0
mu=0
n=2
delta=1/2
gamma=4
psi=37
N=74
rho=3.1047266828144755
D_raw=1.420945336562895
D=2
"""

DESIGN_4_2 = """\
seed=0
b=4
a=2
q0=2
c0=1
l=4
verify=pass
max_intersection=1
set=0,2
set=1,3
set=0,3
set=1,2
"""


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ---------------------------------------------------------------------------
# frozen reports

def test_nw_params_frozen(capsys):
    rc, out, _ = run(capsys, "nw-params", "--mu", "0", "--n", "2")
    assert rc == 0
    assert out == NW_PARAMS_MU0_N2


def test_design_frozen(capsys):
    rc, out, _ = run(capsys, "design", "--b", "4", "--a", "2")
    assert rc == 0
    assert out == DESIGN_4_2


def test_hitset_toy_frozen(capsys):
    rc, out, _ = run(capsys, "hitset", "--N", "2", "--k", "1",
                     "--override-l", "2")
    assert rc == 0
    body = out.splitlines()
    assert body[:4] == ["seed=0", "N=2", "k=1", "l=2"]
    assert body[10] == "stream_size=9"
    assert body[11:] == ["h=0,0", "h=1,1", "h=2,2", "h=1,1", "h=2,2",
                         "h=3,3", "h=2,2", "h=3,3", "h=4,4"]


def test_hitset_derived_n256_reports_stream_size_as_power(capsys):
    # 257^4489 has over 10^4 digits, past the int-to-str limit
    rc, out, err = run(capsys, "hitset", "--N", "256", "--k", "1",
                       "--limit", "1")
    assert rc == 0, err
    lines = out.splitlines()
    assert "stream_size=257^4489" in lines
    assert sum(line.startswith("h=") for line in lines) == 1


def test_hitset_derived_n256_without_limit_exits_three(capsys):
    rc, out, err = run(capsys, "hitset", "--N", "256", "--k", "1")
    assert rc == 3 and out == ""
    assert "stream has 257^4489 tuples; pass --limit" in err


def test_hitset_grid_override(capsys):
    rc, out, _ = run(capsys, "hitset", "--N", "2", "--k", "1",
                     "--override-l", "2", "--override-grid", "0,2")
    assert rc == 0
    lines = out.splitlines()
    assert "stream_size=4" in lines
    assert lines[-4:] == ["h=0,0", "h=2,2", "h=2,2", "h=4,4"]


def test_nw_check_frozen(capsys):
    rc, out, _ = run(capsys, "nw-check", "--psi", "3", "--D", "1", "--n", "2")
    assert rc == 0
    assert out == ("seed=0\npsi=3\nD=1\nn=2\nmonomial_count=3\n"
                   "expected_count=3\ncount=pass\nmultilinear=pass\n"
                   "degree=pass\nmax_intersection=0\nintersection_bound=0\n"
                   "intersections=pass\nok=pass\n")


def test_transform_audit_frozen(capsys):
    rc, out, _ = run(capsys, "transform-audit", "--count", "5",
                     "--seed", "11")
    assert rc == 0
    assert out == ("seed=11\ncount=5\ncircuits=5\nchecks=25\nfailures=0\n"
                   "max_deriv_fanin_ratio=0.7777777777777778\n"
                   "max_coeff_fanin_ratio=1.0\nok=pass\n")


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "ratios", "--n", "10000")
    _, out2, _ = run(capsys, "ratios", "--n", "10000")
    assert out1 == out2
    # a failed invocation must not bleed state into the next run
    assert run(capsys, "design", "--a", "2")[0] == 3
    _, out3, _ = run(capsys, "nw-params", "--mu", "0", "--n", "2")
    assert out3 == NW_PARAMS_MU0_N2


# ---------------------------------------------------------------------------
# pit and sz exit codes

def test_pit_witness_exit_zero(capsys, tmp_path):
    f = tmp_path / "proj.circuit"
    f.write_text(PROJ_CIRCUIT)
    rc, out, _ = run(capsys, "pit", "--circuit", str(f), "--override-l", "3")
    assert rc == 0
    lines = out.splitlines()
    assert "status=witness" in lines
    assert "tested=5" in lines
    assert "witness=1,0,1" in lines
    assert "value=1" in lines


def test_pit_zero_on_set_exit_one(capsys, tmp_path):
    f = tmp_path / "zero.circuit"
    f.write_text(ZERO_CIRCUIT)
    rc, out, _ = run(capsys, "pit", "--circuit", str(f), "--override-l", "2")
    assert rc == 1
    assert "status=zero-on-set" in out.splitlines()
    assert "tested=9" in out.splitlines()


def test_pit_budget_exit_two(capsys, tmp_path):
    f = tmp_path / "zero.circuit"
    f.write_text(ZERO_CIRCUIT)
    rc, out, _ = run(capsys, "pit", "--circuit", str(f), "--override-l", "2",
                     "--budget", "4")
    assert rc == 2
    lines = out.splitlines()
    assert "budget=4" in lines
    assert "status=inconclusive" in lines
    assert "tested=4" in lines


def test_pit_unknown_degree_is_an_error(capsys, tmp_path):
    f = tmp_path / "nok.circuit"
    f.write_text(PROJ_CIRCUIT.replace("k=1", "k=unknown"))
    rc, _, err = run(capsys, "pit", "--circuit", str(f), "--override-l", "3")
    assert rc == 3
    assert "individual degree unknown" in err


def test_sz_witness_and_zero(capsys, tmp_path):
    f = tmp_path / "proj.circuit"
    f.write_text(PROJ_CIRCUIT)
    rc, out, _ = run(capsys, "sz", "--circuit", str(f), "--trials", "20",
                     "--domain", "5", "--seed", "9")
    assert rc == 0
    assert out == ("seed=9\ntrials=20\ndomain=5\nstatus=witness\n"
                   "witness=3,3,0\nvalue=3\n")
    z = tmp_path / "zero.circuit"
    z.write_text(ZERO_CIRCUIT)
    rc, out, _ = run(capsys, "sz", "--circuit", str(z), "--trials", "10")
    assert rc == 1
    assert "status=probably-zero" in out.splitlines()


# ---------------------------------------------------------------------------
# the algebraic subcommands

def test_measure_subcommand(capsys, tmp_path):
    f = tmp_path / "quad.poly"
    f.write_text(QUAD_POLY)
    rc, out, _ = run(capsys, "measure", "--poly", str(f), "--r", "1",
                     "--m", "1")
    assert rc == 0
    assert out == "seed=0\nr=1\nm=1\nphi=6\nrows=16\ncols=6\nexact=true\n"


def test_measure_modular_flag(capsys, tmp_path):
    f = tmp_path / "quad.poly"
    f.write_text(QUAD_POLY)
    rc, out, _ = run(capsys, "measure", "--poly", str(f), "--r", "1",
                     "--m", "1", "--rank-prime", str((1 << 61) - 1))
    assert rc == 0
    assert "exact=false" in out.splitlines()
    assert "phi=6" in out.splitlines()


def test_homogenize_subcommand(capsys, tmp_path):
    f = tmp_path / "hom.circuit"
    f.write_text(HOM_CIRCUIT)
    rc, out, _ = run(capsys, "homogenize", "--circuit", str(f), "--n", "2")
    assert rc == 0
    assert out == ("seed=0\nn=2\npieces=2\nidentity=pass\n"
                   "vars=4 field=Q\ncoeff -6 ; 3:2\n")


def test_restrict_experiment_frozen(capsys, tmp_path):
    f = tmp_path / "hom.circuit"
    f.write_text(HOM_CIRCUIT)
    rc, out, _ = run(capsys, "restrict-experiment", "--circuit", str(f),
                     "--s", "2", "--p", "0.5", "--trials", "50",
                     "--seed", "3")
    assert rc == 0
    assert out == ("seed=3\ns=2\np=0.5\ntrials=50\nbad_count=2\n"
                   "expected_survivors=0.5\nmean_survivors=0.58\n"
                   "stderr_survivors=0.10337172865786029\n"
                   "empirical_rate=0.44\nmarkov_bound=0.5\n")


def test_ratios_fields(capsys):
    rc, out, _ = run(capsys, "ratios", "--n", "10000")
    assert rc == 0
    d = dict(line.split("=", 1) for line in out.splitlines())
    assert d["r"] == "3" and d["s"] == "3"
    assert int(d["N"]) > 10 ** 23          # roughly n^6 for this regime
    assert float(d["log_ratio_1"]) == pytest.approx(29.356, abs=0.01)
    assert float(d["log_ratio_2"]) == pytest.approx(51.053, abs=0.01)
    assert d["exact"] == "false"


# ---------------------------------------------------------------------------
# plumbing

def test_out_file_matches_stdout(capsys, tmp_path):
    dest = tmp_path / "report.txt"
    rc, out, _ = run(capsys, "design", "--b", "4", "--a", "2",
                     "--out", str(dest))
    assert rc == 0
    assert dest.read_text() == out == DESIGN_4_2


def test_error_exits(capsys, tmp_path):
    assert run(capsys, "no-such-command")[0] == 3
    assert run(capsys)[0] == 3
    assert run(capsys, "design", "--a", "2")[0] == 3       # missing --b
    rc, _, err = run(capsys, "nw-params", "--mu", "2", "--n", "2")
    assert rc == 3 and "error:" in err
    rc, _, err = run(capsys, "nw-check", "--psi", "4", "--D", "1", "--n", "2")
    assert rc == 3 and "not prime" in err
    rc, _, err = run(capsys, "pit", "--circuit", str(tmp_path / "missing"),
                     "--override-l", "2")
    assert rc == 3


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_subprocess_blackbox(capsys, tmp_path):
    child = tmp_path / "box.py"
    child.write_text(
        "import sys\n"
        "from fractions import Fraction\n"
        "for line in sys.stdin:\n"
        "    v = [Fraction(t) for t in line.split()]\n"
        "    print(v[0] * v[1] - v[2])\n"
        "    sys.stdout.flush()\n")
    cmd = f"{sys.executable} {child}"
    rc, out, _ = run(capsys, "pit", "--blackbox", cmd, "--N", "3", "--k", "2",
                     "--override-l", "3")
    assert rc == 0
    lines = out.splitlines()
    assert "status=witness" in lines
    assert "tested=2" in lines
    assert "witness=0,1,1" in lines
    assert "value=-1" in lines
    rc, out, _ = run(capsys, "sz", "--blackbox", cmd, "--N", "3",
                     "--trials", "30", "--domain", "7", "--seed", "2")
    assert rc == 0
    assert "status=witness" in out.splitlines()


def test_blackbox_requires_N(capsys):
    rc, _, err = run(capsys, "sz", "--blackbox", "true")
    assert rc == 3
    assert "--N" in err


def _toml_reader():
    try:
        import tomllib
    except ModuleNotFoundError:          # Python 3.10
        return pytest.importorskip("tomli")
    return tomllib


def test_console_script_installed(tmp_path):
    """The `fewvar` console script declared in pyproject.toml runs as its own
    process, exits 0 and prints the frozen nw-params report.

    The entry point is read from `[project.scripts]`, and the launcher an
    installer would write for it (import the function, exit with its return
    value) is run from the source tree, so the check needs no installed
    package. Where an installed `fewvar` is on PATH it is run as well.
    """
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        spec = _toml_reader().load(fh)["project"]["scripts"]["fewvar"]
    module, _, attr = spec.partition(":")
    launcher = tmp_path / "fewvar"
    launcher.write_text(f"import sys\nfrom {module} import {attr}\n"
                        f"sys.exit({attr}())\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    args = ["nw-params", "--mu", "0", "--n", "2"]
    runs = [([sys.executable, str(launcher), *args], env)]
    installed = shutil.which("fewvar")
    if installed:                        # the installed script, as installed
        runs.append(([installed, *args], None))
    for cmd, run_env in runs:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             cwd=tmp_path, env=run_env)
        assert res.returncode == 0, res.stderr
        assert res.stdout == NW_PARAMS_MU0_N2


def test_python_dash_m_fewvar(tmp_path):
    """`python -m fewvar` runs the command from the source tree."""
    res = subprocess.run(
        [sys.executable, "-m", "fewvar", "nw-params", "--mu", "0", "--n", "2"],
        capture_output=True, text=True, cwd=tmp_path, env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout == NW_PARAMS_MU0_N2
