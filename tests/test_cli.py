"""End-to-end runs of the command-line front end through main(argv).

Reports are line-oriented key=value text, so most tests freeze the expected
output verbatim and compare bytes.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fewvar import cli
from fewvar.cli import _SubprocessBox, main
from helpers import GF7_CIRCUIT, src_env

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

# (1/2)(2x0+x1)^2 - 2x0^2 - 2x0x1 - x1^2/2 + (3/2)(x2/3+1) - (1/2)(x2+3) = 0
IDENTITY_CIRCUIT = """\
fewvar-circuit v1
vars=3 field=Q s=2 k=2
term scale=1/2
factor support=0,1
coeff 2 ; 0:1
coeff 1 ; 1:1
factor support=0,1
coeff 2 ; 0:1
coeff 1 ; 1:1
term scale=-2
factor support=0
coeff 1 ; 0:2
term scale=-1
factor support=0,1
coeff 2 ; 0:1 1:1
term scale=-1/2
factor support=1
coeff 1 ; 0:2
term scale=3/2
factor support=2
coeff 1/3 ; 0:1
coeff 1 ;
term scale=-1/2
factor support=2
coeff 1 ; 0:1
coeff 3 ;
"""

# (2/3)(x0x1/2 - x1)(5/7)x2^2 - x0^2/5
WITNESS_CIRCUIT = """\
fewvar-circuit v1
vars=3 field=Q s=2 k=2
term scale=2/3
factor support=0,1
coeff 1/2 ; 0:1 1:1
coeff -1 ; 1:1
factor support=2
coeff 5/7 ; 0:2
term scale=-1/5
factor support=0
coeff 1 ; 0:2
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


GOLDEN = Path(__file__).resolve().parent / "golden"
TOY_PIT_ARGS = ("--override-l", "5", "--a-prime", "2", "--q", "2", "--D", "2",
                "--override-grid", "0,1,2")


def test_hitset_full6_golden(capsys):
    """Six copies of one set, the whole universe, on a four-value grid."""
    rc, out, _ = run(capsys, "hitset", "--N", "6", "--k", "2",
                     "--override-l", "6", "--a-prime", "2", "--q", "3",
                     "--D", "2", "--override-grid", "0,1,2,3", "--limit", "300")
    assert rc == 0
    assert out == (GOLDEN / "hitset_full6.txt").read_text()


@pytest.mark.parametrize("circuit, golden, code", [
    (IDENTITY_CIRCUIT, "pit_identity.txt", 1),
    (WITNESS_CIRCUIT, "pit_witness.txt", 0),
])
def test_pit_toy_scan_golden(capsys, tmp_path, circuit, golden, code):
    f = tmp_path / "fixture.circuit"
    f.write_text(circuit)
    rc, out, _ = run(capsys, "pit", "--circuit", str(f), *TOY_PIT_ARGS)
    assert rc == code
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, golden", [
    (("design", "--b", "30", "--a", "7"), "design_30_7.txt"),
    (("design", "--b", "100", "--a", "11", "--cap", "2"),
     "design_100_11_cap2.txt"),
    (("nw-check", "--psi", "7", "--D", "3", "--n", "5"), "nw_check_7_3_5.txt"),
])
def test_design_and_nw_check_golden(capsys, argv, golden):
    """Both reports read the one univariate-graph generator and the one
    intersection scan."""
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv, golden", [
    (("pit", "--override-l", "3", "--a-prime", "1", "--q", "2", "--D", "1",
      "--override-grid", "0,1,2"), "pit_gf7.txt"),
    (("sz", "--trials", "20", "--domain", "5", "--seed", "9"), "sz_gf7.txt"),
    (("homogenize", "--n", "2"), "homogenize_gf7.txt"),
])
def test_gf7_reports_golden(capsys, tmp_path, argv, golden):
    """A GF(7) circuit's reports, values printed as `<v> (mod 7)`."""
    f = tmp_path / "gf7.circuit"
    f.write_text(GF7_CIRCUIT)
    rc, out, _ = run(capsys, argv[0], "--circuit", str(f), *argv[1:])
    assert rc == 0
    assert out == (GOLDEN / golden).read_text()


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


@pytest.mark.parametrize("flag, value", [
    ("--override-grid", "0,1"), ("--a-prime", "3"), ("--q", "5"), ("--D", "2")])
def test_toy_stream_flag_needs_override_l(capsys, tmp_path, flag, value):
    """A flag that shapes the toy stream is refused without --override-l,
    in place of being dropped in silence."""
    rc, out, err = run(capsys, "hitset", "--N", "16", "--k", "1",
                       "--limit", "1", flag, value)
    assert (rc, out) == (3, "")
    assert err == f"error: {flag} needs --override-l\n"
    f = tmp_path / "proj.circuit"
    f.write_text(PROJ_CIRCUIT)
    rc, out, err = run(capsys, "pit", "--circuit", str(f), flag, value)
    assert (rc, out) == (3, "")
    assert err == f"error: {flag} needs --override-l\n"


def test_toy_stream_refuses_a_composite_q(capsys):
    rc, out, err = run(capsys, "hitset", "--N", "2", "--k", "1",
                       "--override-l", "4", "--q", "4")
    assert (rc, out, err) == (3, "", "error: q = 4 is not prime\n")


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
                   "max_deriv_fanin_ratio=0.5555555555555556\n"
                   "max_coeff_fanin_ratio=0.8333333333333334\nok=pass\n")


@pytest.mark.parametrize("argv", [
    ["--count", "5", "--seed", "11"],
    ["--count", "1", "--seed", "3", "--vars", "12", "--terms", "6",
     "--factors", "4", "--support", "4", "--max-k", "3"]])
def test_transform_audit_byte_identical_under_python_O(tmp_path, argv):
    # no invariant of the fast kernels may hide behind an assert
    outs = [subprocess.run(
        [sys.executable, *flags, "-m", "fewvar", "transform-audit", *argv],
        capture_output=True, text=True, cwd=tmp_path, env=src_env(),
        timeout=120) for flags in ([], ["-O"])]
    assert [res.returncode for res in outs] == [0, 0]
    assert outs[1].stdout == outs[0].stdout
    assert "ok=pass" in outs[0].stdout.splitlines()


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


@pytest.mark.parametrize("rank_prime", ["4", "1"])
def test_measure_rejects_non_prime_rank_prime(tmp_path, rank_prime):
    # a rank modulo a composite or modulo 1 is no rank over a field
    f = tmp_path / "quad.poly"
    f.write_text(QUAD_POLY)
    res = subprocess.run(
        [sys.executable, "-m", "fewvar", "measure", "--poly", str(f),
         "--r", "1", "--m", "0", "--rank-prime", rank_prime],
        capture_output=True, text=True, cwd=tmp_path, env=src_env(), timeout=60)
    assert res.returncode == 3
    assert res.stdout == ""
    assert f"rank prime {rank_prime} is not a prime" in res.stderr


def test_homogenize_subcommand(capsys, tmp_path):
    f = tmp_path / "hom.circuit"
    f.write_text(HOM_CIRCUIT)
    rc, out, _ = run(capsys, "homogenize", "--circuit", str(f), "--n", "2")
    assert rc == 0
    assert out == ("seed=0\nn=2\npieces=2\nidentity=pass\n"
                   "vars=4 field=Q\ncoeff -6 ; 3:2\n")


def test_homogenize_normalizes_constant_terms(capsys, tmp_path):
    # 3(x0x1 + 2)(x2^2 + 5) = 30(x0x1/2 + 1)(x2^2/5 + 1): degree 2 is
    # 15x0x1 + 6x2^2
    f = tmp_path / "const.circuit"
    f.write_text("fewvar-circuit v1\nvars=3 field=Q s=2 k=2\nterm scale=3\n"
                 "factor support=0,1\ncoeff 1 ; 0:1 1:1\ncoeff 2 ;\n"
                 "factor support=2\ncoeff 1 ; 0:2\ncoeff 5 ;\n")
    rc, out, _ = run(capsys, "homogenize", "--circuit", str(f), "--n", "2")
    assert rc == 0
    assert out == ("seed=0\nn=2\npieces=1\nidentity=pass\n"
                   "vars=3 field=Q\ncoeff 15 ; 0:1 1:1\ncoeff 6 ; 2:2\n")


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


@pytest.mark.parametrize("p, trials, message", [
    ("5", "0", "need trials >= 1, got 0"),
    ("0.5", "-3", "need trials >= 1, got -3"),
    ("5", "20", "probability 5.0 outside [0, 1]"),
    ("-0.1", "20", "probability -0.1 outside [0, 1]"),
    ("nan", "20", "probability nan outside [0, 1]"),
])
def test_restrict_experiment_refuses_nonsense_input(capsys, tmp_path, p,
                                                    trials, message):
    f = tmp_path / "hom.circuit"
    f.write_text(HOM_CIRCUIT)
    rc, out, err = run(capsys, "restrict-experiment", "--circuit", str(f),
                       "--s", "2", "--p", p, "--trials", trials)
    assert rc == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("count", ["0", "-2"])
def test_transform_audit_refuses_a_count_below_one(capsys, count):
    rc, out, err = run(capsys, "transform-audit", "--count", count)
    assert rc == 3 and out == ""
    assert err == f"error: need count >= 1, got {count}\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--vars", "0", "need num_vars >= 1, got 0"),
    ("--terms", "0", "need max_terms >= 1, got 0"),
    ("--factors", "0", "need max_factors >= 1, got 0"),
    ("--support", "0", "need max_support >= 1, got 0"),
    ("--max-k", "-1", "need max_k >= 0, got -1"),
])
def test_transform_audit_refuses_a_shape_it_cannot_draw(capsys, flag, value,
                                                        message):
    rc, out, err = run(capsys, "transform-audit", "--count", "1", flag, value)
    assert rc == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["hitset", "--N", "16", "--k", "1", "--limit", "-3"],
     "need --limit >= 0, got -3"),
    (["pit", "--circuit", "{f}", "--budget", "-2"], "need --budget >= 0, got -2"),
    (["homogenize", "--circuit", "{f}", "--n", "2", "--expand-cap", "-5"],
     "need --expand-cap >= 0, got -5"),
    (["sz", "--blackbox", "true", "--N", "-1"], "need --N >= 0, got -1"),
])
def test_negative_counts_are_refused(capsys, tmp_path, argv, message):
    f = tmp_path / "hom.circuit"
    f.write_text(HOM_CIRCUIT)
    rc, out, err = run(capsys, *[a.format(f=f) for a in argv])
    assert rc == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, code, line", [
    (["hitset", "--N", "16", "--k", "1", "--limit", "0"], 0, "grid_size=17"),
    (["pit", "--circuit", "{f}", "--budget", "0", "--override-l", "2"], 2,
     "tested=0"),
    (["homogenize", "--circuit", "{f}", "--n", "2", "--expand-cap", "0"], 0,
     "identity=skipped"),
])
def test_zero_counts_stay_valid(capsys, tmp_path, argv, code, line):
    f = tmp_path / "hom.circuit"
    f.write_text(HOM_CIRCUIT)
    rc, out, _ = run(capsys, *[a.format(f=f) for a in argv])
    assert rc == code and line in out.splitlines()
    assert not any(text.startswith("h=") for text in out.splitlines())


def test_ratios_fields(capsys):
    rc, out, _ = run(capsys, "ratios", "--n", "10000")
    assert rc == 0
    d = dict(line.split("=", 1) for line in out.splitlines())
    assert d["r"] == "3" and d["s"] == "3"
    assert int(d["N"]) > 10 ** 23          # roughly n^6 for this regime
    assert d["m"] == "498618448944203572784050"
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


@pytest.mark.parametrize("argv", [
    ["nw-params", "--n", "2"],
    ["ratios", "--n", "10000"],
    ["hitset", "--N", "16", "--k", "1", "--limit", "3"],
    ["pit", "--circuit", "x.circuit", "--budget", "20"],
])
def test_zero_denominator_in_mu_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv, "--mu", "1/0")
    assert (rc, out) == (3, "")
    assert err.endswith(f"fewvar {argv[0]}: error: argument --mu: "
                        "invalid _rational value: '1/0'\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, where", [
    ("term scale=3", "term scale=abc", "line 3: bad scale"),
    ("term scale=3", "term scale=1/0", "line 3: bad scale"),
    ("term scale=3", "term scale=1/7",
     "line 3: bad scale: denominator divisible by 7"),
    ("factor support=2", "factor support=0,x", "line 7: bad support"),
    ("factor support=0,1", "factor support=1,0",
     "line 4: support (1, 0) must be strictly increasing"),
    ("coeff 5 ; 1:1", "coeff 5 ; 4:1",
     "factor at line 4: line 6: variable 4 out of range for num_vars=2"),
    ("s=2 k=1", "s=1 k=1", "line 4: factor support (0, 1) exceeds declared_s=1"),
    ("factor support=2", "factor support=-1",
     "line 7: factor support (-1,) out of range for 3 variables"),
])
def test_malformed_circuit_names_its_line(capsys, tmp_path, old, new, where):
    f = tmp_path / "bad.circuit"
    f.write_text(GF7_CIRCUIT.replace(old, new))
    rc, out, err = run(capsys, "pit", "--circuit", str(f), "--override-l", "3")
    assert rc == 3
    assert out == ""
    assert f"error: {where}" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


COMMANDS = ("nw-params", "nw-check", "design", "hitset", "pit", "sz",
            "measure", "homogenize", "restrict-experiment", "ratios",
            "transform-audit")

HELP_ARGVS = [(), ("-h",), *((cmd, "-h") for cmd in COMMANDS), ("bogus",),
              ("measure", "--poly", "x", "--r", "1", "--m", "2", "extra"),
              ("pit", "--N", "3"),
              ("--", "nw-params", "--mu", "0", "--n", "2")]


def cli_transcript(argvs) -> str:
    """Each invocation's exit code, stdout and stderr from main(argv), in
    order, as one text."""
    parts = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
        parts.append(f"=== fewvar {' '.join(argv)}\nexit={rc}\n"
                     f"--- stdout\n{out.getvalue()}"
                     f"--- stderr\n{err.getvalue()}")
    return "".join(parts)


def test_help_and_usage_text_golden(monkeypatch):
    """Help, usage and parse-error text of every subcommand, at a fixed
    terminal width: the parser fills in only the invoked subcommand's
    arguments, and no text may move because of it."""
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_transcript(HELP_ARGVS) == (GOLDEN / "help_usage.txt").read_text()


def parse_outcome(parse, argv) -> tuple:
    """What ``parse(argv)`` gives: its arguments, or its exit code or
    exception, with the stdout and stderr it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("args", vars(parse(argv)))
        except SystemExit as e:
            result = ("exit", e.code)
        except Exception as e:          # noqa: BLE001
            result = ("raised", repr(e))
    return result + (out.getvalue(), err.getvalue())


def full_tree_parse(argv):
    return cli.build_parser().parse_args(argv)


# option values by type, valid and refused ("1/0" raises in Fraction)
GOOD_VALUES = {int: ["0", "1", "3", "-1", "12"], float: ["0.3", "1", "25e-2"],
               cli._rational: ["0", "1/2", "-3/4", "2"],
               cli._csv_ints: ["1,2", "3", "0,1,5"], None: ["x.poly", "a b"]}
BAD_VALUES = {int: ["x", "1.5", ""], float: ["x"],
              cli._rational: ["x", "1/0"], cli._csv_ints: ["a,b"],
              None: ["-v"]}
STRAY_WORDS = ["--bogus", "-x", "extra", "--"]


def option_chunk(action, clean, options):
    """One use of ``action`` on a command line: its option string or a
    prefix of it, with its value as the next word or after ``=``.  Unless
    ``clean``, the prefix may be ambiguous among ``options`` and the value
    refused or missing."""
    opt = action.option_strings[-1]
    prefixes = [opt[:n] for n in range(3, len(opt))
                if not clean or [o for o in options if o.startswith(opt[:n])]
                == [opt]]
    spelled = st.sampled_from(action.option_strings + prefixes)
    if action.nargs == 0:
        return st.tuples(spelled).map(list)
    values = GOOD_VALUES[action.type] + ([] if clean
                                         else BAD_VALUES[action.type])
    forms = ["next", "eq"] + ([] if clean else ["missing"])
    return st.tuples(spelled, st.sampled_from(forms),
                     st.sampled_from(values)).map(
        lambda t: {"next": [t[0], t[2]], "eq": [f"{t[0]}={t[2]}"],
                   "missing": [t[0]]}[t[1]])


@st.composite
def command_lines(draw, name):
    """``name`` and options drawn from its parser: most of them once, some
    repeated, in any order.  Half the lines are clean: every required
    option, valid values and no stray word."""
    clean = draw(st.booleans())
    actions = cli._fill_command(cli._Parser(prog=f"fewvar {name}"),
                                name)._actions
    options = [o for a in actions for o in a.option_strings]
    if clean:
        actions = [a for a in actions if a.nargs != 0]
    chunks = [draw(option_chunk(a, clean, options)) for a in actions
              if a.nargs != 0 and (clean and a.required
                                   or draw(st.integers(0, 2)))]
    extra = st.sampled_from(actions).flatmap(
        lambda a: option_chunk(a, clean, options))
    if not clean:
        extra |= st.sampled_from(STRAY_WORDS).map(lambda w: [w])
    chunks += draw(st.lists(extra, max_size=3))
    return [name] + [w for c in draw(st.permutations(chunks)) for w in c]


@pytest.mark.parametrize("name", COMMANDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_invoked_parser_agrees_with_the_full_tree(name, data):
    """``main`` parses a command line with the invoked subcommand's parser
    alone; on any line of that subcommand's options it returns what the
    full tree returns, or exits with the same code and text."""
    argv = data.draw(command_lines(name))
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert parse_outcome(cli._parse, argv) == parse_outcome(
            full_tree_parse, argv)


# one valid invocation of each command, on the files of probe_dir
VALID_ARGVS = [
    ["nw-params", "--mu", "0", "--n", "2"],
    ["nw-check", "--psi", "3", "--D", "1", "--n", "2"],
    ["design", "--b", "4", "--a", "2"],
    ["hitset", "--N", "16", "--k", "1", "--limit", "3"],
    ["pit", "--circuit", "hom.circuit", "--budget", "20"],
    ["sz", "--circuit", "gf7.circuit", "--trials", "20", "--domain", "5"],
    ["measure", "--poly", "quad.poly", "--r", "1", "--m", "1"],
    ["homogenize", "--circuit", "hom.circuit", "--n", "2"],
    ["restrict-experiment", "--circuit", "hom.circuit", "--s", "1",
     "--p", "0.3", "--trials", "5"],
    ["ratios", "--n", "10000"],
    ["transform-audit", "--count", "1"],
]


def test_a_valid_command_line_builds_one_parser(monkeypatch, capsys,
                                                probe_dir):
    """One parser per invocation: a valid command line builds only the
    invoked subcommand's parser.  A help or error line may build that one
    and then the full tree, for the top-level text."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    monkeypatch.chdir(probe_dir)
    assert [argv[0] for argv in VALID_ARGVS] == list(COMMANDS)
    for argv in VALID_ARGVS:
        built.clear()
        assert main(argv) != cli.EXIT_ERROR, capsys.readouterr().err
        assert built == [f"fewvar {argv[0]}"]
    for argv in HELP_ARGVS:
        built.clear()
        main(list(argv))
        assert len(built) <= 1 + 1 + len(COMMANDS)


# Runs main() on each argv (a JSON list) in a fresh interpreter, then prints
# [exit code, the watched modules loaded so far] after the import and after
# each call, as the last line of stdout.
LOAD_PROBE = """\
import json, sys
from fewvar.cli import main

watched = set(json.loads(sys.argv[2]))

def loaded():
    return sorted(watched & set(sys.modules))

seen = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    seen.append([main(argv), loaded()])
print(json.dumps(seen))
"""


def probe_loads(cwd, *argvs, watch=("numpy", "mpmath")):
    """The stdout reports and the [exit code, loaded] steps of LOAD_PROBE."""
    res = subprocess.run(
        [sys.executable, "-c", LOAD_PROBE, json.dumps(argvs),
         json.dumps(watch)],
        capture_output=True, text=True, cwd=cwd, env=src_env(), timeout=120)
    assert res.returncode == 0, res.stderr
    *reports, steps = res.stdout.splitlines(keepends=True)
    return "".join(reports), json.loads(steps)


@pytest.fixture
def probe_dir(tmp_path):
    (tmp_path / "quad.poly").write_text(QUAD_POLY)
    (tmp_path / "hom.circuit").write_text(HOM_CIRCUIT)
    (tmp_path / "gf7.circuit").write_text(GF7_CIRCUIT)
    return tmp_path


def test_light_commands_load_neither_numpy_nor_mpmath(probe_dir):
    """No command imports numpy, and mpmath serves only the certified
    rounding and the ratio calculators, so neither loads for these."""
    _, steps = probe_loads(
        probe_dir,
        ["measure", "--poly", "quad.poly", "--r", "1", "--m", "1"],
        ["nw-check", "--psi", "3", "--D", "1", "--n", "2"],
        ["design", "--b", "4", "--a", "2"],
        ["homogenize", "--circuit", "hom.circuit", "--n", "2"],
        ["hitset", "--N", "16", "--k", "1", "--limit", "3"],
        ["pit", "--circuit", "hom.circuit", "--budget", "20"])
    assert steps == [[None, []], [0, []], [0, []], [0, []], [0, []], [0, []],
                     [2, []]]


def test_start_up_generates_no_code_and_starts_no_child(probe_dir):
    """The package defines its classes without ``dataclasses``, which
    compiles methods at import and loads ``inspect``, and only a
    ``--blackbox`` run loads ``subprocess``: neither the import nor any
    other command loads these modules, and the blackbox run, last, does."""
    child = probe_dir / "box.py"
    child.write_text("import sys\n"
                     "for line in sys.stdin:\n"
                     "    print(1, flush=True)\n")
    _, steps = probe_loads(
        probe_dir,
        ["measure", "--poly", "quad.poly", "--r", "1", "--m", "1"],
        ["nw-check", "--psi", "3", "--D", "1", "--n", "2"],
        ["design", "--b", "4", "--a", "2"],
        ["homogenize", "--circuit", "hom.circuit", "--n", "2"],
        ["hitset", "--N", "16", "--k", "1", "--limit", "3"],
        ["pit", "--circuit", "hom.circuit", "--budget", "20"],
        ["sz", "--circuit", "gf7.circuit", "--trials", "20", "--domain", "5"],
        ["transform-audit", "--count", "2", "--seed", "5"],
        ["restrict-experiment", "--circuit", "hom.circuit", "--s", "1",
         "--p", "0.3", "--trials", "5"],
        ["pit", "--blackbox", f"{sys.executable} {child}", "--N", "3",
         "--k", "1", "--override-l", "3"],
        watch=("dataclasses", "inspect", "subprocess"))
    assert steps == [[None, []], [0, []], [0, []], [0, []], [0, []], [0, []],
                     [2, []], [0, []], [0, []], [0, []], [0, ["subprocess"]]]


def test_rng_is_imported_only_to_draw(probe_dir):
    """``fewvar.rng`` is imported by the functions that draw from it, so
    start-up, ``measure`` and ``pit`` never load it; ``sz`` does."""
    _, steps = probe_loads(
        probe_dir,
        ["measure", "--poly", "quad.poly", "--r", "1", "--m", "1"],
        ["pit", "--circuit", "hom.circuit", "--budget", "20"],
        ["sz", "--circuit", "gf7.circuit", "--trials", "20", "--domain", "5",
         "--seed", "9"],
        watch=["fewvar.rng"])
    assert steps == [[None, []], [0, []], [2, []], [0, ["fewvar.rng"]]]


@pytest.mark.parametrize("argv, loaded, golden", [
    (["nw-params", "--mu", "0", "--n", "2"], ["mpmath"], None),
    (["ratios", "--n", "10000"], ["mpmath"], None),
    (["sz", "--circuit", "gf7.circuit", "--trials", "20", "--domain", "5",
      "--seed", "9"], [], "sz_gf7.txt"),
    (["transform-audit", "--count", "3", "--seed", "5"], [],
     "transform_audit_3_5.txt"),
    (["restrict-experiment", "--circuit", "hom.circuit", "--s", "1",
      "--p", "0.3", "--trials", "40", "--seed", "5"], [],
     "restrict_experiment_hom.txt"),
])
def test_commands_load_what_they_use(probe_dir, argv, loaded, golden):
    """A command that rounds a real loads mpmath, one that draws random
    numbers loads neither, nor OpenSSL's ``_hashlib`` for its stream keys,
    and the seeded reports do not change."""
    out, steps = probe_loads(probe_dir, argv,
                             watch=("numpy", "mpmath", "_hashlib"))
    assert steps == [[None, []], [0, loaded]]
    if golden is not None:
        assert out == (GOLDEN / golden).read_text()


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


@pytest.mark.parametrize("child, error", [
    # reads each point and sleeps on it; exits once its stdin is closed
    ("import sys, time\n"
     "for line in sys.stdin:\n"
     "    time.sleep(1)\n", "blackbox gave no reply within 0.2 s"),
    ("import sys\n"
     "for line in sys.stdin:\n"
     "    print('abc', flush=True)\n",
     "blackbox replied 'abc', not a rational"),
    # exits at once, before or after the first point reaches it
    ("", "blackbox closed the pipe"),
])
def test_subprocess_box_bad_reply_exits_three(capsys, tmp_path, monkeypatch,
                                              child, error):
    """A late, unparsable or missing reply ends the scan with exit 3
    naming the cause, and the child is reaped."""
    boxes = []

    class Recorded(cli._SubprocessBox):
        def __init__(self, command):
            super().__init__(command)
            boxes.append(self)

    monkeypatch.setattr(cli, "_SubprocessBox", Recorded)
    monkeypatch.setattr(cli, "REPLY_TIMEOUT_S", 0.2)
    f = tmp_path / "box.py"
    f.write_text(child)
    rc, out, err = run(capsys, "pit", "--blackbox", f"{sys.executable} {f}",
                       "--N", "3", "--k", "2", "--override-l", "3")
    assert rc == 3 and out == ""
    assert f"error: {error}" in err
    assert [box.proc.returncode for box in boxes] == [0]


def test_subprocess_box_close_reaps_the_child():
    box = _SubprocessBox(f"{sys.executable} -c \"import sys; sys.stdin.read()\"")
    box.close()
    assert box.proc.returncode == 0
    assert box.proc.stdin.closed


def test_subprocess_box_close_kills_and_reaps_a_stuck_child():
    calls = []

    class Stuck:
        def communicate(self, timeout):
            calls.append(("communicate", timeout))
            raise subprocess.TimeoutExpired("box", timeout)

        def kill(self):
            calls.append("kill")

        def wait(self):
            calls.append("wait")

    box = _SubprocessBox.__new__(_SubprocessBox)
    box.proc = Stuck()
    box.close()
    assert calls == [("communicate", 5), "kill", "wait"]


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
