"""The three workloads: a fixed list of `fewvar` CLI invocations built from
the seed, and the check each report must pass.

An op is one in-process ``fewvar.cli.main(argv)`` call.  Its check compares
the report with what ``gen`` computed on its own, and returns None or the
reason the op failed.  A reason that starts with ``error`` marks an op that
did not produce a report (exit 3 or an exception); every other reason marks
a wrong report.  Either makes the run incorrect, except an error of an op
marked ``known_error``: the program is known to exit 3 there.
"""

from __future__ import annotations

import random
import shlex
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import gen

RANK_PRIME = 2305843009213693951        # 2^61 - 1, the CLI's --rank-prime
BOX_SCRIPT = Path(__file__).resolve().parent / "box.py"

EXIT_CODES = {"witness": 0, "zero-on-set": 1, "inconclusive": 2}


@dataclass
class Op:
    argv: List[str]
    shape: str
    check: Callable[[int, Dict[str, str], str], Optional[str]]
    # ops with the same key must report the same phi (exact vs mod p)
    same_phi: Optional[str] = None
    zero: bool = False                  # a pit op whose box computes zero
    # the program exits 3 on this op at the commit the benchmark was written
    # for; that error counts as a failed op but leaves the run correct
    known_error: bool = False


def parse_report(text):
    """`key=value` lines into a dict; repeated keys keep the last value."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _rc_error(rc, err):
    """The reason an op produced no report: exit 3 or an exception."""
    if rc is None or rc == 3:
        return f"error: exit {rc}: " + (err.strip().splitlines() or [""])[-1]
    return None


def _mismatch(rep, expect):
    for key, want in expect.items():
        if rep.get(key) != str(want):
            return f"{key}={rep.get(key)!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# measure: the projected-shifted-partials rank of NW instances, restricted NW
# instances and circuit expansions, exact and mod p

NW_SHAPE = (3, 5, 2)                    # n, psi, D: 15 variables, 25 monomials
RESTRICTIONS = 30                       # restricted instances per pass
# variables kept alive, cycled over the restrictions; a fixed count rather
# than a coin per variable keeps the number of surviving monomials, and so
# an op's cost, close to the same on every seed.  Ten restrictions keep 12:
# their exact ops rank 5th to 14th by time, below the four unrestricted
# ops, so the 90th percentile of a pass's 104 ops falls inside that group
# rather than on its edge.
KEEP_COUNTS = (10, 11, 12)
# Restricted ops outnumber circuit ops, so the median op is a restricted one:
# the circuit ops' few milliseconds, much of them argument parsing, kept
# less steady from run to run on a shared machine.
CIRCUITS = 20                           # circuit expansions per pass
# a fixed shape, so the expansions are of one size on every seed
CIRCUIT_SHAPE = dict(terms=2, factors=3, support=3, local_terms=2, max_exp=2)


def _measure_check(rows, cols, exact, bound):
    def check(rc, rep, err):
        bad = _rc_error(rc, err)
        if bad:
            return bad
        if rc != 0:
            return f"exit {rc}"
        bad = _mismatch(rep, {"seed": 0, "r": 1, "rows": rows, "cols": cols,
                              "exact": "true" if exact else "false"})
        if bad:
            return bad
        phi = int(rep["phi"])
        if not 0 <= phi <= min(rows, cols):
            return f"phi={phi} outside [0, min(rows, cols)]"
        if bound is not None and phi > bound:
            return f"phi={phi} above the depth-4 bound {bound}"
        return None
    return check


def measure_ops(seed, workdir):
    rnd = random.Random(f"measure:{seed}")
    n, psi, D = NW_SHAPE
    N = n * psi
    nw = gen.nw_poly(n, psi, D)
    inputs = [("nw", nw, (2, 3), False)]
    for i in range(RESTRICTIONS):
        alive = set(rnd.sample(range(N), KEEP_COUNTS[i % len(KEEP_COUNTS)]))
        inputs.append((f"restricted{i}", gen.restrict(nw, alive), (2,), False))
    for i in range(CIRCUITS):
        poly = {}
        while not poly:
            poly = gen.circuit_expand(gen.random_circuit(rnd, N, **CIRCUIT_SHAPE))
        inputs.append((f"circuit{i}", poly, (2,), True))
    ops = []
    for name, poly, ms, is_circuit in inputs:
        path = workdir / f"{name}.poly"
        path.write_text(gen.poly_text(N, poly))
        for m in ms:
            rows = gen.measure_rows(N, 1, m)
            cols = gen.measure_cols(poly, N, m)
            bound = None if not is_circuit else gen.depth4_bound(
                CIRCUIT_SHAPE["terms"], CIRCUIT_SHAPE["factors"], 1,
                CIRCUIT_SHAPE["support"], N, m)
            kind = name.rstrip("0123456789")
            argv = ["measure", "--poly", str(path), "--r", "1", "--m", str(m)]
            for exact in (True, False):
                ops.append(Op(
                    argv=argv if exact else argv + ["--rank-prime", str(RANK_PRIME)],
                    shape=f"{kind}.m{m}.{'exact' if exact else 'mod'}",
                    check=_measure_check(rows, cols, exact, bound),
                    same_phi=f"{name}.m{m}"))
    return ops


# ---------------------------------------------------------------------------
# pit: identity testing of disguised identities and nonzero circuits

# The counts put the 90th percentile of op time inside the blackbox group,
# whose ops all pay one interpreter start, rather than between two groups.
PIT_SHAPES = {
    # shape: (N, zero boxes, nonzero boxes, budget, through --blackbox)
    "derived16": (16, 38, 38, 15, False),   # 289-point universe, 16 sets of 11
    "full6": (6, 1, 5, None, False),        # every set is the universe, 4096 points
    "derived64": (64, 4, 4, 6, False),
    "derived256": (256, 1, 1, 2, False),    # stream_size has over 4300 digits
    "blackbox": (16, 6, 6, 15, True),
}
TOY_ARGS = ["--override-l", "6", "--a-prime", "2", "--q", "3", "--D", "2",
            "--override-grid", "0,1,2,3"]
BOX_TERMS = dict(max_terms=4, max_exp=2, total=12)


def _pit_check(N, k, st, expect, blackbox):
    want = {"seed": 0, "N": N, "k": k, "l": st["l"],
            "set_size": st["rows"] * st["q"], "grid_size": len(st["grid"]),
            "status": expect["status"], "tested": expect["tested"]}

    def check(rc, rep, err):
        bad = _rc_error(rc, err)
        if bad:
            return bad
        if rc != EXIT_CODES[expect["status"]]:
            return f"exit {rc} for status {expect['status']}"
        bad = _mismatch(rep, want)
        if bad:
            return bad
        if rep.get("class", "absent") != ("absent" if blackbox else "pass"):
            return f"class={rep.get('class')!r}"
        if expect["witness"] is None:
            return "witness reported for a zero box" if "witness" in rep else None
        point = tuple(Fraction(v) for v in rep.get("witness", "").split(","))
        if point != expect["witness"] or Fraction(rep["value"]) != expect["value"]:
            return "witness or value differs from the generator's evaluation"
        return None
    return check


def pit_ops(seed, workdir):
    rnd = random.Random(f"pit:{seed}")
    ops = []
    for shape, (N, zeros, nonzeros, budget, blackbox) in PIT_SHAPES.items():
        for i in range(zeros + nonzeros):
            zero = i < zeros
            if zero:
                terms, k = gen.disguised_identity(rnd, N, **BOX_TERMS)
                poly = {}
            else:
                terms, k, poly = gen.nonzero_box(rnd, N, **BOX_TERMS,
                                                 constant=(i - zeros) % 2 == 0)
            st = (gen.toy_stream(N, 6, 2, 3, 2, range(4)) if shape == "full6"
                  else gen.derived_stream(N, k))
            stem = workdir / f"{shape}-{i}"
            if blackbox:
                spec = stem.with_suffix(".json")
                spec.write_text(gen.circuit_json(N, terms))
                cmd = " ".join(shlex.quote(s) for s in (sys.executable, str(BOX_SCRIPT), str(spec)))
                argv = ["pit", "--blackbox", cmd, "--N", str(N), "--k", str(k)]
            else:
                path = stem.with_suffix(".circuit")
                path.write_text(gen.circuit_text(N, 1, k, terms))
                argv = ["pit", "--circuit", str(path)]
            if budget is not None:
                argv += ["--budget", str(budget)]
            if shape == "full6":
                argv += TOY_ARGS
            expect = gen.expected_pit(poly, st, budget)
            ops.append(Op(argv=argv, shape=shape,
                          check=_pit_check(N, k, st, expect, blackbox),
                          zero=zero, known_error=shape == "derived256"))
    return ops


# ---------------------------------------------------------------------------
# audit: the transform audit on one random circuit per op

# A pass short enough that seven or more fit in a 40-second run: the large
# shape's cost is heavy-tailed, and the median over that many passes keeps
# wall_s steady.
AUDIT_SHAPES = {
    # shape: (ops per pass, extra arguments)
    "default": (100, []),
    "large": (6, ["--vars", "12", "--terms", "6", "--factors", "4",
                   "--support", "4", "--max-k", "3"]),
}


def _audit_check(op_seed):
    want = {"seed": op_seed, "count": 1, "circuits": 1, "checks": 5,
            "failures": 0, "ok": "pass"}

    def check(rc, rep, err):
        bad = _rc_error(rc, err)
        if bad:
            return bad
        if rc != 0:
            return f"exit {rc}"
        return _mismatch(rep, want)
    return check


def audit_ops(seed, workdir):
    rnd = random.Random(f"audit:{seed}")
    ops = []
    for shape, (count, extra) in AUDIT_SHAPES.items():
        for _ in range(count):
            op_seed = rnd.randrange(2 ** 31)
            ops.append(Op(argv=["transform-audit", "--count", "1", "--seed",
                                str(op_seed)] + extra,
                          shape=shape, check=_audit_check(op_seed)))
    return ops


WORKLOADS = {"measure": measure_ops, "pit": pit_ops, "audit": audit_ops}


def verify(ops, results):
    """Check one pass: each report on its own, then exact against mod-p phi.
    ``results`` holds (rc, stdout, stderr, seconds, ...) per op; returns the
    failure reason per op, None where the op passed."""
    reasons = []
    phis = {}
    for op, (rc, out, err, *_) in zip(ops, results):
        rep = parse_report(out)
        reasons.append(op.check(rc, rep, err))
        if op.same_phi is not None and "phi" in rep:
            phis.setdefault(op.same_phi, set()).add(rep["phi"])
    for i, op in enumerate(ops):
        if reasons[i] is None and op.same_phi is not None and len(phis[op.same_phi]) > 1:
            reasons[i] = f"exact and mod-p phi differ: {sorted(phis[op.same_phi])}"
    return reasons
