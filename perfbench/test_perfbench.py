"""Tests of the benchmark's own code: span arithmetic, seeded inputs, the
oracles against the program, and the per-op checks.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import Tally, cache_clears, end_to_end, run_pass, run_pass_process  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _spans(tracer, layout):
    """Record spans from (name, parent index, start, end) rows, then set
    their clock values to the given ones."""
    opened = {}
    for i, (name, parent, _, _) in enumerate(layout):
        while tracer._stack and tracer._stack[-1] != opened.get(parent, -1):
            tracer.close(tracer._stack[-1])
        opened[i] = tracer.open(name)
    while tracer._stack:
        tracer.close(tracer._stack[-1])
    for i, (_, _, start, end) in enumerate(layout):
        tracer.start[i], tracer.end[i] = start, end


def test_self_time_subtracts_direct_children_only():
    tr = spans.Tracer()
    _spans(tr, [
        ("main", None, 0.0, 10.0),
        ("mul", 0, 1.0, 4.0),
        ("new", 1, 2.0, 3.0),
        ("mul", 1, 2.5, 3.5),       # nested in a span of its own name
        ("eval", 0, 5.0, 9.0),
        ("new", 4, 6.0, 8.0),
        ("main", None, 20.0, 21.0),
    ])
    s = tr.summary()
    assert s["self"]["main"] == pytest.approx(3.0 + 1.0)
    assert s["self"]["mul"] == pytest.approx(3.0 - 1.0 - 1.0 + 1.0)
    assert s["self"]["eval"] == pytest.approx(2.0)
    assert s["self"]["new"] == pytest.approx(3.0)
    assert s["incl"]["mul"] == pytest.approx(3.0)       # outer span only
    assert s["calls"]["mul"] == 2
    assert s["roots"] == pytest.approx(11.0)
    # self times add up to the root spans
    assert sum(s["self"].values()) == pytest.approx(s["roots"])


def test_tracer_restores_every_function():
    import fewvar.measure
    import fewvar.pit
    from fewvar.algebra import SparsePolynomial
    before = (fewvar.pit.nw_eval, fewvar.measure.rank_exact,
              SparsePolynomial.__mul__, fewvar.pit.Blackbox.eval_at)
    tr = spans.Tracer()
    tr.install()
    assert fewvar.pit.nw_eval is not before[0]
    tr.uninstall()
    assert (fewvar.pit.nw_eval, fewvar.measure.rank_exact,
            SparsePolynomial.__mul__, fewvar.pit.Blackbox.eval_at) == before


def _inputs(name, seed, tmp_path, tag):
    d = tmp_path / tag
    d.mkdir()
    ops = workloads.WORKLOADS[name](seed, d)
    files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    argv = [[a.replace(str(d), "<dir>") for a in op.argv] for op in ops]
    return files, argv


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_inputs(name, tmp_path):
    a = _inputs(name, 7, tmp_path, "a")
    assert a == _inputs(name, 7, tmp_path, "b")
    assert a != _inputs(name, 8, tmp_path, "c")


@pytest.mark.parametrize("N", [16, 64, 256])
def test_derived_stream_matches_program_parameters(N):
    from fewvar.pit import derive_pit_params
    st = gen.derived_stream(N, 2)
    p = derive_pit_params(0, 3, N, 2)
    assert [tuple(S) for S in st["sets"]] == list(p.sets)
    assert (st["l"], st["rows"], st["q"], st["D"], tuple(st["grid"])) == \
        (p.l, p.a_prime, p.q, p.D, p.grid)


def test_stream_points_match_program_stream():
    import itertools
    from fewvar.pit import hitting_set_stream, toy_pit_params
    st = gen.toy_stream(6, 6, 2, 3, 2, range(4))
    p = toy_pit_params(6, 2, 6, a_prime=2, q=3, D=2, grid=[0, 1, 2, 3])
    assert [tuple(S) for S in st["sets"]] == list(p.sets)
    ours = list(itertools.islice(gen.stream_points(st), 200))
    assert ours == list(hitting_set_stream(p, limit=200))


def test_generated_circuits_expand_as_the_program_expands_them(tmp_path):
    import random
    from fewvar.circuit import expand_circuit, parse_circuit
    rnd = random.Random(5)
    for _ in range(10):
        zero, k = gen.disguised_identity(rnd, 16, 4, 2, 12)
        nonzero, k2, poly = gen.nonzero_box(rnd, 16, 4, 2, 12, constant=False)
        assert expand_circuit(parse_circuit(gen.circuit_text(16, 1, k, zero))).is_zero()
        P = expand_circuit(parse_circuit(gen.circuit_text(16, 1, k2, nonzero)))
        assert P.terms == poly
        spec = tmp_path / "box.json"
        spec.write_text(gen.circuit_json(16, nonzero))
        point = [Fraction(rnd.randint(-3, 3), rnd.randint(1, 2)) for _ in range(16)]
        reply = subprocess.run(
            [sys.executable, str(HERE / "box.py"), str(spec)], text=True,
            input=" ".join(str(v) for v in point) + "\n", capture_output=True,
            check=True).stdout
        assert Fraction(reply.strip()) == gen.peval(poly, point)


def _one(ops, shape):
    return [op for op in ops if op.shape == shape]


def test_checks_reject_corrupted_reports(tmp_path):
    from fewvar.cli import main
    ops = workloads.measure_ops(3, tmp_path)
    pair = _one(ops, "restricted.m2.exact")[:1] + _one(ops, "restricted.m2.mod")[:1]
    assert pair[0].same_phi == pair[1].same_phi
    results = run_pass(main, [op.argv for op in pair])
    assert workloads.verify(pair, results) == [None, None]

    def corrupt(results, i, old, new):
        out = list(results)
        rc, text, *rest = out[i]
        assert old in text
        out[i] = (rc, text.replace(old, new), *rest)
        return out

    phi = workloads.parse_report(results[0][1])["phi"]
    bad = workloads.verify(pair, corrupt(results, 0, f"phi={phi}\n", f"phi={int(phi) - 1}\n"))
    assert bad[0] and "differ" in bad[0] and bad[1]
    bad = workloads.verify(pair, corrupt(results, 1, "exact=false", "exact=true"))
    assert bad == [None, "exact='true', expected 'false'"]
    rows = workloads.parse_report(results[0][1])["rows"]
    big = str(int(rows) + 1)
    assert workloads.verify(pair, corrupt(corrupt(results, 0, f"phi={phi}\n", f"phi={big}\n"),
                                          1, f"phi={phi}\n", f"phi={big}\n"))[0]

    pit = workloads.pit_ops(3, tmp_path)
    witness = [op for op in pit if op.shape == "derived16" and not op.zero][:1]
    zero = [op for op in pit if op.shape == "derived16" and op.zero][:1]
    results = run_pass(main, [op.argv for op in witness + zero])
    assert workloads.verify(witness + zero, results) == [None, None]
    value = workloads.parse_report(results[0][1])["value"]
    assert workloads.verify(witness, corrupt(results, 0, f"value={value}", "value=7/3"))[0]
    assert workloads.verify(zero, [(0,) + results[1][1:]])[0].startswith("exit 0")
    assert workloads.verify(zero, corrupt(results, 1, "tested=", "tested=1")[1:])[0]

    audit = workloads.audit_ops(3, tmp_path)[:1]
    results = run_pass(main, [op.argv for op in audit])
    assert workloads.verify(audit, results) == [None]
    assert workloads.verify(audit, corrupt(results, 0, "failures=0", "failures=1"))[0]
    assert workloads.verify(audit, [(3, "", "error: boom\n", 0.0)])[0].startswith("error")


def test_an_op_that_errs_makes_the_run_incorrect(tmp_path):
    measure = workloads.measure_ops(3, tmp_path)[:1]
    error = [(3, "", "error: boom\n", 0.0, 0.0)]
    tally = Tally()
    tally.add(measure, workloads.verify(measure, error))
    assert (tally.failed, tally.wrong) == (1, 1)
    # only the derived N=256 pit ops are known to exit 3 at this commit
    pit = workloads.pit_ops(3, tmp_path)
    assert {op.shape for op in pit if op.known_error} == {"derived256"}
    known = [op for op in pit if op.known_error][:1]
    tally = Tally()
    tally.add(known, workloads.verify(known, error))
    assert (tally.failed, tally.wrong) == (1, 0)
    tally.add(known, workloads.verify(known, [(None,) + error[0][1:]]))
    assert (tally.failed, tally.wrong) == (2, 0)
    other = [op for op in pit if not op.known_error][:1]
    tally.add(other, workloads.verify(other, error))
    assert (tally.failed, tally.wrong) == (3, 1)


def test_a_pass_runs_in_a_process_of_its_own(tmp_path):
    ops = workloads.audit_ops(3, tmp_path)[:2]
    ops.append(workloads.Op(argv=["measure", "--poly", str(tmp_path / "absent.poly"),
                                  "--r", "1", "--m", "2"],
                            shape="absent", check=None))
    results, peak = run_pass_process(ops, tmp_path / "run")
    assert workloads.verify(ops[:2], results[:2]) == [None, None]
    assert results[2][0] == 3 and "absent.poly" in results[2][2]
    assert all(r[3] > 0 and r[4] > 0 for r in results)
    assert 10 < peak < 1000
    again, _ = run_pass_process(ops[:2], tmp_path / "again")
    assert [r[:3] for r in again] == [r[:3] for r in results[:2]]


def test_caches_are_cleared_before_each_op(monkeypatch):
    import functools
    import fewvar.algebra as algebra
    misses = []

    @functools.lru_cache(maxsize=None)
    def memo(x):
        misses.append(x)
        return x

    class Holder:
        pass
    Holder.__module__ = algebra.__name__
    Holder.method = staticmethod(memo)
    monkeypatch.setattr(algebra, "Holder", Holder, raising=False)
    clears = cache_clears()
    assert memo.cache_clear in clears
    run_pass(lambda argv: memo(0), [[]] * 3, clears=clears)
    assert misses == [0, 0, 0]
    run_pass(lambda argv: memo(0), [[]] * 3)
    assert misses == [0, 0, 0]


def test_passes_have_inputs_of_their_own(tmp_path):
    files_a, _ = _inputs("pit", "7.0", tmp_path, "a")
    files_b, _ = _inputs("pit", "7.1", tmp_path, "b")
    assert files_a.keys() == files_b.keys() and files_a != files_b


def test_reported_metrics_are_the_declared_ones(tmp_path):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}

    def build(p):
        d = tmp_path / f"inputs{p}"
        d.mkdir()
        return workloads.audit_ops(f"3.{p}", d)[:2]
    metrics, _ = end_to_end(workloads, build, 0, Tally(), tmp_path)
    assert {k: u for k, (_, u) in metrics.items()} == declared
    assert all(v > 0 for v, _ in metrics.values())

    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    layers = spans.layer_metrics(spans.Tracer(), [], [],
                                 {"cli": 0.2, "numpy": 0.1, "mpmath": 0.03},
                                 0.0, list(workloads.PIT_SHAPES), 0.1, 1.0)
    assert {k: u for k, (_, u) in layers.items()} == declared
