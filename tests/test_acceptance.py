"""Acceptance gate: ten desk-scale criteria, one terminal line each.

Every test prints its verdict outside the capture so a plain pytest run
shows the ledger even on success.  The closed-form agreement clause of
criterion 10 is a known defect and is expected to fail; see the marker.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from helpers import (bounded_support_poly, checked_sets, combnulls_grid,
                     fcircuit, make_mon, nw_monomials, random_poly,
                     subadditivity_check)
from fewvar.algebra import SparsePolynomial, hom_component
from fewvar.circuit import (
    expand_circuit,
    homogenize,
    normalize_constants,
    random_circuit,
    transform_audit,
)
from fewvar.measure import (
    MeasureParams,
    appendix_ratios,
    approx_check,
    depth4_upper_bound,
    psd_dimension,
    survival_experiment,
)
from fewvar.nw import NWInstance, derive_nw_params, nw_check_properties, nw_eval
from fewvar.pit import (
    Blackbox,
    blackbox_from_circuit,
    derive_pit_params,
    pit_run,
    rs_design,
    toy_pit_params,
    verify_design,
)
from fewvar.rng import named_rng


def verdict(capsys, num, label, ok):
    with capsys.disabled():
        print(f"criterion {num:>2} ({label}): {'pass' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def audit():
    t0 = time.perf_counter()
    rep = transform_audit(200, seed=101)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ratio_data():
    t0 = time.perf_counter()
    data = {
        "r4": appendix_ratios(10 ** 4, 0),
        "r6": appendix_ratios(10 ** 6, 0),
        "a4": approx_check(10 ** 4, 10, 10),
        "a6": approx_check(10 ** 6, 50, 50),
    }
    data["elapsed"] = time.perf_counter() - t0
    return data


def test_criterion_1_transform_oracle_suite(audit, capsys):
    rep, elapsed = audit
    ok = rep.ok and rep.circuits == 200 and rep.checks == 1000 and elapsed < 60
    verdict(capsys, 1, "transform oracle suite", ok)
    assert rep.failures == []
    assert rep.circuits == 200 and rep.checks == 1000
    assert elapsed < 60, f"audit took {elapsed:.1f}s"


def test_criterion_2_fanin_ledger(audit, capsys):
    rep, _ = audit
    ok = rep.max_deriv_fanin_ratio <= 1.0 and rep.max_coeff_fanin_ratio <= 1.0
    verdict(capsys, 2, "top fan-in bounds", ok)
    assert rep.max_deriv_fanin_ratio <= 1.0
    assert rep.max_coeff_fanin_ratio <= 1.0


def test_criterion_3_homogenization_identity(capsys):
    rng = named_rng(103, "acc-homog")
    bad = 0
    for i in range(50):
        C = normalize_constants(random_circuit(
            rng, num_vars=6, max_terms=3, max_factors=3, max_support=2,
            max_k=2)[0])
        P = expand_circuit(C)
        n = i % 5
        if homogenize(C, n).value() != hom_component(P, n):
            bad += 1
    verdict(capsys, 3, "homogenization identity", bad == 0)
    assert bad == 0


def test_criterion_4_nw_family_properties(capsys):
    ok = True
    for psi, D, n in ((3, 1, 2), (3, 2, 3), (5, 2, 3)):
        inst = NWInstance(n=n, psi=psi, D=D)
        rep = nw_check_properties(inst)
        ok = ok and rep.ok and rep.monomial_count == psi ** D
        mons = list(nw_monomials(inst))
        for a, b in itertools.combinations(mons, 2):
            va = {v for v, _ in a}
            vb = {v for v, _ in b}
            ok = ok and len(va & vb) <= D - 1
        rng = named_rng(104, f"acc-nw-{psi}-{D}-{n}")
        for _ in range(50):
            pt = [int(x) for x in rng.integers(-5, 6, size=inst.num_vars)]
            expansion = sum(
                math.prod(pt[v] for v, _ in mon) for mon in mons)
            ok = ok and nw_eval(inst, pt) == expansion
    verdict(capsys, 4, "hard family properties", ok)
    assert ok


def test_criterion_5_parameter_reproduction(capsys):
    p = derive_nw_params(0, 2)
    ok = (p.psi, p.N, p.D) == (37, 74, 2)
    for N in (16, 64, 256):
        for k in (1, 2):
            pp = checked_sets(derive_pit_params(0, 3.0, N, k))
            size = pp.a_prime * pp.q
            ok = ok and 2 * size >= pp.a and size <= pp.a
            ok = ok and len(pp.grid) == N * k * pp.a_prime + 1
    verdict(capsys, 5, "parameter chains", ok)
    assert ok


def test_criterion_6_design_suite(capsys):
    t0 = time.perf_counter()
    ok = True
    for b, a in ((4, 2), (9, 3), (16, 4)):
        rep = verify_design(checked_sets(rs_design(b, a)),
                            cap=math.ceil(math.log2(b)))
        ok = ok and rep.ok
    elapsed = time.perf_counter() - t0
    verdict(capsys, 6, "design suite", ok and elapsed < 5)
    assert ok
    assert elapsed < 5, f"design suite took {elapsed:.1f}s"


def test_criterion_7_measure_suite(capsys):
    t0 = time.perf_counter()
    def ml(nv, *pairs):
        return SparsePolynomial.from_terms(
            nv, [(1, [(v, 1) for v in grp]) for grp in pairs])

    ok = psd_dimension(
        ml(3, (0, 1)),
        MeasureParams(r=1, m=1, monomials=(make_mon((0, 1)),))).phi == 2
    ok = ok and psd_dimension(
        SparsePolynomial.zero(3), MeasureParams(r=1, m=1)).phi == 0
    ok = ok and psd_dimension(
        ml(4, (0, 1), (2, 3)),
        MeasureParams(r=1, m=0, monomials=(make_mon((0, 1)),
                                           make_mon((2, 1))))).phi == 2

    rng = named_rng(107, "acc-subadd")
    shapes = ((1, 1), (2, 1), (1, 2), (2, 2))
    for i in range(100):
        P = random_poly(rng, 6, max_terms=4, max_exp=2)
        Q = random_poly(rng, 6, max_terms=4, max_exp=2)
        alpha = int(rng.integers(-3, 4))
        beta = int(rng.integers(-3, 4))
        r, m = shapes[i % 4]
        ok = ok and subadditivity_check(P, Q, alpha, beta,
                                        MeasureParams(r=r, m=m))

    rng = named_rng(108, "acc-depth4")
    for i in range(50):
        N, s = 8, 2
        P, c, n = bounded_support_poly(rng, N, 1 + i % 2, 2 + i % 2, s)
        r, m = ((1, 1), (1, 2))[i % 2]
        assert m + r * s <= N // 2
        phi = psd_dimension(P, MeasureParams(r=r, m=m)).phi
        ok = ok and phi <= depth4_upper_bound(c, n, r, s, N, m)
    elapsed = time.perf_counter() - t0
    verdict(capsys, 7, "measure suite", ok and elapsed < 300)
    assert ok
    assert elapsed < 300, f"measure suite took {elapsed:.1f}s"


def test_criterion_8_restriction_statistics(capsys):
    C = fcircuit(6, 2, [(0, 1), (2, 3)], [(4, 5)])
    rep = survival_experiment(C, 2, 0.5, 1000, 109)
    ok = rep.bad_count == 3
    ok = ok and rep.expected_survivors == rep.bad_count * 0.5 ** 2
    ok = ok and abs(rep.mean_survivors - rep.expected_survivors) \
        <= 3 * rep.stderr_survivors + 1e-9
    rate_sigma = math.sqrt(
        rep.empirical_rate * (1 - rep.empirical_rate) / rep.trials)
    ok = ok and rep.empirical_rate <= rep.markov_bound + 3 * rate_sigma
    verdict(capsys, 8, "restriction statistics", ok)
    assert ok, rep


def test_criterion_9_pit_soundness_and_desk_completeness(capsys):
    params = checked_sets(toy_pit_params(N=3, k=1, l=3))
    zero = Blackbox(fn=lambda pt: Fraction(0), num_vars=3, k=1)
    res = pit_run(zero, params)
    ok = res.status == "zero-on-set" and res.tested == params.stream_size

    rng = named_rng(110, "acc-pit")
    params5 = checked_sets(toy_pit_params(N=5, k=2, l=4, q=2))
    tested = 0
    while tested < 100:
        C, P = random_circuit(rng, num_vars=5, max_terms=3, max_factors=2,
                              max_support=2, max_k=2)
        if P.is_zero():
            continue
        tested += 1
        r = pit_run(C, params5)
        if r.status == "witness":
            ok = ok and blackbox_from_circuit(C).eval_at(r.point) != 0

    rng = named_rng(111, "acc-combnulls")
    polys = 0
    while polys < 25:
        Q = random_poly(rng, 4, max_terms=4, max_exp=2)
        if Q.is_zero():
            continue
        polys += 1
        d = Q.individual_degree()
        ok = ok and any(Q.eval_at(list(pt)) for pt in combnulls_grid(4, d))
    verdict(capsys, 9, "identity-testing suite", ok)
    assert ok


def test_criterion_10_ratio_numerics(ratio_data, capsys):
    r4, r6 = ratio_data["r4"], ratio_data["r6"]
    ok = r4.log_ratio_1 > 0 and r4.log_ratio_2 > 0
    ok = ok and r6.log_ratio_1 > 0 and r6.log_ratio_2 > 0
    ok = ok and ratio_data["a4"][2] <= 2 * 20 ** 2 / 10 ** 4
    ok = ok and ratio_data["a6"][2] <= 2 * 100 ** 2 / 10 ** 6
    ok = ok and ratio_data["elapsed"] < 10
    verdict(capsys, 10, "ratio positivity and approximation error", ok)
    assert r4.log_ratio_1 > 0 and r4.log_ratio_2 > 0
    assert r6.log_ratio_1 > 0 and r6.log_ratio_2 > 0
    assert ratio_data["a4"][2] <= 0.08
    assert ratio_data["a6"][2] <= 0.02
    assert ratio_data["elapsed"] < 10


@pytest.mark.xfail(
    strict=True,
    reason="log_ratio_1 at n=10**6 is ~2.4x the first-order closed form; "
    "the 10% window is not attainable for any derived parameter set")
def test_criterion_10_closed_form_agreement(ratio_data, capsys):
    r6 = ratio_data["r6"]
    rel = abs(r6.log_ratio_1 - r6.closed_form_1) / abs(r6.closed_form_1)
    verdict(capsys, 10, "closed-form agreement within 10%", rel <= 0.1)
    assert rel <= 0.1, f"relative gap {rel:.3f}"
