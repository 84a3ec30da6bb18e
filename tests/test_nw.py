"""The hard polynomial family: parameter derivation, enumeration,
evaluation, and exhaustive property checks."""

from fractions import Fraction

import pytest

from helpers import (checked_sets, degree_raw_at_most, is_prime_trial,
                     naive_graphs, nw_expand, nw_monomials)
from fewvar.algebra import mon_degree, mon_is_multilinear
from fewvar.nw import (
    NWInstance,
    degree_bound,
    derive_nw_params,
    intersections,
    nw_check_properties,
    nw_eval,
    univariate_graph,
)
from fewvar.pit import rs_design
from fewvar.rng import named_rng


def test_derive_params_frozen_instance():
    p = derive_nw_params(0, 2)
    assert p.delta == Fraction(1, 2)
    assert p.gamma == Fraction(4)
    assert p.psi == 37
    assert p.N == 74
    assert p.D == 2
    assert abs(p.rho - 3.10472668) < 1e-6
    assert abs(p.D_raw - 1.42094534) < 1e-6


def test_derive_params_prime_window_exact():
    # psi is the smallest prime in (n^(1+gamma), 2 n^(1+gamma)]
    p = derive_nw_params(0, 2)
    lo = 2 ** 5                       # gamma = 4 at mu = 0
    assert lo < p.psi <= 2 * lo
    assert all(not is_prime_trial(m) for m in range(lo + 1, p.psi))


def test_derive_params_delta_identity():
    for mu in (0, Fraction(1, 4), Fraction(1, 2), 0.9):
        p = derive_nw_params(mu, 3)
        assert p.mu + p.delta == (1 + p.mu) / 2
        assert p.mu + p.delta < 1


@pytest.mark.parametrize("mu", [Fraction(i, 8) for i in range(8)])
def test_derive_params_D_matches_integer_oracle(mu):
    for n in range(2, 40):
        p = derive_nw_params(mu, n)
        sigma = p.mu + p.delta
        assert degree_raw_at_most(sigma, p.gamma, n, p.N, p.D)
        assert not degree_raw_at_most(sigma, p.gamma, n, p.N, p.D - 1)


@pytest.mark.parametrize("mu,n,D", [(Fraction(1, 4), 154, 122),
                                    (Fraction(5, 8), 80, 73)])
def test_derive_params_D_just_above_an_integer(mu, n, D):
    # D_raw exceeds D - 1 by less than float resolution here
    p = derive_nw_params(mu, n)
    assert p.D == D
    assert not degree_raw_at_most(p.mu + p.delta, p.gamma, n, p.N, D - 1)


def test_degree_bound_pit_shapes():
    # the local family of the hitting set: a' rows, a prime q > a' columns
    sigma, gamma = Fraction(3, 4), Fraction(10)          # mu = 0
    for rows in range(2, 12):
        for cols in (13, 37, 101, 1009):
            D = degree_bound(sigma, gamma, rows, cols)
            assert degree_raw_at_most(sigma, gamma, rows, rows * cols, D)
            assert not degree_raw_at_most(sigma, gamma, rows, rows * cols, D - 1)
    assert degree_bound(sigma, gamma, 1, 13) == 1


def test_derive_params_rejects_bad_input():
    with pytest.raises(ValueError):
        derive_nw_params(1, 4)
    with pytest.raises(ValueError):
        derive_nw_params(-0.1, 4)
    with pytest.raises(ValueError):
        derive_nw_params(0, 1)


def test_instance_validation():
    with pytest.raises(ValueError):
        NWInstance(n=2, psi=4, D=1)       # composite column count
    with pytest.raises(ValueError):
        NWInstance(n=2, psi=3, D=4)       # D > psi
    with pytest.raises(ValueError):
        NWInstance(n=4, psi=3, D=1)       # more rows than field points


def test_monomials_tiny_constant_family():
    # D=1: only constant univariates, one per field element
    inst = NWInstance(n=2, psi=3, D=1)
    mons = list(nw_monomials(inst))
    assert mons == [
        ((0, 1), (3, 1)),
        ((1, 1), (4, 1)),
        ((2, 1), (5, 1)),
    ]


def test_monomials_enumeration_order_is_coefficient_lex():
    # univariate #i has the base-3 digits of i as coefficients, constant
    # coefficient least significant: f = 0, 1, 2, z, 1+z, 2+z, 2z, 1+2z,
    # 2+2z, each read at rows 0 and 1 as X[0, f(0)] X[1, f(1)]
    inst = NWInstance(n=2, psi=3, D=2)
    assert list(nw_monomials(inst)) == [
        ((0, 1), (3, 1)),
        ((1, 1), (4, 1)),
        ((2, 1), (5, 1)),
        ((0, 1), (4, 1)),
        ((1, 1), (5, 1)),
        ((2, 1), (3, 1)),
        ((0, 1), (5, 1)),
        ((1, 1), (3, 1)),
        ((2, 1), (4, 1)),
    ]


def test_univariate_graphs_match_digit_oracle():
    """Graph #k, for every k < q^D and every rows <= q, is the graph of the
    k-th coefficient tuple of itertools.product, whose digits are k's in
    base q, evaluated as an explicit sum of powers."""
    for q in (2, 3, 5, 7, 11):
        for D in (1, 2, 3):
            for rows in range(q + 1):
                assert [univariate_graph(q, rows, k) for k in range(q ** D)] \
                    == naive_graphs(q, D, rows)
    assert univariate_graph(5, 1, 0) == (0,)


@pytest.mark.parametrize("psi,D,n", [(2, 1, 1), (3, 2, 3), (5, 2, 3),
                                     (5, 3, 4), (7, 2, 5), (7, 3, 7)])
def test_design_is_the_column_table(psi, D, n):
    d = checked_sets(rs_design(psi ** D, psi, size=n))
    assert (d.q0, d.c0) == (psi, D - 1)
    assert tuple(d) == NWInstance(n, psi, D).columns


def test_intersections_scan_every_pair_once():
    sets = [(0, 1, 2), (1, 2), (5,), (0, 2, 5)]
    assert list(intersections(sets)) == [
        (0, 1, 2), (0, 2, 0), (0, 3, 2), (1, 2, 0), (1, 3, 1), (2, 3, 1)]
    assert list(intersections(sets[:1])) == []


def test_check_properties_reads_the_column_table():
    # a repeated variable: the monomial X_0^2 is not multilinear
    inst = NWInstance(n=2, psi=3, D=1)
    inst.__dict__["columns"] = ((0, 0), (1, 4), (2, 5))
    rep = nw_check_properties(inst)
    assert not rep.multilinear_ok and not rep.ok
    # a column of the wrong length has the wrong degree
    inst = NWInstance(n=2, psi=3, D=1)
    inst.__dict__["columns"] = ((0, 3), (1, 4), (2,))
    rep = nw_check_properties(inst)
    assert not rep.degree_ok and not rep.ok
    # two columns sharing D = 2 variables
    inst = NWInstance(n=3, psi=3, D=2)
    cols = list(inst.columns)
    cols[1] = cols[0][:2] + (cols[1][2],)
    inst.__dict__["columns"] = tuple(cols)
    rep = nw_check_properties(inst)
    assert rep.max_intersection == 2 and not rep.intersection_ok
    assert rep.multilinear_ok and rep.degree_ok and not rep.ok


@pytest.mark.parametrize("psi,D,n", [(3, 1, 2), (3, 2, 3), (5, 2, 3)])
def test_family_properties_exhaustive(psi, D, n):
    inst = NWInstance(n=n, psi=psi, D=D)
    rep = nw_check_properties(inst)
    assert rep.ok
    assert rep.monomial_count == psi ** D
    assert rep.max_intersection <= D - 1
    mons = list(nw_monomials(inst))
    assert all(mon_is_multilinear(m) and mon_degree(m) == n for m in mons)


@pytest.mark.parametrize("psi,D,n", [(3, 1, 2), (3, 2, 3), (5, 2, 3)])
def test_eval_matches_expansion(psi, D, n):
    inst = NWInstance(n=n, psi=psi, D=D)
    P = nw_expand(inst)
    rng = named_rng(17, f"nw-eval-{psi}-{D}-{n}")
    for _ in range(50):
        point = [Fraction(int(v)) for v in
                 rng.integers(-3, 4, size=inst.num_vars)]
        assert nw_eval(inst, point) == P.eval_at(point)


def test_eval_degenerate_points():
    inst = NWInstance(n=3, psi=5, D=2)
    assert nw_eval(inst, [1] * inst.num_vars) == 25
    assert nw_eval(inst, [0] * inst.num_vars) == 0


def test_eval_point_length_checked():
    inst = NWInstance(n=2, psi=3, D=1)
    with pytest.raises(ValueError):
        nw_eval(inst, [1, 2, 3])


def test_column_table_checks_the_enumeration_cap(monkeypatch):
    import fewvar.nw as nw
    monkeypatch.setattr(nw, "DEFAULT_ENUM_CAP", 24)
    inst = NWInstance(n=3, psi=5, D=2)
    with pytest.raises(ValueError, match=r"enumeration cap exceeded: psi\^D = 25 > 24"):
        inst.columns
    assert len(NWInstance(n=3, psi=5, D=1).columns) == 5
