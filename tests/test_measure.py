"""The rank measure, restrictions, the closed-form bound, and the
large-parameter ratio calculators."""

import copy
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (fcircuit, bounded_support_poly, brute_phi, dense_rank,
                     dense_rank_mod, make_mon, nw_expand, random_poly,
                     subadditivity_check)
from fewvar.algebra import SparsePolynomial
from fewvar.measure import (
    DerivedMeasure,
    MeasureParams,
    appendix_ratios,
    approx_check,
    bad_support_monomials,
    depth4_upper_bound,
    derive_measure_params,
    lr1_closed_form,
    psd_dimension,
    rank_exact,
    rank_mod,
    sample_restriction,
    survival_experiment,
)
from fewvar.nw import NWInstance, NWParams, derive_nw_params
from fewvar.rng import named_rng


def ml(num_vars, *supports):
    return SparsePolynomial.from_terms(
        num_vars, [(1, [(v, 1) for v in supp]) for supp in supports])


# ---------------------------------------------------------------------------
# the measure itself

def test_phi_worked_example():
    # P = x0*x1 over 3 variables, derivatives {x0}, shift degree 1:
    # rows sigma(x_i * x1) for i in {0,1,2} span {x0*x1, x1*x2}
    P = ml(3, (0, 1))
    rep = psd_dimension(P, MeasureParams(r=1, m=1, monomials=(make_mon((0, 1)),)))
    assert rep.phi == 2
    assert rep.rows == 3
    assert rep.exact


def test_phi_zero_polynomial():
    rep = psd_dimension(SparsePolynomial.zero(3), MeasureParams(r=1, m=1))
    assert rep.phi == 0


def test_phi_disjoint_quadratics():
    P = ml(4, (0, 1), (2, 3))
    params = MeasureParams(r=1, m=0,
                           monomials=(make_mon((0, 1)), make_mon((2, 1))))
    assert psd_dimension(P, params).phi == 2


def test_phi_matches_brute_force_on_random_polys():
    rng = named_rng(23, "phi-brute")
    for _ in range(15):
        P = random_poly(rng, 5, max_terms=5, max_exp=2)
        for r, m in ((1, 1), (1, 2), (2, 1)):
            got = psd_dimension(P, MeasureParams(r=r, m=m)).phi
            assert got == brute_phi(P, r, m)


def test_phi_monotone_under_monomial_subsets():
    rng = named_rng(29, "phi-monotone")
    P = random_poly(rng, 5, max_terms=6, max_exp=2)
    from fewvar.algebra import multilinear_monomials
    all_mons = tuple(multilinear_monomials(5, 1))
    full = psd_dimension(P, MeasureParams(r=1, m=1, monomials=all_mons)).phi
    for i in range(len(all_mons)):
        part = psd_dimension(
            P, MeasureParams(r=1, m=1, monomials=all_mons[:i + 1])).phi
        assert part <= full


def test_phi_row_cap():
    P = ml(6, (0, 1))
    with pytest.raises(ValueError, match="cap"):
        psd_dimension(P, MeasureParams(r=1, m=2), row_cap=10)


def test_phi_rejects_prime_field_input():
    P = SparsePolynomial.from_terms(2, [(1, [(0, 1)])], 5)
    with pytest.raises(ValueError):
        psd_dimension(P, MeasureParams(r=0, m=0))


def test_rank_mod_lower_bounds_exact_rank():
    rng = named_rng(31, "rank-cross")
    for _ in range(10):
        P = random_poly(rng, 5, max_terms=6, max_exp=2)
        params = MeasureParams(r=1, m=1)
        exact = psd_dimension(P, params).phi
        modular = psd_dimension(
            P, MeasureParams(r=1, m=1, rank_prime=(1 << 61) - 1))
        assert not modular.exact
        assert modular.phi <= exact
        assert modular.phi == exact   # no collisions at this scale


def test_rank_helpers_agree():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)},
            {2: Fraction(1)}]
    int_rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}]
    assert [scaled_to_integers(row) for row in rows] == int_rows
    assert rank_exact(int_rows) == 2
    assert rank_mod(int_rows, 97) == 2


def test_subadditivity_cancellation_and_random_pairs():
    P = ml(4, (0, 1))
    params = MeasureParams(r=1, m=1)
    assert subadditivity_check(P, P, Fraction(1), Fraction(-1), params)
    assert subadditivity_check(P, SparsePolynomial.zero(4), Fraction(1),
                               Fraction(1), params)
    rng = named_rng(37, "subadd")
    for _ in range(20):
        A = random_poly(rng, 5, max_terms=4, max_exp=2)
        B = random_poly(rng, 5, max_terms=4, max_exp=2)
        alpha = Fraction(int(rng.integers(-3, 4)))
        beta = Fraction(int(rng.integers(-3, 4)))
        assert subadditivity_check(A, B, alpha, beta, params)


# ---------------------------------------------------------------------------
# the fraction-free kernel against the dense oracle

ENTRIES = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def sparse_rows(draw):
    """Sparse rational rows over a few columns, with explicit zero entries,
    duplicate rows, nonzero scalar multiples of earlier rows and zero rows."""
    n_cols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("new", "new", "copy", "multiple", "zero")))
        if kind == "zero" or (kind != "new" and not rows):
            rows.append({j: Fraction(0) for j in
                         draw(st.sets(st.integers(0, n_cols - 1)))})
        elif kind == "new":
            rows.append(draw(st.dictionaries(st.integers(0, n_cols - 1), ENTRIES)))
        else:
            row = dict(rows[draw(st.integers(0, len(rows) - 1))])
            if kind == "multiple":
                f = draw(ENTRIES.filter(bool)) * draw(st.sampled_from((1, 10 ** 12)))
                row = {j: f * c for j, c in row.items()}
            rows.append(row)
    return n_cols, rows


def scaled_to_integers(row):
    """The row times the lcm of its denominators, zeros dropped: the nonzero
    int entries the rank kernels take."""
    den = math.lcm(*(c.denominator for c in row.values()))
    return {j: int(c * den) for j, c in row.items() if c}


@settings(max_examples=300, deadline=None)
@given(sparse_rows())
def test_rank_exact_matches_dense_rank(case):
    n_cols, rows = case
    dense = [[row.get(j, Fraction(0)) for j in range(n_cols)] for row in rows]
    rank = dense_rank(dense)
    int_rows = [scaled_to_integers(row) for row in rows]
    assert rank_exact(int_rows) == rank
    assert rank_mod(int_rows, 2 ** 61 - 1) <= rank


RANK_PRIMES = (2, 3, 5, 7, 97, 2 ** 61 - 1)


@st.composite
def rows_mod_p(draw):
    """A prime and sparse integer rows over a few columns, with entries above
    p/2 and near multiples of p, rows that are nonzero over Z but vanish
    mod p, rows whose largest column holds a multiple of p, and integer
    combinations of earlier rows (which may vanish mod p too)."""
    p = draw(st.sampled_from(RANK_PRIMES))
    n_cols = draw(st.integers(1, 6))
    multiple = st.integers(-3, 3).filter(bool).map(lambda k: k * p)
    entry = st.one_of(
        st.integers(-6, 6),
        st.integers(p // 2 + 1, 3 * p),
        st.integers(-3 * p, -(p // 2) - 1),
        st.tuples(multiple, st.integers(-2, 2)).map(sum),
    )
    cols = st.integers(0, n_cols - 1)
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("new", "new", "vanish", "pivot", "combo")))
        if kind == "combo" and rows:
            a, b = draw(entry), draw(entry)
            r1 = rows[draw(st.integers(0, len(rows) - 1))]
            r2 = rows[draw(st.integers(0, len(rows) - 1))]
            row = {j: a * r1.get(j, 0) + b * r2.get(j, 0) for j in set(r1) | set(r2)}
        elif kind == "vanish":
            row = draw(st.dictionaries(cols, multiple, min_size=1))
        else:
            row = draw(st.dictionaries(cols, entry, min_size=1))
            if kind == "pivot":
                row[max(row)] = draw(multiple)
        rows.append(row)
    return p, n_cols, rows


@settings(max_examples=300, deadline=None)
@given(rows_mod_p())
def test_rank_mod_matches_dense_rank_mod(case):
    p, n_cols, rows = case
    dense = [[row.get(j, 0) for j in range(n_cols)] for row in rows]
    int_rows = [scaled_to_integers(row) for row in rows]
    rank = rank_mod(int_rows, p)
    assert rank == dense_rank_mod(dense, p)
    assert rank <= rank_exact(int_rows)


@st.composite
def block_rows(draw):
    """Rows over disjoint column ranges, one range per block, interleaved
    across blocks in a drawn order.  A block either starts with a triangular
    set of rows of full column rank, followed by denser rows it already
    spans, or holds random rows.  Extra rows: one bridging two blocks, one
    with an explicit zero entry on another block's column, and empty rows.
    Rows hold ints or Fractions."""
    int_entry = st.integers(-6, 6).filter(bool)
    blocks, ranges = [], []
    for _ in range(draw(st.integers(1, 4))):
        lo = sum(map(len, ranges))
        cols = range(lo, lo + draw(st.integers(1, 4)))
        ranges.append(cols)
        entry = draw(st.sampled_from((int_entry, ENTRIES.filter(bool))))
        block = []
        if draw(st.booleans()):
            for j in cols:
                row = draw(st.dictionaries(st.sampled_from(cols[:j - lo + 1]), entry))
                row[j] = draw(entry)
                block.append(row)
            for _ in range(draw(st.integers(1, 3))):
                block.append({j: draw(entry) for j in cols})
        else:
            for _ in range(draw(st.integers(1, 5))):
                block.append(draw(st.dictionaries(st.sampled_from(cols), entry)))
        blocks.append(block)
    extra = [{}] * draw(st.integers(0, 2))
    if len(ranges) > 1:
        a, b = draw(st.permutations(ranges))[:2]
        if draw(st.booleans()):
            extra.append({draw(st.sampled_from(a)): draw(int_entry),
                          draw(st.sampled_from(b)): draw(ENTRIES.filter(bool))})
        if draw(st.booleans()):
            zero = draw(st.sampled_from((0, Fraction(0))))
            extra.append({draw(st.sampled_from(a)): draw(int_entry),
                          draw(st.sampled_from(b)): zero})
    blocks.append(extra)
    order = draw(st.permutations([i for i, blk in enumerate(blocks) for _ in blk]))
    queues = [iter(blk) for blk in blocks]
    return sum(map(len, ranges)), [next(queues[i]) for i in order]


@settings(max_examples=200, deadline=None)
@given(block_rows())
def test_block_kernel_matches_dense_rank(case):
    n_cols, rows = case
    dense = [[row.get(j, 0) for j in range(n_cols)] for row in rows]
    int_rows = [scaled_to_integers(row) for row in rows]
    before = copy.deepcopy(int_rows)
    assert rank_exact(int_rows) == dense_rank(dense)
    int_dense = [[row.get(j, 0) for j in range(n_cols)] for row in int_rows]
    for p in RANK_PRIMES:
        assert rank_mod(int_rows, p) == dense_rank_mod(int_dense, p)
    assert int_rows == before


@pytest.mark.parametrize("p", RANK_PRIMES)
def test_rank_mod_residue_cases(p):
    h = p // 2

    def neg_inverse(k):
        """-1/k mod p as a symmetric residue."""
        a = -pow(k, -1, p) % p
        return a - p if a > h else a

    k = 2 if p == 3 else 3
    k7 = 11 if p == 7 else 7
    a, a7 = neg_inverse(k), neg_inverse(k7)
    cases = [
        # entries above p/2: h+1 and p-1 are the units -h and -1 mod p
        ([{0: h + 1, 1: p - 1}, {0: 1}, {1: 3 * p - 1}], 2),
        # nonzero over Z, zero mod p
        ([{0: p, 1: 2 * p}, {2: -3 * p}], 0),
        # pivots divisible by p: rows 1 and 2 agree mod p, so rank 2 of 3
        ([{0: 1, 3: p}, {0: 2, 3: 5 * p}, {1: 1, 2: p + 1}], 2),
        # a step scaled by the basis pivot k lands on k*a + 1 = 0 mod p
        ([{1: k, 0: -1}, {1: 1, 0: a}], 1),
        # the same after a content of 3 is divided out of the reduced row
        ([{1: k7, 0: -1}, {2: 1, 0: -a7, 1: -1}, {2: 1, 0: 2 * a7, 1: 2}], 2),
    ]
    for rows, want in cases:
        dense = [[row.get(j, 0) for j in range(4)] for row in rows]
        assert dense_rank_mod(dense, p) == want
        assert rank_mod(rows, p) == want


def test_rank_prime_must_be_prime():
    for bad in (4, 6, -7, 1, 0):
        with pytest.raises(ValueError, match=f"rank prime {bad} is not a prime"):
            MeasureParams(r=1, m=0, rank_prime=bad)
    assert MeasureParams(r=1, m=0, rank_prime=2).rank_prime == 2


@st.composite
def rational_polys(draw, num_vars=4):
    items = []
    for _ in range(draw(st.integers(1, 5))):
        c = draw(ENTRIES.filter(bool))
        exps = draw(st.lists(st.integers(0, 2), min_size=num_vars,
                             max_size=num_vars))
        items.append((c, [(v, e) for v, e in enumerate(exps) if e]))
    return SparsePolynomial.from_terms(num_vars, items)


@settings(max_examples=30, deadline=None)
@given(rational_polys(), st.sampled_from(((1, 1), (1, 2), (2, 1))))
def test_phi_is_scale_invariant_and_matches_brute_force(P, rm):
    r, m = rm
    params = MeasureParams(r=r, m=m)
    phi = psd_dimension(P, params).phi
    assert psd_dimension(P.scale(Fraction(7, 3)), params).phi == phi
    assert phi == brute_phi(P, r, m)


def test_phi_of_a_product_of_rational_linear_forms():
    # (x0/2 + x1/3)(x2 + 6 x3): each first derivative is a multiple of one
    # of the two forms, so phi at m=0 is 2 only if every derivative's
    # coefficients keep their ratios when denominators are cleared
    L1 = SparsePolynomial.from_terms(4, [(Fraction(1, 2), [(0, 1)]),
                                         (Fraction(1, 3), [(1, 1)])])
    L2 = SparsePolynomial.from_terms(4, [(1, [(2, 1)]), (6, [(3, 1)])])
    P = L1 * L2
    for m in (0, 1, 2):
        for rank_prime in (None, (1 << 61) - 1):
            rep = psd_dimension(P, MeasureParams(r=1, m=m, rank_prime=rank_prime))
            assert rep.phi == brute_phi(P, 1, m)
    assert psd_dimension(P, MeasureParams(r=1, m=0)).phi == 2


# phi and cols of the NW polynomial (D=2, r=1), as one elimination over all
# rows computed them before the rank was split into blocks
@pytest.mark.parametrize("rank_prime", [None, (1 << 61) - 1])
@pytest.mark.parametrize("n, psi, m, phi, cols", [
    (3, 5, 2, 1275, 1350),
    (3, 5, 3, 3000, 3000),
    (4, 5, 3, 21640, 35700),
])
def test_nw_measure_pins(n, psi, m, phi, cols, rank_prime):
    P = nw_expand(NWInstance(n=n, psi=psi, D=2))
    rep = psd_dimension(P, MeasureParams(r=1, m=m, rank_prime=rank_prime))
    assert (rep.phi, rep.cols, rep.rows) == (phi, cols, n * psi * math.comb(n * psi, m))
    assert rep.exact == (rank_prime is None)


@pytest.mark.parametrize("rank_prime", [None, (1 << 61) - 1])
def test_rank_kernels_receive_integer_rows(monkeypatch, rank_prime):
    # the kernels are looked up by module-level name, rows first
    import fewvar.measure as measure
    name = "rank_exact" if rank_prime is None else "rank_mod"
    kernel = getattr(measure, name)
    seen = []

    def spy(rows, *args):
        rows = list(rows)
        seen.extend(rows)
        return kernel(rows, *args)
    monkeypatch.setattr(measure, name, spy)
    P = SparsePolynomial.from_terms(
        4, [(Fraction(1, 2), [(0, 1), (1, 1)]), (Fraction(-2, 3), [(1, 1), (2, 1)]),
            (Fraction(5, 6), [(2, 1), (3, 1)])])
    rep = psd_dimension(P, MeasureParams(r=1, m=1, rank_prime=rank_prime))
    assert rep.phi == brute_phi(P, 1, 1)
    assert len(seen) == rep.rows
    assert all(type(c) is int and c for row in seen for c in row.values())


# ---------------------------------------------------------------------------
# restrictions

def test_sample_restriction_extremes():
    assert sample_restriction(10, 1.0, 0) == frozenset(range(10))
    assert sample_restriction(10, 0.0, 0) == frozenset()


def test_sample_restriction_reproducible():
    a = sample_restriction(50, 0.3, 99)
    b = sample_restriction(50, 0.3, 99)
    assert a == b
    c = sample_restriction(50, 0.3, 100)
    assert a != c       # astronomically unlikely to collide


def test_sample_restriction_binomial_statistics():
    N, p, seeds = 10 ** 4, 0.5, 100
    sizes = [len(sample_restriction(N, p, s)) for s in range(seeds)]
    mean = sum(sizes) / seeds
    sigma = math.sqrt(N * p * (1 - p))        # 50 per draw
    assert abs(mean - N * p) <= 3 * sigma / math.sqrt(seeds)
    assert all(abs(x - N * p) <= 6 * sigma for x in sizes)


def test_bad_support_monomials_single_factor():
    C = fcircuit(3, 3, [(0, 1, 2)])
    rep = bad_support_monomials(C, 2)
    assert rep.count == 3
    assert rep.bound == 1 * 1 * 3
    assert rep.ok


def test_bad_support_monomials_oversized_s():
    C = fcircuit(3, 2, [(0, 1)])
    assert bad_support_monomials(C, 3).count == 0


def test_bad_support_bound_on_random_circuits():
    from fewvar.circuit import random_circuit
    rng = named_rng(41, "bad-support")
    for _ in range(20):
        C = random_circuit(rng, num_vars=8, max_terms=3, max_factors=3,
                           max_support=3, max_k=2)
        for s in (1, 2, 3):
            assert bad_support_monomials(C, s).ok


def test_survival_extremes():
    C = fcircuit(4, 2, [(0, 1)], [(2, 3)])
    dead = survival_experiment(C, 1, 0.0, 20, 5)
    assert dead.empirical_rate == 0.0
    alive = survival_experiment(C, 1, 1.0, 20, 5)
    assert alive.empirical_rate == 1.0
    assert alive.markov_bound == 1.0


def test_survival_against_exact_expectation():
    C = fcircuit(6, 2, [(0, 1), (2, 3)], [(4, 5)])
    rep = survival_experiment(C, 2, 0.4, 400, 13)
    # E[|B_V|] = |B| p^2 exactly; the Monte-Carlo mean sits within 3 sigma
    assert rep.expected_survivors == rep.bad_count * 0.4 ** 2
    assert abs(rep.mean_survivors - rep.expected_survivors) \
        <= 3 * rep.stderr_survivors + 1e-9
    assert rep.empirical_rate <= rep.markov_bound + 3 * rep.stderr_survivors


# ---------------------------------------------------------------------------
# the closed-form bound

def test_depth4_upper_bound_examples():
    assert depth4_upper_bound(2, 2, 1, 1, 4, 1) == 36
    assert depth4_upper_bound(7, 3, 0, 2, 10, 0) == 7
    with pytest.raises(ValueError, match="regime"):
        depth4_upper_bound(1, 2, 2, 3, 10, 0)


def test_depth4_bound_dominates_measured_phi():
    rng = named_rng(43, "depth4-dominate")
    for _ in range(10):
        N, c, n, s = 8, 2, 3, 2
        P, c, n = bounded_support_poly(rng, N, c, n, s)
        for r, m in ((1, 1), (1, 2)):
            assert m + r * s <= N // 2
            phi = psd_dimension(P, MeasureParams(r=r, m=m)).phi
            assert phi <= depth4_upper_bound(c, n, r, s, N, m)


# ---------------------------------------------------------------------------
# parameter derivation and ratios

def test_derive_measure_params_regime():
    for n in (4, 16, 100, 10 ** 4):
        d = derive_measure_params(0, n)
        assert d.r == d.s == int(math.sqrt(0.001) * math.sqrt(n))
        assert d.r * d.s / n <= 0.001 + 1e-12
        assert 2 * d.m <= d.nw.N
        # p * N^(mu+delta) = 1 in log space
        assert abs(d.log_p + float(0 + d.nw.delta) * math.log(d.nw.N)) < 1e-9


def test_derive_measure_params_epsilon_overrides():
    d = derive_measure_params(0, 100, eps1=0.1)
    assert d.eps2 == pytest.approx(0.01)
    assert d.r == 1 and d.s == 0


def test_derive_measure_params_exact_floor_at_perfect_squares():
    # sqrt(n/1000) = k exactly, where float eps*sqrt(n) often lands just
    # below k
    nw = derive_nw_params(0, 2)          # r, s do not depend on it
    for k in range(1, 200):
        d = derive_measure_params(0, 1000 * k * k, nw=nw)
        assert d.r == d.s == k
        d = derive_measure_params(0, 1000 * k * k - 1, nw=nw)
        assert d.r == d.s == k - 1


def test_derive_measure_params_given_eps_read_exactly():
    # 0.29 * sqrt(10^4) is 28.999999999999996 in floats
    d = derive_measure_params(0, 10 ** 4, eps1=0.29)
    assert d.r == 29
    assert d.s == 0                      # (1/290)^2 * 10^4 < 1
    d = derive_measure_params(0, 10 ** 4, eps2=0.29)
    assert (d.r, d.s) == (0, 29)
    with pytest.raises(ValueError, match="nonnegative"):
        derive_measure_params(0, 100, eps1=-0.1)


def test_ratios_positive_at_desk_scale():
    rep = appendix_ratios(10 ** 4, 0)
    assert rep.log_ratio_1 > 0
    assert rep.log_ratio_2 > 0
    assert not rep.exact     # N is astronomically large here


def fake_derived(N, n, r, s, m, p=0.5):
    nw = NWParams(mu=Fraction(0), n=n, delta=Fraction(1, 2), gamma=Fraction(4),
                  psi=max(n, 3), N=N, rho=1.0, D_raw=1.0, D=1)
    return DerivedMeasure(nw=nw, r=r, s=s, m=m, log_p=math.log(p),
                          eps1=0.0, eps2=0.0)


def test_ratios_degenerate_r0():
    # r = 0 and m + n <= N/2: ratio 1 is log(C(N, m+n) / C(N, m)) > 0
    d = fake_derived(N=100, n=10, r=0, s=3, m=20)
    rep = appendix_ratios(10, 0, derived=d)
    assert rep.exact
    want = math.log(math.comb(100, 30) / math.comb(100, 20))
    assert rep.log_ratio_1 == pytest.approx(want, rel=1e-12)
    assert rep.log_ratio_1 > 0


def test_ratios_exact_path_agrees_with_loggamma():
    import mpmath
    d = fake_derived(N=5000, n=40, r=2, s=3, m=700)
    rep = appendix_ratios(40, 0, derived=d)
    assert rep.exact
    with mpmath.workdps(60):
        lg = mpmath.loggamma
        lnC = lambda a, b: lg(a + 1) - lg(b + 1) - lg(a - b + 1)
        est = float(lnC(5000, 700 + 40 - 2) - lnC(5000, 700 + 6)
                    - lnC(42, 2))
    assert rep.log_ratio_1 == pytest.approx(est, rel=1e-6)


def test_ratios_out_of_regime():
    d = fake_derived(N=50, n=40, r=0, s=1, m=30)
    with pytest.raises(ValueError, match="regime"):
        appendix_ratios(40, 0, derived=d)


def test_lr1_closed_form_formula():
    n, r, s = 10 ** 6, 31, 31
    want = 31 * math.log(10 ** 6) * ((10 ** 6 - 31 - 961) / 10 ** 6 - 0.5)
    assert lr1_closed_form(n, r, s) == pytest.approx(want)


def test_approx_check_degenerate():
    exact, est, err = approx_check(100, 0, 0)
    assert exact == est == err == 0.0


def test_approx_check_error_bounds():
    for a, f, g in ((10 ** 4, 10, 10), (10 ** 6, 50, 50)):
        exact, est, err = approx_check(a, f, g)
        assert err <= 2 * (f + g) ** 2 / a


def test_approx_check_regime_violation():
    with pytest.raises(ValueError, match="regime"):
        approx_check(10, 8, 8)


def test_measure_params_validation():
    with pytest.raises(ValueError):
        MeasureParams(r=-1, m=0)
    with pytest.raises(ValueError):
        MeasureParams(r=1, m=0, monomials=(make_mon((0, 2)),))
