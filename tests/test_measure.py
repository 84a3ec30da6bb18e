"""The rank measure, restrictions, the closed-form bound, and the
large-parameter ratio calculators."""

import copy
import functools
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (blocks_by_search, fcircuit, bounded_support_poly,
                     brute_cols, brute_phi, dense_rank, dense_rank_mod, make_mon,
                     multilinear_monomials, nw_expand, nw_monomials,
                     random_poly, src_env, subadditivity_check,
                     survivor_bases)
from fewvar.algebra import SparsePolynomial
from fewvar.measure import (
    DEFAULT_ROW_CAP,
    DerivedMeasure,
    MeasureParams,
    MeasureReport,
    _blocks,
    _survivor_bases,
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
from fewvar.nw import NWInstance, NWParams
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
    all_mons = tuple(multilinear_monomials(5, 1))
    full = psd_dimension(P, MeasureParams(r=1, m=1, monomials=all_mons)).phi
    for i in range(len(all_mons)):
        part = psd_dimension(
            P, MeasureParams(r=1, m=1, monomials=all_mons[:i + 1])).phi
        assert part <= full


def test_phi_row_cap():
    # x0*x1 over 6 variables builds 2 bases x (1 + 2 + 1) shifts of
    # {x0, x1} = 8 rows, of the 6 * C(6, 2) = 90 that ``rows`` counts
    P = ml(6, (0, 1))
    assert psd_dimension(P, MeasureParams(r=1, m=2), row_cap=8).rows == 90
    with pytest.raises(ValueError, match="cap exceeded: 8 > 7 rows to build"):
        psd_dimension(P, MeasureParams(r=1, m=2), row_cap=7)


def restricted_nw(inst, alive):
    """The NW polynomial with every variable outside ``alive`` set to zero."""
    return SparsePolynomial(inst.num_vars, {
        mon: Fraction(1) for mon in nw_monomials(inst)
        if all(v in alive for v, _ in mon)}, None)


@pytest.mark.parametrize("m, built", [(3, 252), (4, 336)])
def test_row_cap_counts_the_rows_built(m, built):
    """The cap refuses on the rows the blocks are built from: NW(3,3,2)
    restricted to x0x3x6, x0x4x8 and x2x4x6 has 6 derivatives with
    survivors and sum_k C(6, m-k) shifts of the six variables it uses, so
    it builds 6 * 42 = 252 rows at m = 3 and 6 * 56 = 336 at m = 4, of
    the 756 and 1134 that ``rows`` counts; phi is the brute oracle's."""
    P = restricted_nw(NWInstance(n=3, psi=3, D=2), {0, 2, 3, 4, 6, 8})
    assert len(P.terms) == 3
    rep = psd_dimension(P, MeasureParams(r=1, m=m), row_cap=built)
    assert rep.rows == 9 * math.comb(9, m)
    assert rep.phi == brute_phi(P, 1, m)
    message = (f"row cap exceeded: {built} > {built - 1} rows to build, of 9 "
               f"derivatives x {math.comb(9, m)} shifts = {rep.rows} rows$")
    with pytest.raises(ValueError, match=message):
        psd_dimension(P, MeasureParams(r=1, m=m), row_cap=built - 1)


def test_restricted_psi7_nw_runs_far_past_its_row_count():
    """NW(3,7,2) restricted to ten alive variables keeps x1x8x15, x6x7x15
    and x1x11x14, and builds 896 rows at m = 10 under the default cap,
    though ``rows`` counts 21 * C(21, 10)."""
    P = restricted_nw(NWInstance(n=3, psi=7, D=2),
                      {1, 3, 4, 5, 6, 7, 8, 11, 14, 15})
    assert len(P.terms) == 3
    rep = psd_dimension(P, MeasureParams(r=1, m=10))
    assert (rep.phi, rep.cols, rep.rows) == (269269, 271271, 7407036)


@pytest.mark.parametrize("m", range(5, 11))
def test_unrestricted_nw_is_refused_where_it_was(m):
    """NW uses every variable and each derivative has survivors, so the
    rows built are all the rows: NW(3,7,2) is refused from m = 5 on, as when
    the cap counted every (gamma, S) pair."""
    P = nw_expand(NWInstance(n=3, psi=7, D=2))
    rows = 21 * math.comb(21, m)
    message = (f"row cap exceeded: {rows} > {DEFAULT_ROW_CAP} rows to build, "
               f"of 21 derivatives x {math.comb(21, m)} shifts = {rows} rows$")
    with pytest.raises(ValueError, match=message):
        psd_dimension(P, MeasureParams(r=1, m=m))


def test_row_cap_refuses_before_listing_too_many_survivors():
    """One term of degree 40 has C(40, 20) survivors at r = 20; the budget
    refuses before listing them."""
    P = SparsePolynomial(40, {tuple((v, 1) for v in range(40)): 1}, None)
    with pytest.raises(ValueError,
                       match=f"more than {DEFAULT_ROW_CAP} rows to build"):
        psd_dimension(P, MeasureParams(r=20, m=1))


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
    before = copy.deepcopy(int_rows)
    assert rank_exact(int_rows) == rank
    assert rank_mod(int_rows, 2 ** 61 - 1) <= rank
    assert int_rows == before


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
    before = copy.deepcopy(int_rows)
    rank = rank_mod(int_rows, p)
    assert rank == dense_rank_mod(dense, p)
    assert rank <= rank_exact(int_rows)
    assert int_rows == before


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
        # a reduction step leaves a nonzero row whose content p divides
        ([{1: 1, 0: 1}, {1: 1, 0: 1 + p}], 1),
    ]
    for rows, want in cases:
        dense = [[row.get(j, 0) for j in range(4)] for row in rows]
        before = copy.deepcopy(rows)
        assert dense_rank_mod(dense, p) == want
        assert rank_mod(rows, p) == want
        assert rows == before


def test_single_row_blocks():
    # a block of one row skips elimination: rank 1 over Q, and over GF(p)
    # only when an entry is nonzero mod p
    assert rank_exact([{0: 7}]) == 1
    assert rank_mod([{0: 7}], 7) == 0
    assert rank_mod([{0: 7}, {1: 3}], 7) == 1
    assert rank_mod([{0: 7, 1: 14, 2: 5}], 7) == 1


def test_empty_rows_have_rank_zero():
    # ranked explicitly, an empty row adds nothing, alone or among others
    for kernel in (rank_exact, functools.partial(rank_mod, p=7)):
        assert kernel([{}]) == 0
        assert kernel([{}, {0: 3}, {}]) == 1


def items(row):
    return sorted(row.items())


# survivor bases over four variables (distinct masks, nonzero ints) and
# shift masks; a shift may meet a survivor, which projects it away
bases_and_shifts = st.tuples(
    st.lists(st.dictionaries(st.integers(0, 15), st.integers(-3, 3).filter(bool),
                             min_size=1, max_size=4).map(
                                 lambda base: list(base.items())),
             min_size=1, max_size=6),
    st.lists(st.integers(0, 15), min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(bases_and_shifts)
@example(([], [0]))
# the third row meets the blocks of the first two and merges them
@example(([[(1, 1)], [(2, 5)], [(1, 2), (2, -1)]], [0, 4]))
def test_blocks_are_the_connected_components(case):
    bases, shifts = case
    col_ids = {}
    blocks = _blocks(bases, shifts, col_ids)
    rows, want_ids, components = blocks_by_search(bases, shifts)
    # the same column ids, in order of first appearance
    assert list(col_ids.items()) == list(want_ids.items())
    # the same nonempty rows
    assert sorted(items(row) for block, _ in blocks for row in block) == \
        sorted(map(items, rows))
    # each block is one component and lists its own column ids, each once
    want = {frozenset().union(*(rows[i] for i in component)):
            sorted(items(rows[i]) for i in component) for component in components}
    assert len(blocks) == len(want)
    for block, cols in blocks:
        assert len(cols) == len(set(cols))
        assert sorted(items(row) for row in block) == want[frozenset(cols)]


def test_an_impossible_phi_is_refused():
    for phi, rows, cols in ((5, 0, 0), (-2, 0, 7), (3, 2, 5), (3, 5, 2)):
        with pytest.raises(ValueError, match="rank outside matrix dimensions"):
            MeasureReport(phi, rows, cols, True)
    # the report of m > N: no shift, so no row
    assert MeasureReport(0, 0, 0, True).phi == 0


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


def test_multilinear_monomials_count():
    mons = list(multilinear_monomials(5, 2))
    assert len(mons) == 10
    assert all(len(m) == 2 for m in mons)
    assert len(set(mons)) == 10


@st.composite
def survivor_cases(draw):
    """A polynomial over 1-5 variables with exponents 0-3, mostly 0 and 1 so
    that most terms survive some derivative, and rational coefficients, r in
    0..3, and either all derivative monomials or an explicit list of them,
    repeats allowed."""
    N = draw(st.integers(1, 5))
    items = []
    for _ in range(draw(st.integers(0, 6))):
        c = draw(ENTRIES.filter(bool))
        exps = draw(st.lists(st.sampled_from((0, 0, 1, 1, 2, 3)),
                            min_size=N, max_size=N))
        items.append((c, [(v, e) for v, e in enumerate(exps) if e]))
    P = SparsePolynomial.from_terms(N, items)
    r = draw(st.integers(0, min(3, N)))
    monomials = None
    if draw(st.booleans()):
        monomials = tuple(draw(st.lists(
            st.sampled_from(list(multilinear_monomials(N, r))), max_size=5)))
    return P, r, monomials


@settings(max_examples=200, deadline=None)
@given(survivor_cases())
@example((SparsePolynomial.from_terms(
    3, [(Fraction(1, 2), [(0, 2), (1, 1)]), (Fraction(-2, 3), [(1, 1), (2, 1)]),
        (5, [(0, 3)])]), 1, None))
# the terms meet the derivatives out of order: x0 x2 before x1
@example((SparsePolynomial.from_terms(3, [(1, [(0, 1), (2, 1)]), (1, [(1, 1)])]),
          1, None))
def test_survivor_bases_match_repeated_derivatives(case):
    P, r, monomials = case
    gammas = monomials if monomials is not None else \
        list(multilinear_monomials(P.num_vars, r))
    assert _survivor_bases(P, r, monomials) == survivor_bases(P, gammas)


# x0...x39 at r = 20 with one listed gamma: testing every degree-20 gamma of
# the term would take C(40, 20) ~ 1.4e11 steps
ONE_LISTED_GAMMA_SCRIPT = """
from fewvar.algebra import SparsePolynomial, mon_make
from fewvar.measure import MeasureParams, psd_dimension
P = SparsePolynomial.from_terms(40, [(1, [(v, 1) for v in range(40)])])
gamma = mon_make((v, 1) for v in range(0, 40, 2))
rep = psd_dimension(P, MeasureParams(r=20, m=0, monomials=(gamma,)))
print(rep.phi, rep.cols, rep.rows)
"""


def test_listed_gamma_tests_only_the_listed_derivatives():
    """With explicit derivative monomials, each term is tested against the
    listed ones, not against every gamma of its degree.  The run is a
    child process with a timeout, so a regression fails instead of
    hanging."""
    res = subprocess.run([sys.executable, "-c", ONE_LISTED_GAMMA_SCRIPT],
                         capture_output=True, text=True, env=src_env(),
                         timeout=30)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["1", "1", "1"]


# x0...x39 at r = 20 and m = 41: C(40, 41) = 0 shifts, while listing the
# survivors of every degree-20 gamma would take C(40, 20) ~ 1.4e11 steps
NO_SHIFT_SCRIPT = """
from fewvar.algebra import SparsePolynomial
from fewvar.measure import MeasureParams, psd_dimension
P = SparsePolynomial.from_terms(40, [(1, [(v, 1) for v in range(40)])])
for rank_prime in (None, 2):
    rep = psd_dimension(P, MeasureParams(r=20, m=41, rank_prime=rank_prime))
    print(rep.phi, rep.rows, rep.cols, rep.exact)
"""


def test_more_shift_variables_than_variables_answers_at_once():
    """With m > N there is no shift set, so the measure is 0 over no rows
    and no columns, found without listing any derivative's survivors.  The
    run is a child process with a timeout, so a regression fails instead
    of hanging."""
    res = subprocess.run([sys.executable, "-c", NO_SHIFT_SCRIPT],
                         capture_output=True, text=True, env=src_env(),
                         timeout=30)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n") == ["0 0 0 True", "0 0 0 False", ""]


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
# rows computed them before the rank was split into blocks (psi=7 at m=3 by
# the block kernel before blocks were ranked one per symmetry orbit)
@pytest.mark.parametrize("rank_prime", [None, (1 << 61) - 1])
@pytest.mark.parametrize("n, psi, m, phi, cols", [
    (3, 5, 2, 1275, 1350),
    (3, 5, 3, 3000, 3000),
    (4, 5, 3, 21640, 35700),
    (3, 7, 3, 19887, 20286),
])
def test_nw_measure_pins(n, psi, m, phi, cols, rank_prime):
    P = nw_expand(NWInstance(n=n, psi=psi, D=2))
    rep = psd_dimension(P, MeasureParams(r=1, m=m, rank_prime=rank_prime))
    assert (rep.phi, rep.cols, rep.rows) == (phi, cols, n * psi * math.comb(n * psi, m))
    assert rep.exact == (rank_prime is None)


def wrap_kernels_and_builder(monkeypatch):
    """Wrap ``rank_exact`` and ``rank_mod`` by module-level name as
    ``perfbench/spans.py`` does: each reads its first argument through a
    one-shot iterator that calls ``.values()`` on every item.  Spy on
    ``_blocks`` too.  Returns the rows the kernels read and, per call of
    ``_blocks``, the number of rows it builds, one per base and shift."""
    import fewvar.measure as measure
    seen, built = [], []

    def read(rows):
        for row in rows:
            row.values()
            seen.append(row)
            yield row
    for name in ("rank_exact", "rank_mod"):
        def kernel(rows, *args, _kernel=getattr(measure, name)):
            return _kernel(read(rows), *args)
        monkeypatch.setattr(measure, name, kernel)

    def blocks(bases, shifts, col_ids, _builder=measure._blocks):
        built.append(len(bases) * len(shifts))
        return _builder(bases, shifts, col_ids)
    monkeypatch.setattr(measure, "_blocks", blocks)
    return seen, built


def nonempty_integer_rows(rows):
    return all(type(row) is dict and row and all(
        type(c) is int and c for c in row.values()) for row in rows)


@pytest.mark.parametrize("rank_prime", [None, (1 << 61) - 1])
def test_rank_kernels_receive_integer_rows(monkeypatch, rank_prime):
    seen, built = wrap_kernels_and_builder(monkeypatch)
    P = SparsePolynomial.from_terms(
        4, [(Fraction(1, 2), [(0, 1), (1, 1)]), (Fraction(-2, 3), [(1, 1), (2, 1)]),
            (Fraction(5, 6), [(2, 1), (3, 1)])])
    rep = psd_dimension(P, MeasureParams(r=1, m=1, rank_prime=rank_prime))
    assert rep.phi == brute_phi(P, 1, 1)
    # every variable is used: one builder call, one row per (gamma, S)
    assert built == [rep.rows]
    assert seen and nonempty_integer_rows(seen)


# ---------------------------------------------------------------------------
# one block per orbit of the variable permutations that fix P

def cyclic_group(gen):
    """The powers of the permutation ``gen`` of range(len(gen))."""
    g, out = list(range(len(gen))), []
    while not out or g != out[0]:
        out.append(g)
        g = [gen[v] for v in g]
    return out


def group_images(group, items):
    """The (coefficient, pairs) items mapped by each permutation of
    ``group``: their sum is fixed by the group."""
    return [(c, [(g[v], e) for v, e in mon]) for g in group for c, mon in items]


@st.composite
def planted_symmetry_cases(draw):
    """A polynomial over N <= 8 variables fixed by a random permutation
    group: a random term set summed over the group's images.  The group is
    generated by one or two random permutations, or by the first alone when
    the two generate more than 48 maps.  r <= 2, 1 <= m <= 3."""
    N = draw(st.integers(3, 8))
    gens = draw(st.lists(st.permutations(range(N)), min_size=1, max_size=2))
    group = {tuple(range(N))}
    todo = list(group)
    while todo and len(group) <= 48:
        g = todo.pop()
        for h in gens:
            gh = tuple(h[v] for v in g)
            if gh not in group:
                group.add(gh)
                todo.append(gh)
    if len(group) > 48:
        group = cyclic_group(gens[0])
    items = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(ENTRIES.filter(bool))
        exps = draw(st.lists(st.integers(0, 2), min_size=N, max_size=N))
        items.append((c, [(v, e) for v, e in enumerate(exps) if e]))
    P = SparsePolynomial.from_terms(N, group_images(group, items))
    return P, draw(st.integers(0, 2)), draw(st.integers(1, 3))


def measure_both_ways(P, params):
    """The report with the orbit step on every input and with it off, and
    the number of blocks ranked each way."""
    import fewvar.measure as measure
    reports = []
    for crossover in (0, math.inf):
        calls = []

        def block_rank(*args, _kernel=measure._block_rank):
            calls.append(args)
            return _kernel(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measure, "ORBIT_CROSSOVER", crossover)
            mp.setattr(measure, "_block_rank", block_rank)
            reports.append((psd_dimension(P, params), len(calls)))
    return reports


@settings(max_examples=60, deadline=None)
@given(case=planted_symmetry_cases(),
       rank_prime=st.sampled_from((None, 3, (1 << 61) - 1)))
def test_orbit_step_matches_the_block_kernel_and_brute_force(case, rank_prime):
    P, r, m = case
    params = MeasureParams(r=r, m=m, rank_prime=rank_prime)
    (on, ranked_on), (off, ranked_off) = measure_both_ways(P, params)
    assert (on.phi, on.cols, on.rows) == (off.phi, off.cols, off.rows)
    assert ranked_on <= ranked_off
    if rank_prime != 3 and math.comb(P.num_vars, r) * math.comb(
            P.num_vars, m) <= 400:
        assert on.phi == brute_phi(P, r, m)


def test_a_map_that_does_not_fix_p_is_refused(monkeypatch):
    # x0x3 + x1x4 + x2x5 is fixed by the rotation v -> v+1 mod 6, and with
    # it the orbit step ranks 3 of its 15 blocks at r = m = 1.  With one
    # coefficient changed the rotation no longer fixes it; a search that
    # still proposes the rotation is refused by the map check, every block
    # is ranked, and phi stays that of the block kernel and brute force.
    import fewvar.symmetry as symmetry
    rotation = {v: (v + 1) % 6 for v in range(6)}
    monkeypatch.setattr(symmetry, "symmetries", lambda P, A: [rotation])
    params = MeasureParams(r=1, m=1)
    items = group_images(cyclic_group([1, 2, 3, 4, 5, 0]), [(1, [(0, 1), (3, 1)])])
    P = SparsePolynomial.from_terms(6, items)
    (on, ranked_on), (off, ranked_off) = measure_both_ways(P, params)
    assert (on.phi, ranked_on, ranked_off) == (off.phi, 3, 15)
    P = SparsePolynomial.from_terms(6, items + [(1, [(0, 1), (3, 1)])])
    (on, ranked_on), (off, ranked_off) = measure_both_ways(P, params)
    assert on.phi == off.phi == brute_phi(P, 1, 1)
    assert ranked_on == ranked_off == 15


def test_listed_monomials_skip_the_orbit_step(monkeypatch):
    # the rotation fixes P but not the list {x0, x1}, so the rows are not
    # invariant under it: no search, and phi is brute force's
    import fewvar.measure as measure
    import fewvar.symmetry as symmetry

    def no_search(P, A):
        raise AssertionError("the symmetry search ran")
    monkeypatch.setattr(symmetry, "symmetries", no_search)
    monkeypatch.setattr(measure, "ORBIT_CROSSOVER", 0)
    P = SparsePolynomial.from_terms(6, group_images(
        cyclic_group([1, 2, 3, 4, 5, 0]),
        [(1, [(0, 1), (1, 1)]), (2, [(0, 2), (3, 1)])]))
    listed = (make_mon((0, 1)), make_mon((1, 1)))
    for m in (1, 2, 3):
        rep = psd_dimension(P, MeasureParams(r=1, m=m, monomials=listed))
        assert rep.phi == brute_phi(P, 1, m, listed)


# phi and cols of NW(3,5,2) with every variable outside ``alive`` set to
# zero, as one kernel call over all C(15, m) shifts computed them before
# the shifts were grouped by the absent variables they hold
@pytest.mark.parametrize("rank_prime", [None, (1 << 61) - 1])
@pytest.mark.parametrize("alive, m, phi, cols", [
    ((0, 1, 2, 4, 5, 7, 8, 10, 11, 13, 14), 2, 855, 1108),
    ((0, 1, 2, 4, 5, 7, 8, 10, 11, 13, 14), 3, 2502, 2794),
    ((0, 2, 3, 5, 6, 8, 9, 11, 12, 14), 2, 738, 898),
    ((0, 2, 3, 5, 6, 8, 9, 11, 12, 14), 3, 2252, 2492),
    ((1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 14), 2, 914, 1191),
    ((1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 14), 3, 2621, 2888),
    ((0, 1, 3, 5, 6, 9, 12, 13), 2, 516, 635),
    ((0, 1, 3, 5, 6, 9, 12, 13), 3, 1652, 1897),
])
def test_restricted_nw_measure_pins(alive, m, phi, cols, rank_prime):
    P = restricted_nw(NWInstance(n=3, psi=5, D=2), alive)
    rep = psd_dimension(P, MeasureParams(r=1, m=m, rank_prime=rank_prime))
    assert (rep.phi, rep.cols, rep.rows) == (phi, cols, 15 * math.comb(15, m))
    assert rep.exact == (rank_prime is None)


@pytest.mark.parametrize("rank_prime", [None, (1 << 61) - 1])
@pytest.mark.parametrize("m", [2, 3])
def test_rank_kernels_receive_one_block_per_absent_count(monkeypatch, m,
                                                         rank_prime):
    # P uses A = {x0..x3} of six variables, so z = 2 are absent; d/dx0
    # leaves no multilinear survivor and d/dx4, d/dx5 give zero, so three
    # derivatives have rows.  One block is built per k = |S & Z|, one row
    # per such derivative and (m-k)-subset of A, and the kernels rank its
    # components.
    seen, built = wrap_kernels_and_builder(monkeypatch)
    P = SparsePolynomial.from_terms(
        6, [(1, [(0, 3)]), (Fraction(1, 2), [(1, 1), (2, 1)]),
            (Fraction(-2, 3), [(2, 1), (3, 1)])])
    rep = psd_dimension(P, MeasureParams(r=1, m=m, rank_prime=rank_prime))
    assert rep.phi == brute_phi(P, 1, m)
    assert rep.cols == brute_cols(P, 1, m)
    assert rep.rows == 6 * math.comb(6, m)
    z = 2
    assert built == [3 * math.comb(4, m - k) for k in range(min(z, m) + 1)]
    assert seen and nonempty_integer_rows(seen)


@st.composite
def absent_variable_cases(draw):
    """A polynomial over 5 or 6 variables whose monomials use at most 4 of
    them, r in {0, 1, 2}, m in {0..3}, and either all derivative monomials
    or an explicit list of them, drawn over every variable, absent ones
    included."""
    N = draw(st.sampled_from((5, 6)))
    used = draw(st.lists(st.integers(0, N - 1), max_size=4, unique=True))
    items = []
    for _ in range(draw(st.integers(0, 4))):
        c = draw(ENTRIES.filter(bool))
        exps = draw(st.lists(st.integers(0, 2), min_size=len(used),
                             max_size=len(used)))
        items.append((c, [(v, e) for v, e in zip(used, exps) if e]))
    P = SparsePolynomial.from_terms(N, items)
    r = draw(st.integers(0, 2))
    m = draw(st.integers(0, 3))
    monomials = None
    if draw(st.booleans()):
        supports = draw(st.lists(
            st.lists(st.integers(0, N - 1), min_size=r, max_size=r,
                     unique=True), max_size=4))
        monomials = tuple(make_mon(*((v, 1) for v in sorted(supp)))
                          for supp in supports)
    return P, r, m, monomials


@settings(max_examples=60, deadline=None)
@given(case=absent_variable_cases(),
       rank_prime=st.sampled_from((None, (1 << 61) - 1)))
# z >= m and m > |A|: A = {x0, x1}, z = 4
@example(case=(ml(6, (0, 1)), 1, 3, None), rank_prime=None)
@example(case=(ml(6, (0, 1)), 1, 3, None), rank_prime=(1 << 61) - 1)
# the zero polynomial
@example(case=(SparsePolynomial.zero(5), 1, 2, None), rank_prime=None)
@example(case=(SparsePolynomial.zero(6), 0, 3, None), rank_prime=(1 << 61) - 1)
# a nonzero constant at r = 0: one row per shift, all independent
@example(case=(SparsePolynomial.from_terms(6, [(3, [])]), 0, 3, None),
         rank_prime=None)
@example(case=(SparsePolynomial.from_terms(5, [(Fraction(-2, 7), [])]), 0, 2,
               None), rank_prime=(1 << 61) - 1)
# explicit derivative monomials, among them absent variables
@example(case=(ml(5, (0,), (1, 2)), 1, 2,
               (make_mon((1, 1)), make_mon((3, 1)), make_mon((4, 1)))),
         rank_prime=None)
@example(case=(ml(6, (0, 2), (1, 2)), 2, 1,
               (make_mon((0, 1), (2, 1)), make_mon((2, 1), (5, 1)),
                make_mon((0, 1), (4, 1)))),
         rank_prime=(1 << 61) - 1)
def test_phi_with_absent_variables_matches_brute_force(case, rank_prime):
    P, r, m, monomials = case
    N = P.num_vars
    rep = psd_dimension(P, MeasureParams(r=r, m=m, monomials=monomials,
                                         rank_prime=rank_prime))
    assert rep.phi == brute_phi(P, r, m, monomials)
    assert rep.cols == brute_cols(P, r, m, monomials)
    gcount = math.comb(N, r) if monomials is None else len(monomials)
    assert rep.rows == gcount * math.comb(N, m)
    if r == 0 and monomials is None and set(P.terms) == {()}:
        assert rep.phi == rep.cols == math.comb(N, m)


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
        C, _ = random_circuit(rng, num_vars=8, max_terms=3, max_factors=3,
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


@pytest.mark.parametrize("p, trials", [
    (5.0, 0), (0.5, 0), (0.5, -3), (1.5, 20), (-0.1, 20), (float("nan"), 20),
])
def test_survival_refuses_nonsense_input(p, trials):
    """Fewer than one trial, or a probability outside [0, 1], is refused
    when the experiment is called, before any trial is drawn."""
    C = fcircuit(4, 2, [(0, 1)], [(2, 3)])
    match = "trials" if trials < 1 else "outside"
    with pytest.raises(ValueError, match=match):
        survival_experiment(C, 1, p, trials, 5)


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
    assert d.r == 1 and d.s == 0
    # eps2 = (1/1000) / eps1 = 1/100, so s = floor(sqrt(n) / 100)
    d = derive_measure_params(0, 10 ** 6, eps1=0.1)
    assert (d.r, d.s) == (100, 10)


def test_derive_measure_params_exact_floor_at_perfect_squares():
    # sqrt(n/1000) = k exactly, where float eps*sqrt(n) often lands just
    # below k
    for k in range(1, 200):
        d = derive_measure_params(0, 1000 * k * k)
        assert d.r == d.s == k
        d = derive_measure_params(0, 1000 * k * k - 1)
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
    return DerivedMeasure(nw=nw, r=r, s=s, m=m, log_p=math.log(p))


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
