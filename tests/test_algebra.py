"""Exact polynomial algebra: ring laws, symmetric functions, calculus,
primality, and the text format."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (checked, is_prime_trial, mon_mul, multilinear_project,
                     multiply_by_merge, translate_by_binomials)
from fewvar.algebra import (
    SparsePolynomial,
    bertrand_prime,
    ceil_real,
    coeffs_in_var,
    coerce,
    derivative_poly,
    esym_all,
    hom_component,
    int_floor_root,
    is_prime,
    mon_make,
    multiply_out,
    next_prime_at_least,
    parse_poly,
    scale_all_vars,
    serialize_poly,
    substitute,
    to_fraction,
    translate_poly,
)


def P_of(num_vars, *items, p=None):
    return SparsePolynomial.from_terms(num_vars, items, p)


def x(i, n=4):
    return SparsePolynomial(n, {((i, 1),): 1})


# ---------------------------------------------------------------------------
# monomials and field elements

def test_mon_make_canonicalizes():
    assert mon_make([(2, 1), (0, 3)]) == ((0, 3), (2, 1))
    assert mon_make([(1, 0), (2, 2)]) == ((2, 2),)
    assert mon_make([(0, 1), (0, 2)]) == ((0, 3),)
    with pytest.raises(ValueError):
        mon_make([(0, -1)])


@st.composite
def mon_pairs(draw):
    """Two monomials whose variables are ordered and disjoint (either way
    round), interleaved, overlapping, or one of them empty."""
    kind = draw(st.sampled_from(
        ("before", "after", "interleaved", "overlapping", "empty")))
    vs = sorted(draw(st.sets(st.integers(0, 12), min_size=3, max_size=8)))
    cut = draw(st.integers(1, len(vs) - 1))
    if kind in ("before", "after"):
        a, b = vs[:cut], vs[cut:]
    elif kind == "interleaved":
        a, b = vs[0::2], vs[1::2]
    elif kind == "overlapping":
        a, b = vs[:cut + 1], vs[cut:]
    else:
        a, b = vs, []
    if kind == "after" or (kind == "empty" and draw(st.booleans())):
        a, b = b, a
    return tuple(tuple((v, draw(st.integers(1, 3))) for v in vs)
                 for vs in (a, b))


def mon_mul_by_merge(a, b):
    acc = {}
    for v, e in a + b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


@settings(max_examples=300, deadline=None)
@given(mon_pairs())
def test_mon_mul_matches_dict_merge(pair):
    a, b = pair
    assert mon_mul(a, b) == mon_mul(b, a) == mon_mul_by_merge(a, b)


def test_gf_arithmetic_table():
    def c7(v):
        return SparsePolynomial.const(1, v, 7)

    a, b = c7(3), c7(5)
    assert a + b == c7(1)
    assert a - b == c7(5)
    assert a * b == c7(1)
    # 3/5 = 3 * 5^-1 = 3 * 3 = 2 (mod 7)
    assert coerce(Fraction(3, 5), 7) == 2
    assert a * c7(Fraction(1, 5)) == c7(2)
    assert -a == c7(4)
    assert P_of(1, (1, [(0, 6)]), p=7).eval_at([3]) == 1
    assert c7(7).is_zero() and c7(7) == SparsePolynomial.zero(1, 7)


def test_gf_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        SparsePolynomial.const(1, 1, 5) + SparsePolynomial.const(1, 1, 7)
    with pytest.raises(ValueError):
        SparsePolynomial.const(1, 1, 5) * SparsePolynomial.const(1, 2)


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        SparsePolynomial.from_terms(1, [(1, [(0, 1)])], 6)
    with pytest.raises(ValueError):
        SparsePolynomial.from_terms(1, [(1, [(0, 1)])], 1)


# ---------------------------------------------------------------------------
# ring laws

coeffs = st.integers(min_value=-4, max_value=4)
exps = st.integers(min_value=0, max_value=3)


@st.composite
def polys(draw, num_vars=3):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    items = []
    for _ in range(n_terms):
        c = draw(coeffs)
        mon = [(v, draw(exps)) for v in range(num_vars)]
        items.append((Fraction(c), [(v, e) for v, e in mon if e]))
    return SparsePolynomial.from_terms(num_vars, items)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert checked(a + b) == b + a
    assert checked(a * b) == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert checked(a * (b + c)) == checked(a * b + a * c)
    assert a + SparsePolynomial.zero(3) == a
    assert checked(a - a) == SparsePolynomial.zero(3)
    assert checked(a.scale(Fraction(-2, 3))) == a * SparsePolynomial.const(
        3, Fraction(-2, 3))


def test_hom_component_examples():
    P = x(0) * x(1) + x(0) + SparsePolynomial.const(4, 1)
    assert hom_component(P, 1) == x(0)
    assert hom_component(P, 0) == SparsePolynomial.const(4, 1)
    assert hom_component(P, 3).is_zero()


# ---------------------------------------------------------------------------
# GF(p) arithmetic against reduction mod p of the integer results

GF_PRIMES = (2, 3, 5, 7, 97)
wide_coeffs = st.integers(min_value=-300, max_value=300)


@st.composite
def int_polys(draw, num_vars=3):
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        mon = [(v, draw(exps)) for v in range(num_vars)]
        items.append((draw(wide_coeffs), [(v, e) for v, e in mon if e]))
    return SparsePolynomial.from_terms(num_vars, items)


def reduce_mod(P, p):
    """The image of an integer polynomial in GF(p), reduced term by term."""
    return {m: c % p for m, c in P.terms.items() if c % p}


def as_gf(P, p):
    return SparsePolynomial(P.num_vars, dict(P.terms), p)


def assert_gf_coeffs(G, p):
    assert all(type(c) is int and 0 <= c < p for c in G.terms.values())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GF_PRIMES), int_polys(), int_polys(),
       st.integers(min_value=0, max_value=2),
       st.integers(min_value=1, max_value=3),
       st.lists(wide_coeffs, min_size=3, max_size=3))
def test_gf_operations_are_reduction_of_integer_results(p, A, B, var, order,
                                                       point):
    Ap, Bp = as_gf(A, p), as_gf(B, p)
    assert Ap.terms == reduce_mod(A, p)
    order = min(order, p - 1)
    pairs = [
        (Ap + Bp, A + B),
        (Ap - Bp, A - B),
        (Ap * Bp, A * B),
        (derivative_poly(Ap, var, order), derivative_poly(A, var, order)),
        (substitute(Ap, var, point[0]), substitute(A, var, point[0])),
        (translate_poly(Ap, point), translate_poly(A, point)),
        (scale_all_vars(Ap, point[1]), scale_all_vars(A, point[1])),
    ]
    for got, want in pairs:
        checked(got)
        checked(want)
        assert got.field_p == p
        assert_gf_coeffs(got, p)
        assert got.terms == reduce_mod(want, p)
    value = Ap.eval_at(point)
    assert type(value) is int and value == A.eval_at(point) % p


# ---------------------------------------------------------------------------
# products and translation against evaluation, which multiplies no
# polynomials

@st.composite
def field_polys(draw, p, num_vars=3):
    """A polynomial over Q (p None) or GF(p) with rational coefficients of
    small denominator."""
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        mon = [(v, draw(exps)) for v in range(num_vars)]
        c = Fraction(draw(wide_coeffs), draw(st.integers(min_value=1, max_value=6)))
        items.append((c, [(v, e) for v, e in mon if e]))
    return SparsePolynomial.from_terms(num_vars, items, p)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_product_and_translation_agree_with_evaluation(data):
    p = data.draw(st.sampled_from((None, 7, 97)))
    A, B = data.draw(field_polys(p)), data.draw(field_polys(p))
    point, shift = (data.draw(st.lists(wide_coeffs, min_size=3, max_size=3))
                    for _ in range(2))
    assert checked(A * B).eval_at(point) == \
        coerce(A.eval_at(point) * B.eval_at(point), p)
    # the product comes out reduced, with no zero coefficient
    prod = multiply_out([(1, (A.terms.items(), B.terms.items()))], p)
    assert SparsePolynomial(3, prod, p).terms == prod
    moved = [u + a for u, a in zip(point, shift)]
    T = checked(translate_poly(A, shift))
    assert T.eval_at(point) == A.eval_at(moved)
    assert T.degree() == A.degree()


# ---------------------------------------------------------------------------
# the packed product loop and Taylor shift against oracles that do not pack

# exponents whose sums cross powers of two: 7 + 9 = 16, 8 + 8, 15 + 1, 3 + 1
packed_exps = st.sampled_from((1, 2, 3, 7, 8, 9, 15, 16))
shift_exps = st.sampled_from((1, 2, 3, 4, 7, 8))


def field_coeffs(p):
    """Nonzero coefficients in the field's normal form."""
    if p is not None:
        return st.integers(1, p - 1)
    return st.one_of(st.integers(-5, 5).filter(bool),
                     st.builds(Fraction, st.integers(-5, 5).filter(bool),
                               st.integers(2, 4)))


@st.composite
def term_maps(draw, p, num_vars, exps):
    """A term map of up to three terms on the low and the high variables,
    so that with 70 or more variables a packed key passes one machine
    word; now and then empty (a zero factor) or a constant."""
    pool = sorted({0, 1, 2, num_vars - 2, num_vars - 1})
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        vs = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
        mon = tuple(sorted((v, draw(exps)) for v in vs))
        terms[mon] = draw(field_coeffs(p))
    return terms


def as_pairs(products):
    """``products`` as ``multiply_out`` takes them, each term map a tuple
    of its (monomial, coefficient) pairs, one tuple per distinct map; the
    oracle ``multiply_by_merge`` takes the maps."""
    pairs = {}
    return [(mult, [pairs.setdefault(id(m), tuple(m.items())) for m in maps])
            for mult, maps in products]


def normal_nonzero(terms, p):
    return all(c and (p is None or type(c) is int and 0 < c < p)
               for c in terms.values())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multiply_out_matches_the_tuple_merge(data):
    """Sums of products of a few shared term maps, some repeated in one
    product, with empty products (the multiplier alone), and now and then
    the first product again with the opposite multiplier, so that it
    cancels."""
    p = data.draw(st.sampled_from((None, 7, 97)))
    n = data.draw(st.sampled_from((3, 12, 70, 130)))
    pool = [data.draw(term_maps(p, n, packed_exps)) for _ in range(3)]
    products = []
    for _ in range(data.draw(st.integers(0, 3))):
        picks = data.draw(st.lists(st.integers(0, 2), max_size=4))
        products.append((data.draw(field_coeffs(p)), [pool[i] for i in picks]))
    if products and data.draw(st.booleans()):
        mult, maps = products[0]
        products.append((-mult if p is None else p - mult, maps))
    got = multiply_out(as_pairs(products), p)
    assert got == multiply_by_merge(products, p)
    assert normal_nonzero(got, p)


def test_packed_products_carry_into_no_other_variable():
    """Exponent sums that fill a field to the next power of two, on the
    first and the last of 80 variables; a zero factor; a constant factor;
    an empty product; and a product that cancels to zero."""
    for p in (None, 7, 97):
        A = {((0, 7), (79, 1)): 1, ((1, 8),): 2}
        B = {((0, 9), (79, 15)): 3, ((1, 8),): coerce(-2, p), (): 5}
        C = {(): coerce(Fraction(1, 2), p)}
        minus = coerce(-1, p)
        for products in ([(1, [A, B])], [(2, [A, B, C, A])], [(1, [A, {}, B])],
                         [(3, [])], [(1, [A, B]), (minus, [B, A])],
                         [(1, [B, B, B])]):
            got = multiply_out(as_pairs(products), p)
            assert got == multiply_by_merge(products, p)
            assert normal_nonzero(got, p)
        assert multiply_out(as_pairs([(1, [A, B]), (minus, [B, A])]), p) == {}
        assert multiply_out(as_pairs([(1, [A, {}, B])]), p) == {}
        assert multiply_out([(3, [])], p) == {(): 3}
        assert multiply_out([], p) == {}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_translate_poly_matches_the_binomial_expansion(data):
    """The shift on packed keys against a term-by-term binomial expansion
    on tuples, with exponents that fill a field (7) or pass a power of two
    (8), on up to 130 variables."""
    p = data.draw(st.sampled_from((None, 7, 97)))
    n = data.draw(st.sampled_from((3, 12, 70, 130)))
    P = SparsePolynomial(n, data.draw(term_maps(p, n, shift_exps)), p)
    shift = [0] * n
    for v in data.draw(st.lists(st.integers(0, n - 1), max_size=6)):
        shift[v] = data.draw(shift_values)
    T = checked(translate_poly(P, shift))
    assert T == translate_by_binomials(P, shift)
    assert normal_nonzero(T.terms, p)


# ---------------------------------------------------------------------------
# elementary symmetric polynomials

def brute_esym(inputs, l, num_vars):
    total = SparsePolynomial.zero(num_vars)
    for combo in itertools.combinations(inputs, l):
        prod = SparsePolynomial.const(num_vars, 1)
        for f in combo:
            prod = prod * f
        total = total + prod
    return total


def test_esym_degenerate_cases():
    vs = [x(i) for i in range(3)]
    assert esym_all(vs, 0)[0] == SparsePolynomial.const(4, 1)
    assert esym_all(vs, 4)[4].is_zero()
    assert esym_all(vs, 2)[2] == x(0) * x(1) + x(0) * x(2) + x(1) * x(2)


def test_esym_matches_subset_enumeration():
    inputs = [x(0) + x(1), x(1) * x(2), x(2) - SparsePolynomial.const(4, 2),
              x(3) * x(3), x(0)]
    for l in range(len(inputs) + 2):
        assert checked(esym_all(inputs, l))[l] == brute_esym(inputs, l, 4)


def test_esym_all_prefix_consistency():
    inputs = [x(0), x(1) + x(2), x(3)]
    table = esym_all(inputs, 3)
    for l in range(4):
        assert table[l] == esym_all(inputs, l)[l]


# ---------------------------------------------------------------------------
# calculus and projections

def test_translate_poly_example():
    P = x(0, 2) * x(1, 2)
    T = translate_poly(P, [Fraction(1), Fraction(2)])
    assert T == P_of(2, (1, [(0, 1), (1, 1)]), (2, [(0, 1)]),
                     (1, [(1, 1)]), (2, []))
    assert translate_poly(T, [Fraction(-1), Fraction(-2)]) == P


shift_values = st.one_of(
    st.just(0), st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((None, 7, 97)), st.lists(st.tuples(
           st.integers(-6, 6), st.lists(st.integers(0, 4), min_size=3,
                                        max_size=3)), max_size=5),
       st.lists(shift_values, min_size=3, max_size=3),
       st.sampled_from(("as drawn", "zero", "one variable")))
def test_translate_poly_matches_ring_operations(p, items, shift, which):
    P = P_of(3, *[(Fraction(c, 2) if p is None else c, list(enumerate(es)))
                  for c, es in items], p=p)
    if which == "zero":
        shift = [0, 0, 0]
    elif which == "one variable":
        shift = [0, shift[1], 0]
    T = checked(translate_poly(P, shift))
    assert T == translate_by_binomials(P, shift)
    assert T.degree() == P.degree()
    assert checked(translate_poly(T, [-v for v in shift])) == P
    if p is not None:
        assert all(type(c) is int and 0 < c < p for c in T.terms.values())


def test_derivative_poly_orders():
    P = P_of(2, (1, [(0, 3), (1, 1)]), (2, [(0, 1)]))
    assert checked(derivative_poly(P, 0)) == \
        P_of(2, (3, [(0, 2), (1, 1)]), (2, []))
    assert checked(derivative_poly(P, 0, 2)) == P_of(2, (6, [(0, 1), (1, 1)]))
    assert derivative_poly(P, 1, 2).is_zero()


def test_derivative_gf_high_order_rejected():
    P = SparsePolynomial.from_terms(1, [(1, [(0, 6)])], 5)
    with pytest.raises(ValueError):
        derivative_poly(P, 0, 5)


def test_multilinear_project():
    P = P_of(2, (1, [(0, 2), (1, 1)]), (3, [(0, 1), (1, 1)]), (5, []))
    sig = multilinear_project(P)
    assert sig == P_of(2, (3, [(0, 1), (1, 1)]), (5, []))
    assert multilinear_project(sig) == sig


@settings(max_examples=30, deadline=None)
@given(polys(), polys())
def test_multilinear_project_linear(a, b):
    assert multilinear_project(a + b) == \
        multilinear_project(a) + multilinear_project(b)


def test_substitute_and_coeffs():
    P = P_of(2, (1, [(0, 2), (1, 1)]), (1, [(0, 1)]), (5, []))
    assert checked(substitute(P, 0, Fraction(2))) == \
        P_of(2, (4, [(1, 1)]), (7, []))
    cs = checked(coeffs_in_var(P, 0))
    assert len(cs) == 3
    assert cs[0] == SparsePolynomial.const(2, 5)
    assert cs[1] == SparsePolynomial.const(2, 1)
    assert cs[2] == x(1, n=2)


def test_to_fraction_reads_floats_by_their_shortest_repr():
    assert to_fraction(0.1) == Fraction(1, 10)
    assert to_fraction(1 / 3) == Fraction("0.3333333333333333")
    assert to_fraction(-2.5) == Fraction(-5, 2)
    assert to_fraction(3) == 3 and type(to_fraction(3)) is Fraction
    assert to_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert to_fraction("3/4") == Fraction(3, 4)


# ---------------------------------------------------------------------------
# primes

def test_is_prime_matches_trial_division():
    for n in range(-3, 2000):
        assert is_prime(n) == is_prime_trial(n), n


def test_is_prime_large_known_values():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)          # 193707721 * 761838257287
    assert is_prime(10 ** 30 + 57)
    assert not is_prime(10 ** 30 + 27)
    # psi_12 and psi_13: the least strong pseudoprimes to the first twelve
    # and thirteen prime bases, so Miller-Rabin to the twelve witnesses
    # passes both and only the strong Lucas test finds them composite
    psi12, psi13 = 318665857834031151167461, 3317044064679887385961981
    assert psi12 == 399165290221 * 798330580441
    assert psi13 == 1287836182261 * 2575672364521
    assert not is_prime(psi12)
    assert not is_prime(psi13)


def strong_to_base_2(n):
    """Whether odd n > 2 passes the strong probable-prime test to base 2,
    from the definition: 2^d = 1 or 2^(d 2^r) = -1 mod n for some r < s,
    where n - 1 = d 2^s with d odd."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(2, d, n) == 1 or any(
        pow(2, d << r, n) == n - 1 for r in range(s))


def test_is_prime_below_two_to_the_64_is_baillie_psw():
    """Below 2^64 is_prime runs Miller-Rabin to base 2 alone before the
    strong Lucas test.  Each composite here is a strong pseudoprime to
    base 2, and the first to every base from 2 to 23, so only the Lucas
    test refuses them."""
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    assert 3215031751 == 151 * 751 * 28351
    for n in (3825123056546413051, 3215031751, 2047, 3277, 4033, 4681, 8321):
        assert strong_to_base_2(n), n
        assert not is_prime(n), n
    # the primes on either side of 2^64: below it base 2 and the Lucas
    # test decide, from it on all twelve bases and the Lucas test
    assert is_prime(2 ** 64 - 59)
    assert is_prime(2 ** 64 + 13)
    assert not any(is_prime(n) for n in range(2 ** 64 - 58, 2 ** 64 + 13))


def test_is_prime_refuses_every_base_2_strong_pseudoprime_below_10_to_the_5():
    """The composites that pass base 2, found from the definition and
    checked composite by trial division."""
    spsp = [n for n in range(3, 10 ** 5, 2)
            if strong_to_base_2(n) and not is_prime_trial(n)]
    assert spsp[:5] == [2047, 3277, 4033, 4681, 8321]
    assert not any(is_prime(n) for n in spsp)


def test_bertrand_prime_examples():
    assert bertrand_prime(32, 64) == 37
    assert bertrand_prime(100, 200) == 101
    assert bertrand_prime(1, 2) == 2


def test_bertrand_prime_is_minimal_and_verified():
    for lo in (10, 50, 90):
        p = bertrand_prime(lo, 2 * lo)
        assert is_prime_trial(p)
        assert all(not is_prime_trial(m) for m in range(lo + 1, p))


def test_bertrand_prime_rejects_short_window():
    with pytest.raises(ValueError):
        bertrand_prime(10, 15)


def test_next_prime_at_least():
    assert next_prime_at_least(8) == 11
    assert next_prime_at_least(7) == 7
    assert next_prime_at_least(1) == 2


def test_int_floor_root():
    assert int_floor_root(4096, 12) == 2
    assert int_floor_root(4095, 12) == 1
    assert int_floor_root(10 ** 24, 2) == 10 ** 12
    for v in (0, 1, 63, 64, 65, 5 ** 9):
        k = 3
        r = int_floor_root(v, k)
        assert r ** k <= v < (r + 1) ** k


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(2, 10 ** 30))
@settings(max_examples=200, deadline=None)
def test_ceil_real_matches_exact_ceiling(p, q):
    if p % q == 0:
        p += 1
    assert ceil_real(lambda ctx: ctx.mpf(p) / q) == math.ceil(Fraction(p, q))


def test_ceil_real_refuses_an_integer_value():
    # ln 8 / ln 2 = 3 exactly, so no interval around it separates
    with pytest.raises(ArithmeticError, match="no certified ceiling"):
        ceil_real(lambda ctx: ctx.log(8) / ctx.log(2))


# ---------------------------------------------------------------------------
# text format

def test_poly_round_trip():
    P = P_of(3, (Fraction(-3, 7), [(0, 1), (2, 4)]), (2, [(1, 1)]), (1, []))
    assert checked(parse_poly(serialize_poly(P))) == P


def test_poly_round_trip_gf():
    P = SparsePolynomial.from_terms(
        2, [(4, [(0, 2)]), (1, [])], 11)
    assert checked(parse_poly(serialize_poly(P))) == P


def test_parse_poly_accepts_comments_and_merges():
    text = "\n".join([
        "# free-form note",
        "vars=2 field=Q",
        "coeff 1/2 ; 0:1   # inline note",
        "coeff 1/2 ; 0:1",
        "coeff 3 ;",
    ])
    assert checked(parse_poly(text)) == P_of(2, (1, [(0, 1)]), (3, []))


def test_parse_poly_error_carries_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_poly("vars=2 field=Q\ncoeff 1 ; 0:1\ncoeff nope ; 1:1")
    with pytest.raises(ValueError, match="line 1: .*prime"):
        parse_poly("vars=2 field=GF(8)\ncoeff 1 ;")
    with pytest.raises(ValueError, match="line 1: .*field"):
        parse_poly("vars=2 field=R\ncoeff 1 ;")
    with pytest.raises(ValueError, match="line 1: .*'x'"):
        parse_poly("vars=x field=Q\ncoeff 1 ;")
    with pytest.raises(ValueError,
                       match="line 2: variable 5 out of range for num_vars=2"):
        parse_poly("vars=2 field=Q\ncoeff 1 ; 5:1")
    with pytest.raises(ValueError, match="line 3: negative exponent"):
        parse_poly("vars=2 field=Q\ncoeff 1 ; 0:1\ncoeff 1 ; 1:-1")


SPACES = st.sampled_from(("", " ", "  ", "\t", " \t "))


@st.composite
def coeff_documents(draw):
    """A `.poly` document of generated `coeff` lines, over Q or GF(7), and
    its term map built from the drawn numbers, not from the text.  The
    lines hold signed ints, a/b, zero coefficients, v:0 tokens, repeated
    variables and 0-3 tokens, with extra whitespace around the parts."""
    p = draw(st.sampled_from((None, 7)))
    num_vars = draw(st.integers(1, 3))
    lines, want = [f"vars={num_vars} field={'Q' if p is None else 'GF(7)'}"], {}
    for _ in range(draw(st.integers(0, 5))):
        num = draw(st.integers(-9, 9))
        den = draw(st.one_of(st.none(), st.sampled_from((1, 2, 3, 4, 6))))
        if den is None:
            c, text = num, draw(st.sampled_from(("", "+"))) * (num >= 0) + str(num)
        else:
            c, text = Fraction(num, den), f"{num}/{den}"
        if p is not None:
            c = c.numerator * pow(c.denominator, -1, p) % p
        pairs = draw(st.lists(st.tuples(st.integers(0, num_vars - 1),
                                        st.integers(0, 3)), max_size=3))
        sep = draw(st.sampled_from((" ", "  ", "\t", " \t ")))
        tokens = "".join(f"{sep}{v}:{e}" for v, e in pairs)
        lines.append(f"coeff {draw(SPACES)}{text}{draw(SPACES)};{tokens}{draw(SPACES)}")
        exps = {}
        for v, e in pairs:
            exps[v] = exps.get(v, 0) + e
        mon = tuple(sorted((v, e) for v, e in exps.items() if e))
        want[mon] = want.get(mon, 0) + c
    if p is not None:
        want = {mon: c % p for mon, c in want.items()}
    return "\n".join(lines), p, {mon: c for mon, c in want.items() if c}


@settings(max_examples=300, deadline=None)
@given(coeff_documents())
def test_parse_poly_reads_generated_coeff_lines(case):
    """The one `coeff`-line reader, its short path for an integer and a
    monomial of at most one token included, against the drawn terms:
    the same coefficients, each of the same type (an int stays an int
    over Q)."""
    text, p, want = case
    P = checked(parse_poly(text))
    assert P.field_p == p
    assert P.terms == want
    assert {m: type(c) for m, c in P.terms.items()} == \
        {m: type(c) for m, c in want.items()}


def test_parse_poly_drops_a_zero_exponent_even_out_of_range():
    """`v:0` contributes nothing, so an index past the variables is not
    refused, as before the short path; a negative index still is."""
    assert checked(parse_poly("vars=2 field=Q\ncoeff 3 ; 5:0")) == P_of(2, (3, []))
    assert checked(parse_poly("vars=2 field=Q\ncoeff 3 ; 5:0 1:1")) == \
        P_of(2, (3, [(1, 1)]))
    with pytest.raises(ValueError, match="line 2: negative variable index -1"):
        parse_poly("vars=2 field=Q\ncoeff 3 ; -1:0")


def test_serialize_poly_is_graded_lex_descending():
    P = P_of(2, (1, []), (1, [(0, 1), (1, 1)]), (1, [(1, 1)]))
    lines = serialize_poly(P).splitlines()
    assert lines[1:] == ["coeff 1 ; 0:1 1:1", "coeff 1 ; 1:1", "coeff 1 ;"]
