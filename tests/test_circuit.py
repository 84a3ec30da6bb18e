"""Circuit representation, transforms against the polynomial-level oracle,
the homogenization identity, and the document format."""

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fewvar.algebra import (
    SparsePolynomial,
    coeffs_in_var,
    derivative_poly,
    hom_component,
    multiply_out,
    substitute,
    translate_poly,
)
import fewvar.circuit as circuit_module
from fewvar.circuit import (
    FactorPoly,
    FewVarCircuit,
    _degree_above,
    _substitute_factor,
    class_check,
    coeff_circuits,
    derivative_circuit,
    eval_circuit,
    expand_circuit,
    expands_to,
    hom_component_circuit,
    homogenize,
    normalize_constants,
    parse_circuit,
    random_circuit,
    restrict_circuit,
    transform_audit,
    translate_circuit,
)
from fewvar.rng import named_rng
from helpers import (GF7_CIRCUIT, checked, embed, expand_by_merge,
                     over_field, serialize_circuit)

GOLDEN = Path(__file__).resolve().parent / "golden"


def fp(support, *items, p=None):
    poly = SparsePolynomial.from_terms(len(support), items, p)
    return FactorPoly(support=tuple(support), poly=poly)


def small_circuit():
    # (x0*x1 + 1) * x2  -  2 * (x1 + 3*x3^2)
    return FewVarCircuit(
        num_vars=4,
        terms=[
            (Fraction(1), (fp((0, 1), (1, [(0, 1), (1, 1)]), (1, [])),
                           fp((2,), (1, [(0, 1)])))),
            (Fraction(-2), (fp((1, 3), (1, [(0, 1)]), (3, [(1, 2)])),)),
        ],
        declared_s=2,
        k=2,
    )


@pytest.fixture
def C():
    return small_circuit()


def test_factor_support_must_be_sorted():
    with pytest.raises(ValueError):
        FactorPoly(support=(3, 1), poly=SparsePolynomial.zero(2))


def test_declared_s_enforced():
    with pytest.raises(ValueError):
        FewVarCircuit(num_vars=4, terms=[
            (Fraction(1), (fp((0, 1, 2), (1, [(0, 1)])),)),
        ], declared_s=2)


def test_checked_catches_a_skipped_check_or_normalization():
    """The rebuild helper fails on what a private constructor must never
    build: a variable or factor out of range, a factor polynomial over the
    wrong number of variables, a zero coefficient kept, or a coefficient
    or scale left unreduced mod p."""
    def raw(cls, **fields):
        obj = object.__new__(cls)
        vars(obj).update(fields)
        return obj

    with pytest.raises(ValueError, match="out of range"):
        checked(raw(SparsePolynomial, num_vars=1, terms={((1, 1),): 1},
                    field_p=None))
    for terms, p in (({((0, 1),): 0}, None), ({(): 9}, 7)):
        with pytest.raises(AssertionError):
            checked(raw(SparsePolynomial, num_vars=1, terms=terms, field_p=p))
    with pytest.raises(ValueError, match="factor polynomial has"):
        checked(raw(FactorPoly, support=(0, 1), poly=SparsePolynomial.zero(1)))
    f = fp((0, 1), (1, [(0, 1)]), p=7)
    with pytest.raises(ValueError, match="exceeds declared_s"):
        checked(raw(FewVarCircuit, num_vars=2, terms=((1, (f,)),),
                    declared_s=1, field_p=7, k=None))
    with pytest.raises(AssertionError):
        checked(raw(FewVarCircuit, num_vars=2, terms=((9, (f,)),),
                    declared_s=2, field_p=7, k=None))


def test_eval_matches_expansion(C):
    P = checked(expand_circuit(C))
    for point in ([0, 0, 0, 0], [1, 2, 3, 4], [Fraction(1, 2), 1, -1, 2]):
        assert eval_circuit(C, point) == P.eval_at(point)


@st.composite
def field_circuit_points(draw):
    """A circuit over Q, GF(7) or GF(97) with int and Fraction scales,
    factors whose coefficients are all ints, all Fractions or a mix of the
    two (so ``integer_form`` takes both of its paths), scale-0 terms,
    constant and zero factors, and sometimes no terms at all; and points
    of ints and Fractions, whose denominators over GF(p) are prime to p."""
    p = draw(st.sampled_from((None, 7, 97)))
    num_vars = draw(st.integers(1, 4))
    dens = st.integers(1, 9).filter(lambda d: p is None or d % p)
    ints = st.integers(-4, 4)
    rationals = st.builds(Fraction, ints, dens)
    mixed = st.one_of(ints, rationals)
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        factors = []
        for _ in range(draw(st.integers(0, 3))):
            support = tuple(sorted(draw(st.sets(
                st.integers(0, num_vars - 1), max_size=2))))
            coefficients = draw(st.sampled_from((ints, rationals, mixed)))
            items = [(draw(coefficients),
                      [(v, e) for v in range(len(support))
                       if (e := draw(st.integers(0, 3)))])
                     for _ in range(draw(st.integers(0, 3)))]
            factors.append(fp(support, *items, p=p))
        terms.append((draw(mixed), tuple(factors)))
    C = FewVarCircuit(num_vars, tuple(terms), 2, p)
    coordinate = st.one_of(st.integers(-5, 5), rationals)
    points = draw(st.lists(st.lists(coordinate, min_size=num_vars,
                                    max_size=num_vars), min_size=1, max_size=4))
    return C, points


@settings(max_examples=300, deadline=None)
@given(field_circuit_points())
def test_eval_circuit_matches_expansion(case):
    """The one circuit evaluator against evaluating the expansion, and,
    since both read the one compiled form, the expansion against the
    oracle ``expand_by_merge``, which does not."""
    C, points = case
    P, Q = checked(expand_circuit(C)), expand_by_merge(C)
    assert P == Q
    assert expands_to(C, Q)
    for point in points:
        got = eval_circuit(C, point)
        if C.field_p is None:
            assert type(got) is Fraction
        else:
            assert type(got) is int and 0 <= got < C.field_p
        assert got == P.eval_at(point)


def test_eval_circuit_refuses_a_denominator_divisible_by_p():
    C = parse_circuit(GF7_CIRCUIT)
    for point in ((Fraction(1, 7), 1, 2), (0, 0, Fraction(3, 14))):
        with pytest.raises(ZeroDivisionError):
            eval_circuit(C, point)
    assert eval_circuit(C, (Fraction(1, 2), 1, 2)) == \
        expand_circuit(C).eval_at((Fraction(1, 2), 1, 2))


def test_expand_known_value(C):
    P = checked(expand_circuit(C))
    expected = SparsePolynomial.from_terms(4, [
        (1, [(0, 1), (1, 1), (2, 1)]),
        (1, [(2, 1)]),
        (-2, [(1, 1)]),
        (-6, [(3, 2)]),
    ])
    assert P == expected


def test_expand_cap_refuses_blowup():
    big = FewVarCircuit(num_vars=12, terms=[
        (Fraction(1), tuple(
            fp((i,), (1, [(0, 1)]), (1, [])) for i in range(12))),
    ], declared_s=1)
    with pytest.raises(ValueError, match="expand"):
        expand_circuit(big, cap=100)



def test_expand_cap_counts_every_term():
    # one product of two two-term factors, 4 terms, repeated in 30 terms:
    # the estimate counts every copy, whether their scales add up or cancel
    fs = (fp((0,), (1, [(0, 1)]), (1, [])), fp((1,), (1, [(0, 1)]), (2, [])))
    for scales in ([1] * 30, [1, -1] * 15):
        C = FewVarCircuit(2, tuple((c, fs) for c in scales), 1)
        with pytest.raises(ValueError) as info:
            expand_circuit(C, cap=100)
        assert str(info.value) == \
            "too large to expand: estimated 120 terms > cap 100"
        assert expand_circuit(C, cap=120) == expand_by_merge(C)

def test_normalize_constants():
    C = FewVarCircuit(num_vars=2, terms=[
        (Fraction(1), (fp((0,), (2, [(0, 1)]), (3, [])),
                       fp((1,), (1, [(0, 1)])))),
        (Fraction(5), (fp((0,), (0, [])),)),      # zero factor kills the term
    ], declared_s=1)
    N = checked(normalize_constants(C))
    assert len(N.terms) == 1
    scale, factors = N.terms[0]
    assert scale == Fraction(3)
    assert factors[0].poly.constant_term() == Fraction(1)
    assert expand_circuit(N) == expand_circuit(C)


def test_normalize_absorbs_constant_factor():
    C = FewVarCircuit(num_vars=2, terms=[
        (Fraction(2), (fp((0,), (7, [])), fp((1,), (1, [(0, 1)])))),
    ], declared_s=1)
    N = checked(normalize_constants(C))
    assert expand_circuit(N) == expand_circuit(C)
    assert all(not f.poly.is_zero() for _, fs in N.terms for f in fs)


# ---------------------------------------------------------------------------
# transforms against the polynomial oracle

def test_coeff_circuits_identity(C):
    P = expand_circuit(C)
    for y in range(4):
        pieces = checked(coeff_circuits(C, y))
        assert len(pieces) == C.k + 1
        expected = coeffs_in_var(P, y)
        for i, piece in enumerate(pieces):
            want = expected[i] if i < len(expected) else \
                SparsePolynomial.zero(4)
            assert expand_circuit(piece) == want
            assert piece.top_fanin <= C.top_fanin * (C.k + 1)


def missing_terms_held_once(C):
    """For every y: each term of C that misses y is in the y^0 coefficient
    circuit once, ahead of the rest, as the same scale and factor objects,
    and in no other coefficient circuit; the y^i circuits for i >= 1 take
    top fan-in at most (terms touching y)*(k+1).  Every coefficient
    circuit expands to the coefficient."""
    P = expand_circuit(C)
    for y in range(C.num_vars):
        missing = [t for t in C.terms
                   if all(y not in f.support for f in t[1])]
        touching = len(C.terms) - len(missing)
        cs = checked(coeff_circuits(C, y))
        for scale, factors in missing:
            held = [(i, s) for i, ci in enumerate(cs) for s, fs in ci.terms
                    if len(fs) == len(factors)
                    and all(f is g for f, g in zip(fs, factors))]
            assert held == [(0, scale)]
        assert cs[0].terms[:len(missing)] == tuple(missing)
        for ci in cs[1:]:
            assert ci.top_fanin <= touching * (C.k + 1)
        want = coeffs_in_var(P, y)
        zero = SparsePolynomial.zero(C.num_vars, C.field_p)
        for i, ci in enumerate(cs):
            assert expand_circuit(ci) == (want[i] if i < len(want) else zero)


@pytest.mark.parametrize("make", [
    small_circuit, lambda: parse_circuit(GF7_CIRCUIT),
    lambda: parse_circuit(MIXED_CIRCUIT)], ids=["small", "gf7", "mixed"])
def test_coeff_circuits_hold_missing_terms_once(make):
    missing_terms_held_once(make())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((None, 7)), st.integers(0, 10 ** 6))
def test_coeff_circuits_hold_missing_terms_once_random(p, seed):
    rng = named_rng(seed, "coeff-circuits")
    missing_terms_held_once(over_field(random_circuit(rng, 4, 4, 3, 2, 3)[0], p))


def test_derivative_circuit_identity(C):
    P = expand_circuit(C)
    for y in range(4):
        for j in range(3):
            D = checked(derivative_circuit(C, y, j, coeff_circuits(C, y)))
            assert checked(expand_circuit(D)) == derivative_poly(P, y, j)
            assert D.top_fanin <= C.top_fanin * (C.k + 1) ** 2


def test_hom_component_circuit_identity(C):
    P = expand_circuit(C)
    D_tot = P.degree()
    for i in range(D_tot + 2):
        H = checked(hom_component_circuit(C, i, D_tot))
        assert checked(expand_circuit(H)) == hom_component(P, i)


def test_translate_circuit_identity(C):
    P = expand_circuit(C)
    shift = [Fraction(1), Fraction(-1), Fraction(2), Fraction(0)]
    T = checked(translate_circuit(C, shift))
    assert checked(expand_circuit(T)) == translate_poly(P, shift)
    # supports never grow
    for (_, fs), (_, gs) in zip(C.terms, T.terms):
        for f, g in zip(fs, gs):
            assert set(g.support) <= set(f.support)


def test_restrict_circuit_identity(C):
    P = expand_circuit(C)
    R = checked(restrict_circuit(C, frozenset([0, 2])))
    want = P
    for v in (1, 3):
        want = substitute(want, v, Fraction(0))
    assert expand_circuit(R) == want


# 3(x0x1 + 2)(5)(x2^2 + x3) - (1/2)(x0x3)(x1 + 1) + 2(x2 - 1)(x1x3 + 1/3): a
# constant factor, constant terms other than 0 and 1, and a factor that
# zeroing x3 kills
MIXED_CIRCUIT = """\
fewvar-circuit v1
vars=4 field=Q s=2 k=2
term scale=3
factor support=0,1
coeff 1 ; 0:1 1:1
coeff 2 ;
factor support=
coeff 5 ;
factor support=2,3
coeff 1 ; 0:2
coeff 1 ; 1:1
term scale=-1/2
factor support=0,3
coeff 1 ; 0:1 1:1
factor support=1
coeff 1 ; 0:1
coeff 1 ;
term scale=2
factor support=2
coeff 1 ; 0:1
coeff -1 ;
factor support=1,3
coeff 1 ; 0:1 1:1
coeff 1/3 ;
"""


def transforms_text(name, C, derivatives=True):
    """Every transform of C in the canonical text form, one labelled block
    per output circuit: term order, scales, supports and fan-ins."""
    blocks = []

    def emit(label, out):
        blocks.append(f"== {name} {label}\n" + serialize_circuit(checked(out)))

    for y in range(C.num_vars):
        coeffs = coeff_circuits(C, y)
        for i, ci in enumerate(coeffs):
            emit(f"coeff y={y} i={i}", ci)
        if derivatives:
            for j in (1, 2):
                emit(f"derivative y={y} j={j}",
                     derivative_circuit(C, y, j, coeffs))
    D = expand_circuit(C).degree()
    for i in range(D + 2):
        emit(f"hom i={i} bound={D}", hom_component_circuit(C, i, D))
    shift = [1, -1, 2, 0][:C.num_vars]
    emit(f"translate shift={shift}", translate_circuit(C, shift))
    for alive in ({0, 2}, set(range(C.num_vars - 1))):
        emit(f"restrict alive={sorted(alive)}",
             restrict_circuit(C, frozenset(alive)))
    emit("normalize", normalize_constants(C))
    return "".join(blocks)


def transforms_golden_text():
    return (transforms_text("small", small_circuit())
            + transforms_text("gf7", parse_circuit(GF7_CIRCUIT),
                              derivatives=False)
            + transforms_text("mixed", parse_circuit(MIXED_CIRCUIT)))


def test_transforms_structural_golden():
    # expansions alone would not see a reordered, split or merged term
    assert transforms_golden_text() == \
        (GOLDEN / "transforms.txt").read_text()


def test_transform_audit_clean():
    rep = transform_audit(25, seed=7)
    assert rep.ok
    assert rep.circuits == 25
    assert rep.max_deriv_fanin_ratio <= 1.0
    assert rep.max_coeff_fanin_ratio <= 1.0


def _swap_first_two(real):
    def broken(C, y):
        cs = real(C, y)
        cs[0], cs[1] = cs[1], cs[0]
        return cs
    return broken


# check named in the failures -> (transform, its broken variant)
BROKEN_TRANSFORMS = {
    "translation": ("translate_circuit", lambda real: lambda C, a: real(
        C, [a[0] + 1, *a[1:]])),
    "component": ("hom_component_circuit", lambda real: lambda C, i, D: real(
        C, i + 1, D)),
    "restriction": ("restrict_circuit", lambda real: lambda C, alive: real(
        C, alive | {min(set(range(C.num_vars)) - alive, default=0)})),
    "derivative": ("derivative_circuit", lambda real: lambda C, y, j, cs: real(
        C, y, j + 1, cs)),
    "coefficient": ("coeff_circuits", _swap_first_two),
}


@pytest.mark.parametrize("check", sorted(BROKEN_TRANSFORMS))
def test_transform_audit_catches_a_broken_transform(monkeypatch, check):
    """Each check fails when its transform is wrong: a shift off by one in
    the first coordinate, the component of the next degree, a restriction
    that keeps a dead variable, a derivative of one order more, and the
    first two coefficient circuits swapped.  The derivative is rebuilt from
    the coefficient circuits, so swapping them may fail it too; every other
    broken transform fails its own check alone."""
    name, broken = BROKEN_TRANSFORMS[check]
    monkeypatch.setattr(circuit_module, name,
                        broken(getattr(circuit_module, name)))
    rep = transform_audit(10, seed=7)
    named = [f for f in rep.failures if re.search(rf"{check}.* mismatch$", f)]
    assert named
    if check != "coefficient":
        assert named == rep.failures


# ---------------------------------------------------------------------------
# homogenization

def test_homogenize_example():
    # (1+x0)(1+x1), n=2 -> x0*x1
    C = FewVarCircuit(num_vars=2, terms=[
        (Fraction(1), (fp((0,), (1, []), (1, [(0, 1)])),
                       fp((1,), (1, []), (1, [(0, 1)])))),
    ], declared_s=1, k=1)
    dec = homogenize(C, 2)
    assert dec.value() == SparsePolynomial.from_terms(
        2, [(1, [(0, 1), (1, 1)])])


def test_homogenize_requires_normalized_constants():
    C = FewVarCircuit(num_vars=1, terms=[
        (Fraction(1), (fp((0,), (1, [(0, 1)]), (5, [])),)),
    ], declared_s=1)
    with pytest.raises(ValueError, match="normalize"):
        homogenize(C, 1)
    dec = homogenize(normalize_constants(C), 1)
    assert dec.value() == SparsePolynomial.from_terms(1, [(1, [(0, 1)])])


def test_homogenize_drops_overfull_terms():
    # three degree-1 zero-constant factors cannot reach degree < 3 pieces
    C = FewVarCircuit(num_vars=3, terms=[
        (Fraction(1), tuple(fp((i,), (1, [(0, 1)])) for i in range(3))),
    ], declared_s=1)
    dec = homogenize(C, 2)
    assert len(dec.pieces) == 0
    assert dec.value().is_zero()


def test_homogenize_identity_on_random_circuits():
    rng = named_rng(11, "homog-test")
    hits = 0
    for _ in range(40):
        C, _ = random_circuit(rng, num_vars=6, max_terms=3, max_factors=3,
                              max_support=2, max_k=2)
        C = checked(normalize_constants(C))
        P = expand_circuit(C)
        for n in range(4):
            dec = homogenize(C, n)
            assert dec.value() == hom_component(P, n)
            hits += 1
    assert hits == 160


# ---------------------------------------------------------------------------
# the class regime check

def test_class_check_regime():
    C = FewVarCircuit(num_vars=16, terms=[
        (Fraction(1), (fp((0,), (1, [(0, 1)])), fp((5,), (1, [(0, 1)])))),
    ], declared_s=1, k=1)
    assert C.top_fanin == 1 and C.max_product_fanin == 2
    rep = class_check(C, c=2.0, mu=0.5)
    assert (rep.t_ok, rep.k_ok, rep.d_ok, rep.support_ok) == (True,) * 4
    assert rep.ok
    # log2(16)^0 = 16^0 = 1: T = k = 1 and d = 2 miss it; support 1 fits
    tight = class_check(C, c=0.0, mu=0.0)
    assert (tight.t_ok, tight.k_ok, tight.d_ok, tight.support_ok) == \
        (False, False, False, True)
    assert not tight.ok


# ---------------------------------------------------------------------------
# transforms over GF(p)

GF_PRIMES = (2, 3, 5, 7, 97)
small_ints = st.integers(min_value=-50, max_value=50)


@st.composite
def circuit_data(draw, num_vars=4):
    """Terms as (scale, [(support, [(c, pairs), ...]), ...]) with integer
    coefficients, to be built over Q and over GF(p) alike."""
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        factors = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            support = tuple(sorted(draw(st.sets(
                st.integers(min_value=0, max_value=num_vars - 1),
                min_size=1, max_size=2))))
            items = [(draw(small_ints),
                      [(i, draw(st.integers(min_value=0, max_value=2)))
                       for i in range(len(support))])
                     for _ in range(draw(st.integers(min_value=1, max_value=3)))]
            factors.append((support, items))
        terms.append((draw(small_ints), factors))
    return terms


def build_circuit(data, num_vars, p):
    terms = [(scale, tuple(fp(support, *items, p=p)
                           for support, items in factors))
             for scale, factors in data]
    C = FewVarCircuit(num_vars, tuple(terms), 2, p)
    return FewVarCircuit(num_vars, C.terms, 2, p,
                         expand_circuit(C).individual_degree())


def assert_gf_circuit(C, p):
    for scale, factors in C.terms:
        assert type(scale) is int and 0 <= scale < p
        for f in factors:
            assert f.poly.field_p == p
            assert all(type(c) is int and 0 <= c < p
                       for c in f.poly.terms.values())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GF_PRIMES), circuit_data(),
       st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=8),
       st.lists(small_ints, min_size=4, max_size=4),
       st.sets(st.integers(min_value=0, max_value=3)))
def test_gf_transforms_match_polynomial_operations(p, data, y, i, shift, alive):
    C = build_circuit(data, 4, p)
    P = expand_circuit(C)
    # the expansion over GF(p) is the integer expansion reduced mod p
    P_int = expand_circuit(build_circuit(data, 4, None))
    assert P.terms == {m: c % p for m, c in P_int.terms.items() if c % p}
    assert eval_circuit(C, shift) == P.eval_at(shift) == P_int.eval_at(shift) % p
    assert_gf_circuit(C, p)

    if C.k + 1 <= p:
        ref = coeffs_in_var(P, y)
        for e, ce in enumerate(checked(coeff_circuits(C, y))):
            assert_gf_circuit(ce, p)
            want = ref[e] if e < len(ref) else SparsePolynomial.zero(4, p)
            assert expand_circuit(ce) == want
    else:
        with pytest.raises(ValueError, match="distinct nodes"):
            coeff_circuits(C, y)

    D = P.degree()
    if D + 1 <= p:
        hC = checked(hom_component_circuit(C, i, D))
        assert_gf_circuit(hC, p)
        assert expand_circuit(hC) == hom_component(P, i)
    elif i <= D:
        with pytest.raises(ValueError, match="distinct nodes"):
            hom_component_circuit(C, i, D)

    nC = checked(normalize_constants(C))
    assert_gf_circuit(nC, p)
    assert expand_circuit(nC) == P
    assert homogenize(nC, i).value() == hom_component(P, i)

    tC = checked(translate_circuit(C, shift))
    assert_gf_circuit(tC, p)
    assert checked(expand_circuit(tC)) == translate_poly(P, shift)

    rC = checked(restrict_circuit(C, frozenset(alive)))
    assert_gf_circuit(rC, p)
    want = P
    for v in range(4):
        if v not in alive:
            want = substitute(want, v, 0)
    assert expand_circuit(rC) == want



# ---------------------------------------------------------------------------
# expansion against the ring operations

@st.composite
def shared_factor_circuit(draw):
    """A circuit over 3 variables, over Q, GF(7) or GF(97), whose terms take
    their factors from a small pool of factor objects: terms repeat the very
    same factor tuples, sometimes with scales that sum to 0 (expansion
    multiplies out each copy, and the copies must still cancel), distinct
    factors share supports, a power of one variable overlaps other
    supports (as in a derivative circuit), and some factors are zero."""
    p = draw(st.sampled_from((None, 7, 97)))
    pool = [fp((draw(st.integers(0, 2)),),
               (1, [(0, draw(st.integers(1, 2)))]), p=p)]
    for _ in range(draw(st.integers(1, 3))):
        support = tuple(sorted(draw(st.sets(st.integers(0, 2), max_size=2))))
        for _ in range(draw(st.integers(1, 2))):
            items = draw(st.lists(st.tuples(small_ints, st.lists(
                st.integers(0, 2), min_size=len(support),
                max_size=len(support))), max_size=3))
            pool.append(fp(support, *[(c, list(enumerate(es)))
                                      for c, es in items], p=p))
    shapes = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), max_size=3),
                           min_size=1, max_size=3))
    terms = [(draw(small_ints), tuple(draw(st.sampled_from(shapes))))
             for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        # one more copy of the first term's product, cancelling its copies
        first = terms[0][1]
        terms.append((-sum(c for c, shape in terms if shape == first), first))
    return FewVarCircuit(3, tuple((c, tuple(pool[i] for i in shape))
                                  for c, shape in terms), 2, p)


@settings(max_examples=150, deadline=None)
@given(shared_factor_circuit(), st.lists(small_ints, min_size=3, max_size=3),
       st.integers(0, 2), st.integers(0, 2))
def test_expand_matches_ring_operations(C, point, y, j):
    P = checked(expand_circuit(C))
    assert P == expand_by_merge(C)
    assert eval_circuit(C, point) == P.eval_at(point)
    for _, factors in C.terms:
        # each product comes out reduced, with no zero coefficient
        one = FewVarCircuit(C.num_vars, ((1, factors),), C.declared_s, C.field_p)
        assert multiply_out([(1, [f.global_terms for f in factors])],
                            C.field_p) == expand_by_merge(one).terms
    if C.field_p is None:
        # a derivative rebuilt from the coefficient circuits, the y^0 one
        # holding each term that misses y as it is
        Ck = FewVarCircuit(C.num_vars, C.terms, C.declared_s, None,
                           P.individual_degree())
        dC = checked(derivative_circuit(Ck, y, j, coeff_circuits(Ck, y)))
        assert expand_circuit(dC) == expand_by_merge(dC) == \
            derivative_poly(P, y, j)


def test_expand_with_fraction_scales_and_coefficients():
    # (1/3) * (x0/2 + 1) * (2/3 x1)  -  (5/6) * x0/2 * (2/3 x1)
    #   = (1/9 - 5/18) x0 x1 + 2/9 x1  =  -1/6 x0 x1 + 2/9 x1
    half = fp((0,), (Fraction(1, 2), [(0, 1)]), (1, []))
    third = fp((1,), (Fraction(2, 3), [(0, 1)]))
    C = FewVarCircuit(2, ((Fraction(1, 3), (half, third)),
                          (Fraction(-5, 6), (fp((0,), (Fraction(1, 2), [(0, 1)])),
                                             third))), 1)
    want = SparsePolynomial(2, {((0, 1), (1, 1)): Fraction(-1, 6),
                                ((1, 1),): Fraction(2, 9)})
    assert expand_circuit(C) == expand_by_merge(C) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5), st.integers(0, 8))
def test_expand_lagrange_circuits_matches_ring_operations(seed, y, i):
    # normalized constants give factors Fraction coefficients, and the
    # Lagrange weights of coefficient and homogeneous-component circuits
    # give terms Fraction scales
    rng = named_rng(seed, "expand-lagrange-test")
    C = normalize_constants(random_circuit(rng, num_vars=6, max_terms=3,
                                           max_factors=3, max_support=2,
                                           max_k=2)[0])
    D = expand_circuit(C).degree()
    for circ in checked(coeff_circuits(C, y) + [hom_component_circuit(C, i, D)]):
        assert checked(expand_circuit(circ)) == expand_by_merge(circ)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substituted_factor_agrees_with_evaluation(data):
    """A factor with some of its variables set to a value, against
    evaluating the original factor at the substituted point."""
    p = data.draw(st.sampled_from((None, 7, 97)))
    support = sorted(data.draw(st.sets(st.integers(0, 4), max_size=3)))
    items = [(Fraction(data.draw(small_ints), data.draw(st.integers(1, 6))),
              [(i, data.draw(st.integers(0, 3))) for i in range(len(support))])
             for _ in range(data.draw(st.integers(0, 4)))]
    f = fp(support, *items, p=p)
    gvars = frozenset(data.draw(st.sets(st.integers(0, 4))))
    value = data.draw(small_ints)
    point = data.draw(st.lists(small_ints, min_size=5, max_size=5))
    at = [value if v in gvars else u for v, u in enumerate(point)]
    c, g = _substitute_factor(gvars, value, f)
    checked(g)
    assert c == 1
    assert g.support == tuple(v for v in support if v not in gvars)
    want = f.poly.eval_at([at[v] for v in f.support])
    assert g.poly.eval_at([point[v] for v in g.support]) == want
    assert embed(g, 5).eval_at(point) == embed(f, 5).eval_at(at) == want


@st.composite
def expansion_claims(draw):
    """A circuit from ``field_circuit_points``, sometimes with its own
    terms negated added (so the expansion cancels to zero); a shift of
    small ints with zero entries, or none; and the polynomial P whose
    shift by it is the expansion, as it is, with one coefficient changed,
    with one monomial added, or with one monomial moved to the one that
    packs to the same key at the products' widest field W: a unit of
    exponent of a variable u taken off and 2^W put on variable u - 1.
    Returns the circuit, P, the shift and whether P was left as it is."""
    C = draw(field_circuit_points())[0]
    p, n = C.field_p, C.num_vars
    if draw(st.booleans()):
        C = FewVarCircuit(n, C.terms + tuple((-s, fs) for s, fs in C.terms),
                          2, p)
    shift = draw(st.none() | st.lists(st.integers(-2, 2), min_size=n,
                                      max_size=n))
    P = expand_circuit(C)
    if shift is not None:
        P = translate_poly(P, [-a for a in shift])
    terms = dict(P.terms)
    change = draw(st.sampled_from(("none", "coefficient", "monomial",
                                   "carry")))
    W = max([sum(f.poly.individual_degree() for f in fs)
             for s, fs in C.terms if s], default=0).bit_length()
    if change == "coefficient" and terms:
        mon = draw(st.sampled_from(sorted(terms)))
        terms[mon] += draw(st.sampled_from((1, -1, Fraction(1, 2))))
    elif change == "carry" and any(mon and mon[-1][0] for mon in terms):
        mon = draw(st.sampled_from(sorted(m for m in terms if m and m[-1][0])))
        u, e = mon[-1]
        moved = dict(mon)
        moved[u - 1] = moved.get(u - 1, 0) + (1 << W)
        moved[u] = e - 1
        terms[tuple(sorted((v, x) for v, x in moved.items() if x))] = \
            terms.pop(mon)
    elif change != "none":
        mon = ((draw(st.integers(0, n - 1)), 1 << W),)
        terms[mon] = terms.get(mon, 0) + 1
    return C, SparsePolynomial(n, terms, p), shift, change == "none"


@settings(max_examples=300, deadline=None)
@given(expansion_claims())
def test_expands_to_matches_comparing_the_expansion(claim):
    """The packed comparison against building both polynomials and
    comparing them: over Q with Fraction scales (the lcm L of their
    denominators above 1), GF(7) and GF(97), on expansions that cancel,
    empty circuits, shifts with zero entries, and a P that differs by one
    coefficient, by one monomial, or by one exponent past every product's
    field, which must not carry into its neighbour's."""
    C, P, shift, same = claim
    want = P if shift is None else translate_poly(P, shift)
    assert expands_to(C, P, shift) is (expand_circuit(C) == want) is same


def test_expands_to_sees_no_carry():
    """x0^2 packs as x1 at the expansion's own width of 1 bit, and the
    empty circuit expands to the zero polynomial, shifted or not."""
    x1 = FewVarCircuit(2, ((1, (fp((1,), (1, [(0, 1)])),)),), 1)
    assert expands_to(x1, SparsePolynomial.from_terms(2, [(1, [(1, 1)])]))
    assert not expands_to(x1, SparsePolynomial.from_terms(2, [(1, [(0, 2)])]))
    for p in (None, 7, 97):
        C = FewVarCircuit(3, (), 2, p)
        for shift in (None, [0, 0, 0], [1, 0, -2]):
            assert expands_to(C, SparsePolynomial.zero(3, p), shift)
            assert not expands_to(C, SparsePolynomial.const(3, 1, p), shift)


def test_expands_to_refuses_as_expand_circuit_does():
    """The cap refusal, with the same message, before the shift's length
    is checked; then the shift's, as ``translate_poly`` gives it; and a
    polynomial over other variables or another field is not the
    expansion."""
    big = FewVarCircuit(21, ((1, tuple(fp((i,), (1, [(0, 1)]), (1, []))
                                       for i in range(21))),), 1)
    zero = SparsePolynomial.zero(21)
    with pytest.raises(ValueError) as info:
        expand_circuit(big)
    for shift in (None, [0] * 21, [1]):
        with pytest.raises(ValueError) as got:
            expands_to(big, zero, shift)
        assert str(got.value) == str(info.value)
    C = small_circuit()
    P = expand_circuit(C)
    with pytest.raises(ValueError) as info:
        translate_poly(P, [1])
    with pytest.raises(ValueError) as got:
        expands_to(C, P, [1])
    assert str(got.value) == str(info.value)
    assert expands_to(C, P) and expands_to(C, translate_poly(P, [-1] * 4),
                                           [1] * 4)
    assert not expands_to(C, SparsePolynomial(5, dict(P.terms)))
    assert not expands_to(C, SparsePolynomial(4, dict(P.terms), 97))


def test_expand_empty_circuit_is_zero():
    for p in (None, 7):
        C = FewVarCircuit(3, (), 2, p)
        assert expand_circuit(C) == expand_by_merge(C) == \
            SparsePolynomial.zero(3, p)


# ---------------------------------------------------------------------------
# document format

def test_circuit_round_trip(C):
    text = serialize_circuit(C)
    D = checked(parse_circuit(text))
    assert D.num_vars == C.num_vars
    assert D.declared_s == C.declared_s
    assert D.k == C.k
    assert expand_circuit(D) == expand_circuit(C)
    assert serialize_circuit(D) == text


@settings(max_examples=200, deadline=None)
@given(field_circuit_points())
def test_parsed_circuit_evaluates_like_the_circuit_written_out(case):
    """``parse_circuit`` reads integer coefficients as ints, so a factor
    written with Fraction coefficients that are integral comes back on
    ``integer_form``'s all-int path: both forms give the same values."""
    C, points = case
    D = checked(parse_circuit(serialize_circuit(C)))
    for point in points:
        assert eval_circuit(D, point) == eval_circuit(C, point)


def test_circuit_round_trip_unknown_k(C):
    text = serialize_circuit(
        FewVarCircuit(C.num_vars, C.terms, C.declared_s, C.field_p, None))
    assert "k=unknown" in text.splitlines()[1]
    assert parse_circuit(text).k is None


def test_parse_circuit_empty_terms():
    text = "fewvar-circuit v1\nvars=3 field=Q s=2 k=unknown\n"
    C = parse_circuit(text)
    assert C.top_fanin == 0
    assert expand_circuit(C).is_zero()


def test_parse_circuit_bad_header():
    with pytest.raises(ValueError, match="fewvar-circuit"):
        parse_circuit("something else\nvars=1 field=Q s=1 k=1")


def test_parse_circuit_bad_field_tag():
    with pytest.raises(ValueError, match="line 2"):
        parse_circuit("fewvar-circuit v1\nvars=1 field=C s=1 k=1")


def test_parse_circuit_error_line_numbers():
    # bad scales and supports are checked through the CLI in test_cli.py
    for bad in ("coeff x ; 0:1", "coeff 1 ; 0:y", "coeff 1 ; 0"):
        text = "\n".join([
            "fewvar-circuit v1",
            "vars=2 field=Q s=1 k=1",
            "term scale=1",
            "factor support=0",
            bad,
        ])
        with pytest.raises(ValueError, match="line 5"):
            parse_circuit(text)


def test_random_circuit_respects_bounds():
    rng = named_rng(3, "random-circuit-test")
    for _ in range(20):
        C, P = random_circuit(rng, num_vars=8, max_terms=3, max_factors=3,
                              max_support=2, max_k=2)
        assert C.top_fanin <= 3
        assert C.max_support() <= 2
        assert P == expand_circuit(C)
        assert P.individual_degree() <= 2


@settings(max_examples=200, deadline=None)
@given(circuit_data(), st.integers(0, 4))
def test_degree_above_never_rejects_a_circuit_within_the_bound(data, bound):
    """A sum of terms that ``_degree_above`` rejects without expanding it
    has individual degree above the bound, so ``random_circuit`` accepts
    the same draws as when it expanded every one: terms of nonzero
    scales and nonzero factors, whose degree sums often tie."""
    terms = [(scale or 1, tuple(f for f in factors if not f.poly.is_zero()))
             for scale, factors in build_circuit(data, 4, None).terms]
    if _degree_above(terms, bound):
        C = FewVarCircuit(4, tuple(terms), 2)
        assert expand_circuit(C).individual_degree() > bound


def test_degree_above_sums_factors_and_leaves_ties_to_the_expansion():
    """x0 * x0^2 has degree 3 in x0 though no factor does; two terms that
    both reach x0^3 may cancel, so they are left to the expansion."""
    x0, sq = fp((0,), (1, [(0, 1)])), fp((0, 1), (1, [(0, 2)]), (1, [(1, 1)]))
    assert _degree_above([(2, (x0, sq))], 2)
    assert not _degree_above([(2, (x0, sq))], 3)
    assert not _degree_above([(1, (x0, sq)), (-1, (sq, x0))], 2)
    assert not _degree_above([(1, (x0,)), (1, (sq,))], 2)


def test_degree_above_rejects_only_draws_above_the_bound(monkeypatch):
    """The draws of 100 audits that ``_degree_above`` rejects before they
    are expanded each have individual degree above max_k, and there are
    some."""
    rejected = []
    real = circuit_module._degree_above

    def recorded(terms, bound):
        above = real(terms, bound)
        if above:
            rejected.append((terms, bound))
        return above
    monkeypatch.setattr(circuit_module, "_degree_above", recorded)
    for seed in range(100):
        transform_audit(1, seed)
    assert rejected
    for terms, bound in rejected:
        C = FewVarCircuit(10, tuple(terms), 3)
        assert expand_circuit(C).individual_degree() > bound


def test_random_circuit_checks_each_factor_once(monkeypatch):
    """Each draw that is expanded is built once through the public
    constructor, one ``_check_factor`` call per factor, and a draw
    rejected before it is expanded is not built; the accepted one keeps
    those checked terms and takes the measured k."""
    checks, drawn = [], []
    real_check, real_expand = circuit_module._check_factor, expand_circuit
    monkeypatch.setattr(circuit_module, "_check_factor",
                        lambda *args: checks.append(args) or real_check(*args))
    monkeypatch.setattr(circuit_module, "expand_circuit",
                        lambda C: drawn.append(C) or real_expand(C))
    rng = named_rng(5, "random-circuit-checks")
    for _ in range(20):
        checks.clear(), drawn.clear()
        C, P = random_circuit(rng, num_vars=6, max_terms=3, max_factors=3,
                              max_support=2, max_k=2)
        assert len(checks) == sum(len(fs) for D in drawn
                                  for _, fs in D.terms)
        assert C.terms == checked(drawn[-1]).terms
        checked(C)
        assert P == real_expand(C)
        assert C.k == P.individual_degree() <= 2
