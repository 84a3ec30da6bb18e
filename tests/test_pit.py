"""Designs, the hitting-set parameter chain, the streaming generator, the
driver, and the baselines."""

import itertools
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fewvar.pit as pit_module
from fewvar.algebra import SparsePolynomial
from fewvar.circuit import (
    FactorPoly,
    FewVarCircuit,
    eval_circuit,
    expand_circuit,
    parse_circuit,
    random_circuit,
)
from fewvar.pit import (
    Blackbox,
    Design,
    blackbox_from_circuit,
    derive_pit_params,
    hitting_set_stream,
    pit_run,
    rs_design,
    schwartz_zippel,
    toy_pit_params,
    verify_design,
)
from fewvar.rng import named_rng
from fewvar.cli import main
from helpers import (GF7_CIRCUIT, checked_sets, combnulls_grid, is_prime_trial,
                     naive_stream, over_field, src_env)


# ---------------------------------------------------------------------------
# designs

def test_rs_design_four_two():
    d = checked_sets(rs_design(4, 2, intersection_cap=1))
    assert d.q0 == 2 and d.c0 == 1 and d.l == 4
    # the graphs of f = 0, 1, z, 1+z over F_2, as (x, f(x)) -> x*2 + f(x)
    assert tuple(d) == ((0, 2), (1, 3), (0, 3), (1, 2))
    assert d[-1] == d[3] == (1, 2)
    with pytest.raises(IndexError):
        d[4]
    assert verify_design(d, cap=1).ok


@pytest.mark.parametrize("b,a", [(4, 2), (9, 3), (16, 4), (1, 5)])
def test_rs_design_verifies(b, a):
    d = checked_sets(rs_design(b, a))
    rep = verify_design(d)
    assert rep.ok, rep.violations
    assert (len(d), d.a) == (b, a)


def test_rs_design_intersections_within_degree_cap():
    d = checked_sets(rs_design(9, 3))
    for S, T in itertools.combinations(d, 2):
        assert len(set(S) & set(T)) <= d.c0 == 1


def test_rs_design_cap_too_tight():
    # 30 sets from F_5 univariates force degree 2
    with pytest.raises(ValueError, match="cap"):
        rs_design(30, 5, intersection_cap=1)


def test_verify_design_flags_tampering():
    d = checked_sets(rs_design(4, 2))

    class Tampered(Design):
        """The design with set 1 read as set 0."""
        def __getitem__(self, i):
            return super().__getitem__(0 if i == 1 else i)

    bad = Tampered(b=d.b, a=d.a, q0=d.q0, c0=d.c0)
    assert list(bad) == [d[0], d[0], d[2], d[3]]
    rep = verify_design(bad, cap=1)
    assert not rep.ok
    assert any("S_0 & S_1" in v for v in rep.violations)
    # graphs over more rows than q0 leave the q0 x q0 universe
    wide = Design(b=4, a=3, q0=2, c0=1)
    assert not verify_design(wide).range_ok
    with pytest.raises(AssertionError, match="set 0 leaves the universe"):
        checked_sets(wide)


def test_verify_design_single_set_vacuous():
    assert verify_design(checked_sets(rs_design(1, 3))).ok


# ---------------------------------------------------------------------------
# parameter chain

FROZEN_CHAIN = {
    # (N, k): (a, a_prime, q, D, grid_size)
    (16, 1): (16, 1, 11, 1, 17),
    (16, 2): (16, 1, 11, 1, 33),
    (64, 1): (36, 1, 19, 1, 65),
    (64, 2): (36, 1, 19, 1, 129),
    (256, 1): (64, 1, 37, 1, 257),
    (256, 2): (64, 1, 37, 1, 513),
}


@pytest.mark.parametrize("N,k", sorted(FROZEN_CHAIN))
def test_derive_pit_params_frozen_chain(N, k):
    p = checked_sets(derive_pit_params(0, 3.0, N, k))
    assert (p.a, p.a_prime, p.q, p.D, len(p.grid)) == FROZEN_CHAIN[(N, k)]
    assert p.a <= 2 * p.a_prime * p.q          # a/2 <= a'q
    assert p.a_prime * p.q <= p.a              # a'q <= a
    assert is_prime_trial(p.q)
    assert p.grid == tuple(range(N * k * p.a_prime + 1))


def test_derive_pit_params_mu_zero_a_formula():
    import math
    for N in (16, 64, 256):
        p = checked_sets(derive_pit_params(0, 3.0, N, 1))
        assert p.a == math.ceil(math.log2(N) ** 2)


def test_derive_pit_params_exact_a_at_an_integer():
    # mu = 1/6, N = 16: a = 16^(1/4) * 4^(3/2) is exactly 16
    assert checked_sets(derive_pit_params(Fraction(1, 6), 3.0, 16, 1)).a == 16


def test_derive_pit_params_rejects_bad_mu():
    with pytest.raises(ValueError):
        derive_pit_params(Fraction(1, 2), 3.0, 16, 1)
    with pytest.raises(ValueError):
        derive_pit_params(-0.1, 3.0, 16, 1)


@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_pit_params_refuse_a_non_finite_c(c):
    """Both builders refuse a class exponent that is not finite, which
    would make ``class_check`` pass (inf) or fail (nan) for any circuit."""
    with pytest.raises(ValueError, match=f"^c = {c} is not finite$"):
        derive_pit_params(0, float(c), 16, 1)
    with pytest.raises(ValueError, match=f"^c = {c} is not finite$"):
        toy_pit_params(N=2, k=1, l=2, c=float(c))


def test_toy_params_shapes():
    p = checked_sets(toy_pit_params(N=2, k=1, l=2))
    assert p.stream_size == 9
    assert p.sets == ((0, 1), (0, 1))
    q = checked_sets(toy_pit_params(N=3, k=1, l=4, q=3))
    assert q.sets == ((0, 1, 2), (0, 1, 3), (0, 2, 3))


def test_toy_params_validation():
    """Each refusal of the toy builder, the one that takes outside input;
    the set size is checked first, before N, and a negative a' is refused
    by the draw of the sets, before a' is checked against q."""
    cases = [
        (dict(N=0, k=1, l=2), "need N >= 1 and k >= 1"),
        (dict(N=2, k=0, l=2), "need N >= 1 and k >= 1"),
        (dict(N=2, k=1, l=4, q=4), "q = 4 is not prime"),
        (dict(N=2, k=1, l=2, D=0), r"D = 0 outside \[1, q = 2\]"),
        (dict(N=2, k=1, l=2, D=3), r"D = 3 outside \[1, q = 2\]"),
        (dict(N=4, k=1, l=10, a_prime=5), r"a' = 5 outside \[1, q = 2\]"),
        (dict(N=2, k=1, l=2, a_prime=0), r"a' = 0 outside \[1, q = 2\]"),
        (dict(N=2, k=1, l=2, a_prime=-1), "r must be non-negative"),
        (dict(N=2, k=1, l=2, grid=(1, 1)),
         "grid values must be distinct and nonempty"),
        (dict(N=2, k=1, l=2, grid=()),
         "grid values must be distinct and nonempty"),
        (dict(N=2, k=1, l=2, grid=(0, 0.5)),
         r"grid value 0\.5 is not an int or a Fraction"),
        (dict(N=2, k=1, l=1), "set size a'q = 2 exceeds universe l = 1"),
        (dict(N=0, k=1, l=1), "set size a'q = 2 exceeds universe l = 1"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            toy_pit_params(**kwargs)


@pytest.mark.parametrize("sets, message", [
    (((0, 1),), "1 sets, expected 2"),
    (((0, 1), (0, 1, 2)), "set 1 has size 3, expected 2"),
    (((0, 1), (0, 4)), "set 1 leaves the universe of size 4"),
    (((0, 1), (2, 1)), "set 1 is not strictly increasing"),
    (((1, 1), (0, 1)), "set 0 is not strictly increasing"),
])
def test_checked_sets_refuses_a_family_no_builder_makes(sets, message):
    """The set checks no constructor makes: the count, each set's size,
    universe and strict order."""
    params = checked_sets(toy_pit_params(N=2, k=1, l=4))._replace(sets=sets)
    with pytest.raises(AssertionError, match=message):
        checked_sets(params)


def test_params_refuse_a_grid_value_that_is_not_rational():
    with pytest.raises(ValueError, match=r"grid value 0\.5 is not an int or a Fraction"):
        toy_pit_params(N=2, k=1, l=2, grid=(0, 0.5))
    assert checked_sets(toy_pit_params(N=2, k=1, l=2, grid=(0, Fraction(1, 2)))
                        ).grid == (0, Fraction(1, 2))


def test_stream_size_text_switches_to_a_power_at_ten_to_the_4000():
    below = checked_sets(toy_pit_params(N=1, k=1, l=3999, grid=range(10)))
    assert below.stream_size_text == "1" + "0" * 3999
    above = checked_sets(toy_pit_params(N=1, k=1, l=4000, grid=range(10)))
    assert above.stream_size_text == "10^4000"
    assert checked_sets(toy_pit_params(N=2, k=1, l=2)).stream_size_text == "9"


@pytest.mark.parametrize("g,l", [
    (10, 3999), (10, 4000), (2, 13287), (2, 13288), (9, 4191), (9, 4192),
    (11, 3841), (11, 3842), (513, 1475), (513, 1476)])
def test_stream_size_text_at_the_boundary_matches_the_full_power(g, l):
    # the pairs straddle 10^4000: g^l just below it, then just above it
    total = g ** l
    old = str(total) if total < 10 ** 4000 else f"{g}^{l}"
    params = checked_sets(toy_pit_params(N=1, k=1, l=l, grid=range(g)))
    assert params.stream_size_text == old
    assert params.stream_exceeds(10 ** 4000 - 1) == (total >= 10 ** 4000)


def test_decimal_stream_bits_is_the_bit_length_of_the_decimal_limit():
    """The largest stream size written in decimal is 10^4000 - 1, which
    has the bit length of 10^4000 (not a power of two)."""
    limit = pit_module.DECIMAL_STREAM_LIMIT
    assert limit + 1 == 10 ** 4000
    assert limit.bit_length() == (10 ** 4000).bit_length() == 13288


@st.composite
def powers_near_the_decimal_limit(draw):
    """A grid size g in 2..300 and an l for which g^l has 3999 to 4001
    digits."""
    g = draw(st.integers(2, 300))
    l = math.ceil(3998 / math.log10(g))
    ls = [m for m in range(l - 2, l + 4)
          if 10 ** 3998 <= g ** m < 10 ** 4001]
    return g, draw(st.sampled_from(ls))


@settings(max_examples=200, deadline=None)
@given(powers_near_the_decimal_limit())
@example((256, 1661))     # 2^13288: the bit lengths alone decide the power
@example((3, 8383))       # 3^8383 < 10^4000: in the band they leave open
@example((3, 8384))       # 3^8384 > 10^4000, in the same band
def test_stream_size_text_near_the_decimal_limit(case):
    """Against the full power: the decimal below 10^4000 and g^l from it
    on.  Near the limit the bit lengths decide only for a power of 2; for
    every other g the text comes from the exact comparison."""
    g, l = case
    total = g ** l
    old = str(total) if total < 10 ** 4000 else f"{g}^{l}"
    params = checked_sets(toy_pit_params(N=1, k=1, l=l, grid=range(g)))
    assert params.stream_size_text == old


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 600), st.integers(2, 60), st.integers(-3, 3),
       st.integers(-5, 10 ** 40), st.booleans())
def test_stream_exceeds_matches_the_full_power(g, l, delta, far, near):
    params = checked_sets(toy_pit_params(N=1, k=1, l=l, grid=range(g)))
    bound = g ** l + delta if near else far
    assert params.stream_exceeds(bound) == (g ** l > bound)


# ---------------------------------------------------------------------------
# the stream

def test_stream_count_and_zero_point():
    params = checked_sets(toy_pit_params(N=2, k=1, l=2))
    tuples = list(hitting_set_stream(params))
    assert len(tuples) == 9
    assert tuples[0] == (Fraction(0), Fraction(0))


def test_stream_lex_order_prefix():
    params = checked_sets(toy_pit_params(N=2, k=1, l=2))
    # grid point (0, 1) is the second tuple: NW(S_i) = X_a + X_b
    tuples = list(hitting_set_stream(params))
    assert tuples[1] == (Fraction(1), Fraction(1))
    assert tuples[3] == (Fraction(1), Fraction(1))   # point (1, 0)


def test_stream_limit():
    params = checked_sets(toy_pit_params(N=2, k=1, l=2))
    assert len(list(hitting_set_stream(params, limit=4))) == 4


@st.composite
def toy_streams(draw):
    """Toy parameters with small streams: repeated sets, sets that miss the
    last coordinates, grids of one value or of negative values, and limits
    from 0 past the end of the stream."""
    a_prime = draw(st.integers(1, 2))
    q = draw(st.sampled_from((2, 3)))
    size = a_prime * q
    grid = draw(st.lists(st.integers(-3, 5), min_size=1, max_size=3,
                         unique=True))
    l_max = {1: 6, 2: 5, 3: 4}[len(grid)]
    l = draw(st.integers(size, max(size, l_max)))
    N = draw(st.integers(1, 6))
    params = toy_pit_params(N=N, k=1, l=l, a_prime=a_prime, q=q,
                            D=draw(st.integers(1, q)), grid=grid)
    if draw(st.booleans()):          # else the cycled combination enumeration
        pool = list(itertools.combinations(range(l), size))
        params = params._replace(sets=tuple(
            draw(st.sampled_from(pool)) for _ in range(N)))
    checked_sets(params)
    limit = draw(st.one_of(st.none(), st.integers(0, params.stream_size + 2)))
    return params, limit


@settings(max_examples=150, deadline=None)
@given(toy_streams())
def test_stream_matches_the_naive_stream(case):
    params, limit = case
    got = list(hitting_set_stream(params, limit=limit))
    assert got == naive_stream(params, limit)
    assert all(type(v) is int for h in got for v in h)


@pytest.mark.parametrize("kwargs, limit", [
    # every set the same: one evaluation shared by six copies
    (dict(N=6, k=2, l=6, a_prime=2, q=3, D=2, grid=range(4)), 300),
    # sets {0,1},{0,2},{1,2} never touch coordinates 3 and 4
    (dict(N=3, k=1, l=5, grid=range(3),
          sets=[(0, 1), (0, 2), (1, 2)]), None),
    # 20 of 2^5 points: the step to point 16 carries through four coordinates
    (dict(N=4, k=1, l=5, grid=(1, -1), sets=[(3, 4), (0, 4), (3, 4), (1, 2)]),
     20),
    (dict(N=2, k=1, l=3), 0),
    (dict(N=3, k=1, l=4, grid=(7,)), None),
    # values that are not ints are coerced into Q
    (dict(N=3, k=1, l=3, grid=(Fraction(1, 2), -2, Fraction(-5, 3))), None),
])
def test_stream_matches_the_naive_stream_on_fixed_cases(kwargs, limit):
    """Toy parameters, with the hand-made ``sets`` of a case in place of
    the cycled ones."""
    kwargs = dict(kwargs)
    sets = kwargs.pop("sets", None)
    params = toy_pit_params(**kwargs)
    if sets is not None:
        params = params._replace(sets=sets)
    checked_sets(params)
    got = list(hitting_set_stream(params, limit=limit))
    assert got == naive_stream(params, limit)
    if limit == 0:
        assert got == []
    if len(params.grid) == 1:
        assert got == [(14,) * 3]      # X_a + X_b at 7


def test_stream_evaluates_distinct_sets_and_changed_suffixes(monkeypatch):
    """NW is evaluated through the binding in fewvar.pit, once per
    distinct set at the first point, then only for sets reaching into the
    changed suffix of coordinates."""
    calls = []
    real = pit_module.nw_eval
    monkeypatch.setattr(pit_module, "nw_eval",
                        lambda inst, pt: calls.append(tuple(pt)) or real(inst, pt))
    full6 = checked_sets(toy_pit_params(N=6, k=2, l=6, a_prime=2, q=3, D=2,
                                        grid=range(4)))
    assert len(set(full6.sets)) == 1
    assert len(list(hitting_set_stream(full6, limit=300))) == 300
    assert len(calls) == 300
    calls.clear()
    derived = checked_sets(derive_pit_params(0, 3.0, 16, 1))
    top = max(S[-1] for S in derived.sets)
    assert top < derived.l - 1
    assert len(list(hitting_set_stream(derived, limit=15))) == 15
    assert len(calls) == len(set(derived.sets))


def test_parameters_build_no_set_and_the_stream_builds_each_once(
        monkeypatch, capsys):
    """Sets are built through the graph binding in fewvar.pit: none for the
    parameters or a report of them, each set once when a stream starts."""
    calls = []
    real = pit_module.univariate_graph
    monkeypatch.setattr(pit_module, "univariate_graph",
                        lambda *args: calls.append(args) or real(*args))
    assert derive_pit_params(0, 3, 65536, 1).N == 65536
    assert main(["hitset", "--N", "65536", "--k", "1", "--limit", "0"]) == 0
    assert "stream_size=" in capsys.readouterr().out
    assert calls == []
    derived = derive_pit_params(0, 3, 16, 1)
    assert len(list(hitting_set_stream(derived, limit=15))) == 15
    assert sorted(k for _, _, k in calls) == list(range(16))
    checked_sets(derived)


# ---------------------------------------------------------------------------
# the circuit blackbox

FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def rational_circuits(draw):
    """Circuits over Q with fractional scales and coefficients, zero
    factors, zero scales, and terms that cancel a copy of another term."""
    num_vars = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        factors = []
        for _ in range(draw(st.integers(0, 3))):
            support = tuple(sorted(draw(st.sets(
                st.integers(0, num_vars - 1), max_size=2))))
            items = [(draw(FRACTIONS),
                      [(v, e) for v in range(len(support))
                       if (e := draw(st.integers(0, 3)))])
                     for _ in range(draw(st.integers(0, 3)))]
            factors.append(FactorPoly(
                support, SparsePolynomial.from_terms(len(support), items)))
        scale = draw(FRACTIONS)
        terms.append((scale, tuple(factors)))
        if draw(st.booleans()):
            terms.append((-scale, tuple(factors)))
    return FewVarCircuit(num_vars=num_vars, terms=tuple(terms), declared_s=2)


@settings(max_examples=200, deadline=None)
@given(rational_circuits(), st.data())
def test_circuit_blackbox_matches_expansion(C, data):
    box = blackbox_from_circuit(C)
    P = expand_circuit(C)
    coordinate = st.one_of(st.integers(-5, 5), FRACTIONS)
    for _ in range(4):
        pt = tuple(data.draw(st.lists(coordinate, min_size=C.num_vars,
                                      max_size=C.num_vars)))
        got = box.eval_at(pt)
        assert type(got) is Fraction
        assert got == P.eval_at(pt)


def test_pit_run_evaluates_circuits_through_eval_circuit(monkeypatch):
    """Over Q and GF(p) alike, pit_run evaluates an open circuit through
    the binding in fewvar.pit, once per scanned point, plus once more to
    re-evaluate a witness."""
    calls = []
    real = pit_module.eval_circuit
    monkeypatch.setattr(pit_module, "eval_circuit",
                        lambda C, pt: calls.append(tuple(pt)) or real(C, pt))
    rng = named_rng(71, "blackbox-fallback")
    params = checked_sets(toy_pit_params(N=3, k=2, l=3))
    for field_p in (None, 7):
        C = over_field(random_circuit(rng, num_vars=3, max_terms=3,
                                      max_factors=2, max_support=2,
                                      max_k=2)[0], field_p)
        assert not expand_circuit(C).is_zero()
        for circuit in (FewVarCircuit(3, (), 2, field_p, 2), C):
            calls.clear()
            res = pit_run(circuit, params)
            assert res.status == ("witness" if circuit is C else "zero-on-set")
            found = res.status == "witness"
            assert len(calls) == res.tested + found
            if found:
                assert calls[-2:] == [res.point, res.point]
                assert res.value == real(C, res.point) != 0


# ---------------------------------------------------------------------------
# the driver

def test_pit_zero_blackbox():
    params = checked_sets(toy_pit_params(N=3, k=1, l=3))
    box = Blackbox(fn=lambda pt: Fraction(0), num_vars=3, k=1)
    res = pit_run(box, params)
    assert res.status == "zero-on-set"
    assert res.tested == params.stream_size


def test_pit_projection_witness():
    params = checked_sets(toy_pit_params(N=3, k=1, l=3))
    box = Blackbox(fn=lambda pt: pt[0], num_vars=3, k=1)
    res = pit_run(box, params)
    assert res.status == "witness"
    assert res.point[0] != 0


def test_pit_budget_inconclusive():
    params = checked_sets(toy_pit_params(N=2, k=1, l=2))
    box = Blackbox(fn=lambda pt: Fraction(0), num_vars=2, k=1)
    res = pit_run(box, params, budget=5)
    assert res.status == "inconclusive"
    assert res.tested == 5


def test_pit_circuit_soundness_suite():
    rng = named_rng(53, "pit-suite")
    params = checked_sets(toy_pit_params(N=5, k=2, l=4, q=2))
    found = 0
    for _ in range(100):
        C, P = random_circuit(rng, num_vars=5, max_terms=3, max_factors=2,
                              max_support=2, max_k=2)
        if P.is_zero():
            continue
        res = pit_run(C, params)
        if res.status == "witness":
            found += 1
            again = blackbox_from_circuit(C).eval_at(res.point)
            assert again == res.value != 0
    assert found > 0        # desk-scale observation, not an asymptotic guarantee


def test_pit_dimension_mismatch():
    params = checked_sets(toy_pit_params(N=3, k=1, l=3))
    box = Blackbox(fn=lambda pt: Fraction(0), num_vars=4, k=1)
    with pytest.raises(ValueError, match="box declares 4 variables, params "
                                         "expect 3"):
        pit_run(box, params)
    C = parse_circuit(GF7_CIRCUIT)
    for N in (2, 4):
        with pytest.raises(ValueError, match=f"circuit has 3 variables, "
                                             f"params expect {N}"):
            pit_run(C, checked_sets(toy_pit_params(N=N, k=1, l=3)))
        with pytest.raises(ValueError, match=f"box declares 3 variables, "
                                             f"params expect {N}"):
            pit_run(blackbox_from_circuit(C),
                    checked_sets(toy_pit_params(N=N, k=1, l=3)))


@pytest.mark.parametrize("length", [2, 4])
def test_a_point_of_the_wrong_length_is_refused(length):
    """A point one value short or one value long: the one length check is
    ``eval_circuit``'s, and an open circuit's box reaches it."""
    C = parse_circuit(GF7_CIRCUIT)
    point = [1] * length
    message = f"point has {length} values, circuit has 3 variables"
    with pytest.raises(ValueError, match=f"dimension mismatch: {message}"):
        eval_circuit(C, point)
    with pytest.raises(ValueError, match=f"point has {length} values"):
        blackbox_from_circuit(C).eval_at(point)


def test_pit_refusal_names_a_stream_past_the_digit_limit():
    params = checked_sets(derive_pit_params(0, 3.0, 256, 1))  # 257^4489 points
    box = Blackbox(fn=lambda pt: Fraction(0), num_vars=256, k=1)
    with pytest.raises(ValueError, match=r"stream has 257\^4489 points"):
        pit_run(box, params)


FLAKY_WITNESS_SCRIPT = """\
import sys
from fewvar.pit import Blackbox, pit_run, toy_pit_params
if __debug__:
    sys.exit("not running under -O")
seen = set()
def flaky(pt):
    if tuple(pt) in seen:
        return 0
    seen.add(tuple(pt))
    return 1
try:
    pit_run(Blackbox(fn=flaky, num_vars=2, k=1), toy_pit_params(N=2, k=1, l=2))
except RuntimeError as exc:
    print(exc)
    sys.exit(0)
sys.exit("pit_run returned")
"""


def test_witness_recheck_survives_python_dash_o(tmp_path):
    """A box that is nonzero at a point once and zero when asked again makes
    pit_run raise, also with assertions compiled away."""
    res = subprocess.run([sys.executable, "-O", "-c", FLAKY_WITNESS_SCRIPT],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=src_env())
    assert res.returncode == 0, res.stderr
    assert "witness failed re-evaluation" in res.stdout


RUNTIME_CHECKS_SCRIPT = """\
import sys, types
from fewvar import cli, pit
if __debug__:
    sys.exit("not running under -O")

def expect(fn, *args):
    try:
        fn(*args)
    except RuntimeError as exc:
        print(exc)
        return
    sys.exit(f"{fn.__name__} returned")

# rs_design: a modulus whose powers change between calls breaks the count
class Lying(int):
    calls = 0
    def __pow__(self, e):
        Lying.calls += 1
        return int(self) ** e if Lying.calls == 1 else 0
pit.next_prime_at_least = lambda a: Lying(2)
expect(pit.rs_design, 1, 1)

# _SubprocessBox: a child without pipes
box = cli._SubprocessBox.__new__(cli._SubprocessBox)
box.proc = types.SimpleNamespace(stdin=None, stdout=None)
expect(box, [1, 2])
"""


def test_runtime_checks_survive_python_dash_o(tmp_path):
    """The design count and the blackbox pipe check raise RuntimeError also
    with assertions compiled away."""
    res = subprocess.run([sys.executable, "-O", "-c", RUNTIME_CHECKS_SCRIPT],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=src_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "degree cap 0 gives 0 univariates over F_2, fewer than the 1 sets",
        "blackbox pipes are not open",
    ]


def test_pit_refuses_unbounded_scan():
    params = checked_sets(derive_pit_params(0, 3.0, 16, 1))   # 17^289 points
    box = Blackbox(fn=lambda pt: Fraction(0), num_vars=16, k=1)
    with pytest.raises(ValueError, match="budget"):
        pit_run(box, params)
    res = pit_run(box, params, budget=3)
    assert res.status == "inconclusive" and res.tested == 3


# ---------------------------------------------------------------------------
# baselines

def test_schwartz_zippel_finds_product_witness():
    box = Blackbox(fn=lambda pt: pt[0] * pt[1], num_vars=2, k=1)
    res = schwartz_zippel(box, trials=100, domain_size=10, seed=7)
    assert res.status == "witness"
    assert res.point[0] != 0 and res.point[1] != 0


def test_schwartz_zippel_zero_and_reproducible():
    box = Blackbox(fn=lambda pt: Fraction(0), num_vars=3, k=1)
    assert schwartz_zippel(box, 20, 10, 5).status == "probably-zero"
    live = Blackbox(fn=lambda pt: pt[0] + pt[2], num_vars=3, k=1)
    r1 = schwartz_zippel(live, 50, 10, 21)
    r2 = schwartz_zippel(live, 50, 10, 21)
    assert r1 == r2


def test_combnulls_grid_shape():
    assert list(combnulls_grid(1, 1)) == [(0,), (1,)]
    assert sum(1 for _ in combnulls_grid(3, 2)) == 27


def test_combnulls_finds_point_for_nonzero_polys():
    # x0*x1 vanishes everywhere on {0,1}^2 except (1,1)
    P = SparsePolynomial.from_terms(2, [(1, [(0, 1), (1, 1)])])
    hits = [pt for pt in combnulls_grid(2, 1) if P.eval_at(list(pt))]
    assert hits == [(1, 1)]
    rng = named_rng(59, "combnulls")
    from helpers import random_poly
    for _ in range(25):
        Q = random_poly(rng, 4, max_terms=4, max_exp=2)
        if Q.is_zero():
            continue
        d = Q.individual_degree()
        assert any(Q.eval_at(list(pt)) for pt in combnulls_grid(4, d))


def test_completeness_shadow_of_schwartz_zippel():
    # at toy scale the generator may miss; log the discrepancy rate instead
    # of asserting the asymptotic guarantee
    rng = named_rng(61, "completeness")
    params = checked_sets(toy_pit_params(N=4, k=2, l=4, q=2))
    missed = 0
    checked = 0
    for _ in range(40):
        C, P = random_circuit(rng, num_vars=4, max_terms=2, max_factors=2,
                              max_support=2, max_k=2)
        if P.is_zero():
            continue
        checked += 1
        sz = schwartz_zippel(blackbox_from_circuit(C), 50, 11, 67)
        hs = pit_run(C, params)
        if sz.found and hs.status != "witness":
            missed += 1
    assert checked > 0
    print(f"toy completeness: {checked - missed}/{checked} "
          f"hitting-set hits where random search succeeded")
