"""Sums of products of few-variable polynomials, and their transforms.

A circuit computes  sum_i  scale_i * prod_j Q_ij  where every factor Q_ij is a
polynomial touching at most ``declared_s`` of the N variables (of arbitrary
degree).  The factor stores its support, the indices of the variables it
may use, and its polynomial over all N variables, which uses no other
variable; every transform works on those N variables, with no relabel.
Only the `.circuit` format writes a factor's monomials over its support,
and ``parse_circuit`` maps them onto the N variables as it reads them.
A circuit's one compiled form, ``integer_form``, built on first use, holds
it as integer products of the factors' term maps: ``eval_circuit``, the one
evaluator at a point over Q and GF(p) alike, reads it, and expansion
multiplies its products through the one product loop,
``algebra._packed_products``, in one call: each distinct factor is packed
once and every product added into one packed accumulator.  The transform
audit compares that accumulator with a packed polynomial (``expands_to``).

The public constructors of ``FactorPoly`` and ``FewVarCircuit`` check
their input and normalize it (each scale lifted into the field).  The
private ``_factor`` and ``_circuit`` only normalize; the transforms,
expansion and the reader's final assembly build through them from parts
that are already checked.

All transforms return new circuits whose expansion equals the corresponding
polynomial-level operation exactly; the test suite checks this on randomized
suites.  Each is built from two shapes.  ``_rewrite`` rebuilds a circuit
factor by factor through one step, which may rescale the term, replace or
drop the factor, or kill the term: translation, constant normalization and
restriction (which zeroes every dead variable in one pass over the
factors) are one rewrite each.  ``_interpolate`` evaluates one rewrite per
integer node 0..k and recombines the node circuits with Lagrange weights:
coefficient extraction substitutes the node for a variable, and
homogeneous-component extraction scales every variable by it; a term
that misses the variable is not interpolated but goes once into the
constant coefficient, as it is.  So fan-in growth is bounded: T*(k+1)
circuits-worth of terms for one coefficient, T*(k+1)^2 for a derivative
rebuilt from coefficients.

``parse_circuit`` reads the `.circuit` format with the one document reader
of ``algebra`` (``document_lines``, ``read_fields``, ``read_header``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, partial
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import (
    Field,
    FieldElem,
    FrozenValue,
    Mon,
    SparsePolynomial,
    Value,
    _packed,
    _packed_products,
    _poly,
    _shifted,
    coerce,
    document_lines,
    esym_all,
    field_name,
    hom_component,
    multiply_out,
    parse_coeff,
    parse_poly_lines,
    read_fields,
    read_header,
    scale_all_vars,
    substitute,
    translate_poly,
)

DEFAULT_EXPAND_CAP = 10 ** 6
RANDOM_CIRCUIT_TRIES = 200     # draws random_circuit makes before giving up


# ---------------------------------------------------------------------------
# data types

class FactorPoly(FrozenValue):
    """One factor: a polynomial over the circuit's variables that uses only
    those in ``support``, a strictly increasing tuple of their indices."""

    _fields = ("support", "poly")

    def __init__(self, support: Tuple[int, ...], poly: SparsePolynomial):
        if list(support) != sorted(set(support)):
            raise ValueError(f"support {support} must be strictly increasing")
        for mon in poly.terms:
            for v, _ in mon:
                if v not in support:
                    raise ValueError(f"factor polynomial uses variable {v} "
                                     f"outside its support {support}")
        vars(self).update(support=support, poly=poly)


def _factor(support: Tuple[int, ...], poly: SparsePolynomial) -> FactorPoly:
    """The private constructor of a factor, without the public one's
    checks: only for a strictly increasing support that fits the circuit
    the factor goes into and a polynomial over the circuit's variables
    that uses none outside it (the callers are listed in
    tests/test_layout.py)."""
    f = object.__new__(FactorPoly)
    vars(f).update(support=support, poly=poly)
    return f


def _check_factor(f: FactorPoly, num_vars: int, declared_s: int) -> None:
    """Raise unless the factor fits a circuit of ``num_vars`` variables and
    support bound ``declared_s``: its support strictly increasing (which
    ``parse_circuit`` checks here alone), within range and bound, and its
    polynomial over ``num_vars`` variables."""
    if list(f.support) != sorted(set(f.support)):
        raise ValueError(f"support {f.support} must be strictly increasing")
    if len(f.support) > declared_s:
        raise ValueError(
            f"factor support {f.support} exceeds declared_s={declared_s}")
    if f.support and not 0 <= f.support[0] <= f.support[-1] < num_vars:
        raise ValueError(
            f"factor support {f.support} out of range for {num_vars} variables")
    if f.poly.num_vars != num_vars:
        raise ValueError(f"factor polynomial has {f.poly.num_vars} variables "
                         f"but the circuit has {num_vars}")


Term = Tuple[FieldElem, Tuple[FactorPoly, ...]]


class FewVarCircuit(Value):
    """A weighted sum of products of few-variable factor polynomials.

    ``k`` is a caller-declared bound on the individual degree of the expanded
    polynomial (the largest exponent of any single variable); it is metadata,
    verified lazily by expansion in tests, because computing it exactly would
    require the expansion the blackbox setting forbids.
    """

    _fields = ("num_vars", "terms", "declared_s", "field_p", "k")

    def __init__(self, num_vars: int, terms: Sequence[Term], declared_s: int,
                 field_p: Field = None, k: Optional[int] = None):
        """Check the sizes, normalize as ``_circuit`` does (so the terms and
        factor lists are tuples when they are read), then check that every
        factor fits the circuit."""
        for name, value in (("num_vars", num_vars), ("declared_s", declared_s),
                            ("k", k)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        self.num_vars, self.declared_s, self.field_p, self.k = \
            num_vars, declared_s, field_p, k
        self.terms = _circuit(num_vars, terms, declared_s, field_p, k).terms
        for _, factors in self.terms:
            for f in factors:
                _check_factor(f, self.num_vars, self.declared_s)
                if f.poly.field_p != self.field_p:
                    raise ValueError(
                        f"factor over {field_name(f.poly.field_p)} in a "
                        f"{field_name(self.field_p)} circuit")

    @property
    def top_fanin(self) -> int:
        return len(self.terms)

    @property
    def max_product_fanin(self) -> int:
        """Largest number of factors in any term (0 for an empty circuit).
        Product fan-ins may be ragged; formulas use the maximum."""
        return max((len(fs) for _, fs in self.terms), default=0)

    def max_support(self) -> int:
        return max((len(f.support) for _, fs in self.terms for f in fs), default=0)

    @cached_property
    def integer_form(self) -> Tuple[int, Tuple]:
        """The one compiled form of the circuit, read by ``eval_circuit``,
        ``expand_circuit`` and ``expands_to``: L and terms (mult, factors),
        each factor a term map, such that the sum over terms of mult times
        the product of the factors is L times the circuit.  A factor whose
        coefficients are all ints, as is every factor over GF(p) and every
        factor read with integer coefficients, is its polynomial's term map
        itself; any other is cleared by the lcm of its coefficients'
        denominators.  The term's scale and those lcms fold into mult, and L
        is the lcm of the terms' denominators (1 over GF(p)).  Terms with
        scale 0 are dropped.
        The cache cannot go stale: nothing reassigns ``terms`` once a
        constructor returns, and a circuit with another ``k`` is a new
        circuit."""
        cleared = []
        for scale, factors in self.terms:
            if not scale:
                continue
            num, den = scale.numerator, scale.denominator
            polys = []
            for f in factors:
                terms = f.poly.terms
                if all(type(c) is int for c in terms.values()):
                    polys.append(terms)
                    continue
                d = math.lcm(*(c.denominator for c in terms.values()))
                polys.append({mon: c.numerator * (d // c.denominator)
                              for mon, c in terms.items()})
                den *= d
            cleared.append((num, den, tuple(polys)))
        L = math.lcm(*(den for _, den, _ in cleared))
        return L, tuple((num * (L // den), polys) for num, den, polys in cleared)


def _circuit(num_vars: int, terms, declared_s: int, field_p: Field,
             k: Optional[int]) -> FewVarCircuit:
    """The private constructor of a circuit: the normalization alone, each
    scale lifted into the field and the terms and factor lists made tuples,
    with none of the public constructor's checks.  Only for terms whose
    factors are checked for this circuit's variables, support bound and
    field (the callers are listed in tests/test_layout.py)."""
    C = object.__new__(FewVarCircuit)
    C.num_vars, C.declared_s, C.field_p, C.k = num_vars, declared_s, field_p, k
    C.terms = tuple((coerce(scale, field_p), tuple(factors))
                    for scale, factors in terms)
    return C


# ---------------------------------------------------------------------------
# evaluation and expansion

def eval_circuit(C: FewVarCircuit, point: Sequence) -> FieldElem:
    """The value at a point, equal to the expansion's: a Fraction over Q at
    int and Fraction coordinates, and an int in [0, p) over GF(p), after
    coercing each coordinate into the field.  Over Q a zero total, the
    common value in an identity scan, is Fraction(0), with no gcd."""
    if len(point) != C.num_vars:
        raise ValueError(
            f"dimension mismatch: point has {len(point)} values, circuit has "
            f"{C.num_vars} variables")
    p = C.field_p
    if p is not None:
        point = [coerce(v, p) for v in point]
    L, terms = C.integer_form
    total = 0
    for prod, polys in terms:
        for poly in polys:
            value = 0
            for mon, c in poly.items():
                for v, e in mon:
                    c *= point[v] if e == 1 else point[v] ** e
                value += c
            prod *= value
            if not prod:
                break
        total += prod
    if p is not None:
        return total % p
    return Fraction(total, L) if total else Fraction(0)


def _check_cap(C: FewVarCircuit, cap: Optional[int] = None) -> None:
    """Refuse to expand C when the pre-merge term-count estimate, over
    every term, exceeds the cap (argument, else 10^6)."""
    limit = DEFAULT_EXPAND_CAP if cap is None else cap
    est = 0
    for _, factors in C.terms:
        count = 1
        for f in factors:
            count *= max(1, len(f.poly.terms))
        est += count
    if est > limit:
        raise ValueError(f"too large to expand: estimated {est} terms > cap {limit}")


def expand_circuit(C: FewVarCircuit, cap: Optional[int] = None) -> SparsePolynomial:
    """The exact polynomial the circuit computes, refused as ``_check_cap``
    refuses: the products of its ``integer_form`` multiplied out in one
    call, each sum divided by L once, and one polynomial built at the end
    that only normalizes it."""
    _check_cap(C, cap)
    L, products = C.integer_form
    acc = multiply_out(products, C.field_p)
    if L > 1:
        acc = {mon: Fraction(c, L) for mon, c in acc.items()}
    return _poly(C.num_vars, acc, C.field_p)


def expands_to(C: FewVarCircuit, P: SparsePolynomial,
               shift: Optional[Sequence] = None) -> bool:
    """Whether ``expand_circuit(C) == P``, or ``== translate_poly(P,
    shift)`` when a shift is given, with the same refusals, decided on
    packed monomials with neither polynomial built.  The expansion packs at
    a W of at least the bit length of P's largest exponent, so P, shifted
    or not, packs at that W with no carry, and equal keys are equal
    monomials.  The expansion's sums are L times its coefficients, so each
    is compared with L times P's, after dropping zeros and reducing mod p."""
    _check_cap(C)
    L, products = C.integer_form
    p = C.field_p
    acc, W = _packed_products(products, p, P.individual_degree().bit_length())
    want = _packed(P.terms, W) if shift is None else _shifted(P, shift, W)
    if (P.num_vars, P.field_p) != (C.num_vars, p):
        return False
    if p is None:
        return {key: c for key, c in acc.items() if c} == \
            {key: L * r for key, r in want.items() if r}
    return {key: c % p for key, c in acc.items() if c % p} == \
        {key: r % p for key, r in want.items() if r % p}


# ---------------------------------------------------------------------------
# the two shapes every transform takes

def _rewrite(C: FewVarCircuit, step) -> FewVarCircuit:
    """Rebuild C factor by factor.  ``step(f)`` returns ``(c, g)``: c
    multiplies the term's scale, and g replaces f (None drops f).  A term
    whose scale becomes 0, or one of whose factors becomes the zero
    polynomial, is dropped."""
    terms: List[Term] = []
    for scale, factors in C.terms:
        kept: List[FactorPoly] = []
        for f in factors:
            c, g = step(f)
            if g is not None and g.poly.is_zero():
                c = 0
            if c != 1:
                scale = scale * c
                if not scale:
                    break
            if g is not None:
                kept.append(g)
        if scale:
            terms.append((scale, tuple(kept)))
    return _circuit(C.num_vars, terms, C.declared_s, C.field_p, C.k)


def _lagrange_coeff_matrix(count: int, wanted: Sequence[int], field_p: Field):
    """W[v][t] = coefficient of y^i, i = wanted[t], in the Lagrange basis
    polynomial through node v of the nodes 0..count-1.  Writing P(y) =
    sum_i c_i y^i, the coefficients recombine the node evaluations as
    c_i = sum_v W[v][t] * P(v)."""
    W: List[List[FieldElem]] = []
    for v in range(count):
        # expand prod_{u != v} (y - u) / (v - u)
        coeffs = [1]
        denom = 1
        for u in range(count):
            if u == v:
                continue
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - c * u
            coeffs = nxt
            denom = denom * (v - u)
        # denom is a product of differences of distinct nodes: a unit mod p
        W.append([coerce(Fraction(coeffs[i], denom), field_p) for i in wanted])
    return W


def _interpolate(C: FewVarCircuit, count: int, at_node,
                 wanted: Sequence[int]) -> List[FewVarCircuit]:
    """Circuits for the coefficients of y^i, i in ``wanted``, of a polynomial
    in y of degree below ``count`` whose value at y = x is the circuit
    ``_rewrite(C, at_node(x))``.  The nodes are the integers 0..count-1,
    distinct in the field: always in characteristic zero, and over GF(p)
    when count <= p.  A node circuit is built only when some wanted
    coefficient gives it a nonzero weight."""
    if C.field_p is not None and count > C.field_p:
        raise ValueError(
            f"need {count} distinct nodes but GF({C.field_p}) has only {C.field_p}")
    outs: List[List[Term]] = [[] for _ in wanted]
    for x, weights in enumerate(_lagrange_coeff_matrix(count, wanted, C.field_p)):
        if not any(weights):
            continue
        node = _rewrite(C, at_node(x)).terms
        for terms, w in zip(outs, weights):
            if w:
                terms.extend([(scale * w, factors) for scale, factors in node])
    return [_circuit(C.num_vars, terms, C.declared_s, C.field_p, C.k)
            for terms in outs]


def _substitute_factor(gvars: FrozenSet[int], value, f: FactorPoly):
    """Set every variable in ``gvars`` to one scalar inside a factor, as a
    rewrite step (the factor comes last, for ``partial``): the factor is
    kept when none is in its support.  One pass over the factor's terms
    substitutes the value, and the support drops those variables."""
    if gvars.isdisjoint(f.support):
        return 1, f
    val = coerce(value, f.poly.field_p)
    out: Dict[Mon, FieldElem] = {}
    for mon, c in f.poly.terms.items():
        rest = []
        for v, e in mon:
            if v in gvars:
                c = c * val ** e
            else:
                rest.append((v, e))
        key = tuple(rest)
        out[key] = out.get(key, 0) + c
    support = tuple(g for g in f.support if g not in gvars)
    return 1, _factor(support, _poly(f.poly.num_vars, out, f.poly.field_p))


# ---------------------------------------------------------------------------
# transforms

def coeff_circuits(C: FewVarCircuit, y: int) -> List[FewVarCircuit]:
    """Circuits for the coefficients of y^0 .. y^k, viewing the expansion as a
    univariate in y.

    A term none of whose factors holds y in its support is its own share of
    the y^0 coefficient: it enters that circuit once, as it is, ahead of
    the rest.  The terms that touch y are interpolated, evaluated at the
    k+1 nodes 0..k and recombined with the Lagrange coefficient weights.
    So with T_y of the T terms touching y, the y^i circuit has top fan-in
    at most T_y*(k+1) for i >= 1, and every output at most T*(k+1).
    Requires the declared individual-degree bound k."""
    if C.k is None:
        raise ValueError("coefficient extraction needs the declared degree bound k")
    if not 0 <= y < C.num_vars:
        raise ValueError(f"variable {y} out of range")
    touching: List[Term] = []
    missing: List[Term] = []
    for term in C.terms:
        hits = any(y in f.support for f in term[1])
        (touching if hits else missing).append(term)
    ys = frozenset((y,))
    coeffs = _interpolate(
        _circuit(C.num_vars, touching, C.declared_s, C.field_p, C.k), C.k + 1,
        lambda x: partial(_substitute_factor, ys, x), range(C.k + 1))
    coeffs[0] = _circuit(C.num_vars, tuple(missing) + coeffs[0].terms,
                         C.declared_s, C.field_p, C.k)
    return coeffs


def derivative_circuit(C: FewVarCircuit, y: int, j: int,
                       coeffs: List[FewVarCircuit]) -> FewVarCircuit:
    """A circuit for the j-th partial derivative in y, rebuilt from
    ``coeffs``, the circuits ``coeff_circuits(C, y)``, which a caller that
    also checks the coefficients builds once for both: the y^i coefficient
    contributes its falling factorial times y^(i-j).  Top fan-in stays
    within T*(k+1)^2; factor supports never grow (only a single-variable
    power of y may be added)."""
    if j < 0:
        raise ValueError("derivative order must be nonnegative")
    if C.field_p is not None:
        raise ValueError("circuit derivatives need characteristic zero")
    if C.k is None:
        raise ValueError("derivative extraction needs the declared degree bound k")
    terms: List[Term] = []
    for i in range(j, C.k + 1):
        fall = math.perm(i, j)
        power: Optional[FactorPoly] = None
        if i > j:
            power = _factor((y,), _poly(C.num_vars, {((y, i - j),): 1}, C.field_p))
        for scale, factors in coeffs[i].terms:
            terms.append((scale * fall, factors + (power,) if power else factors))
    return _circuit(C.num_vars, terms, max(C.declared_s, 1), C.field_p, C.k)


def hom_component_circuit(C: FewVarCircuit, i: int,
                          total_degree_bound: int) -> FewVarCircuit:
    """A circuit for the degree-i homogeneous component of the expansion.

    Substituting X -> t*X turns the degree grading into powers of t, so the
    component falls out of interpolation at t = 0..total_degree_bound; top
    fan-in at most T*(total_degree_bound+1) and factor supports unchanged."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    D = total_degree_bound
    if D < 0:
        raise ValueError("total degree bound must be nonnegative")
    if i > D:
        return _circuit(C.num_vars, (), C.declared_s, C.field_p, C.k)
    def scaled(t):
        return lambda f: (1, _factor(f.support, scale_all_vars(f.poly, t)))
    return _interpolate(C, D + 1, scaled, [i])[0]


def translate_circuit(C: FewVarCircuit, a: Sequence) -> FewVarCircuit:
    """Shift every variable: each factor is translated with one Taylor-shift
    pass per variable it uses, so supports, term count, and product fan-ins
    are unchanged."""
    if len(a) != C.num_vars:
        raise ValueError(
            f"dimension mismatch: shift has {len(a)} values, circuit has "
            f"{C.num_vars} variables")
    return _rewrite(C, lambda f: (1, _factor(f.support, translate_poly(f.poly, a))))


def restrict_circuit(C: FewVarCircuit, alive: FrozenSet[int]) -> FewVarCircuit:
    """Zero every variable outside ``alive`` inside each factor, in one pass;
    supports shrink accordingly and killed terms drop out."""
    dead = frozenset(range(C.num_vars)).difference(alive)
    return _rewrite(C, partial(_substitute_factor, dead, 0))


def normalize_constants(C: FewVarCircuit) -> FewVarCircuit:
    """Rescale factors so every constant term is 0 or 1, pushing the extracted
    constants into the term scales.  A factor that is itself a constant is
    absorbed entirely, so a zero factor kills its term."""
    def step(f: FactorPoly):
        c0 = f.poly.constant_term()
        if f.poly.degree() == 0:
            return c0, None
        if c0 and c0 != 1:
            return c0, _factor(
                f.support, f.poly.scale(coerce(Fraction(1, c0), C.field_p)))
        return 1, f
    return _rewrite(C, step)


# ---------------------------------------------------------------------------
# homogenization

class HomogPiece(NamedTuple):
    """One term of the decomposition: the factors without a constant term,
    and the positive-degree parts of the factors whose constant term is 1
    (these feed the elementary symmetric sum)."""

    scale: FieldElem
    plain_factors: Tuple[FactorPoly, ...]
    esym_args: Tuple[SparsePolynomial, ...]
    l_max: int


class HomogDecomposition(NamedTuple):
    """Structured form of the degree-n component of a normalized circuit.

    Splitting each term's factors by constant term (0 or 1) and expanding the
    product of the (1 + positive part) factors as an elementary symmetric sum
    gives, per term,

        Hom^n[ prod_(const 0) Q  *  sum_l ESYM_l(positive parts) ]

    with the sum truncated to l <= n - (#const-0 factors), since every
    constant-free factor contributes degree at least 1.  Terms with more
    constant-free factors than n cannot reach degree n and are dropped.
    """

    num_vars: int
    target_degree: int
    field_p: Field
    pieces: Tuple[HomogPiece, ...]

    def value(self) -> SparsePolynomial:
        """Evaluate the decomposition to an explicit polynomial."""
        n = self.target_degree
        acc = SparsePolynomial.zero(self.num_vars, self.field_p)
        for piece in self.pieces:
            prod = _poly(self.num_vars, multiply_out(
                [(1, [f.poly.terms for f in piece.plain_factors])],
                self.field_p), self.field_p)
            esums = esym_all(list(piece.esym_args), piece.l_max) if piece.esym_args \
                else [SparsePolynomial.const(self.num_vars, 1, self.field_p)]
            total_esym = SparsePolynomial.zero(self.num_vars, self.field_p)
            for l in range(piece.l_max + 1):
                total_esym = total_esym + esums[l]
            part = hom_component(prod * total_esym, n)
            acc = acc + part.scale(piece.scale)
        return acc


def homogenize(C: FewVarCircuit, n: int) -> HomogDecomposition:
    """Decompose the degree-n component of a normalized circuit.

    Every factor must have constant term 0 or 1 (run normalize_constants
    first).  The decomposition's value() equals the degree-n homogeneous
    component of the expansion, exactly.
    """
    if n < 0:
        raise ValueError("target degree must be nonnegative")
    pieces: List[HomogPiece] = []
    for scale, factors in C.terms:
        plain: List[FactorPoly] = []
        args: List[SparsePolynomial] = []
        for f in factors:
            c0 = f.poly.constant_term()
            if not c0:
                plain.append(f)
            elif c0 == 1:
                pos = {m: c for m, c in f.poly.terms.items() if m}
                args.append(_poly(C.num_vars, pos, f.poly.field_p))
            else:
                raise ValueError(
                    f"factor constant term {c0} is neither 0 nor 1; "
                    "normalize the circuit first")
        if len(plain) > n:
            continue
        l_max = min(len(args), n - len(plain))
        pieces.append(HomogPiece(scale, tuple(plain), tuple(args), l_max))
    return HomogDecomposition(C.num_vars, n, C.field_p, tuple(pieces))


# ---------------------------------------------------------------------------
# class membership report

class ClassReport(NamedTuple):
    t_ok: bool
    k_ok: bool
    d_ok: bool
    support_ok: bool

    @property
    def ok(self) -> bool:
        return self.t_ok and self.k_ok and self.d_ok and self.support_ok


def class_check(C: FewVarCircuit, c: float, mu: float) -> ClassReport:
    """Check the size-parameter regime: T and k below log^c N, product fan-in
    below N^c, and every factor support at most N^mu."""
    N = C.num_vars
    log_n = math.log2(N) if N > 1 else 0.0
    t_limit = log_n ** c
    k = C.k
    return ClassReport(
        t_ok=C.top_fanin < t_limit,
        k_ok=(k is not None and k < t_limit),
        d_ok=C.max_product_fanin < N ** c,
        support_ok=C.max_support() <= N ** mu,
    )


# ---------------------------------------------------------------------------
# text format

def parse_circuit(text: str) -> FewVarCircuit:
    """Parse the circuit document format; raises with a line number on any
    malformed input."""
    lines = document_lines(text)
    if not lines:
        raise ValueError("empty document: missing `fewvar-circuit v1` header")
    ln, head = lines[0]
    if head != "fewvar-circuit v1":
        raise ValueError(f"line {ln}: expected `fewvar-circuit v1`, got {head!r}")
    if len(lines) < 2:
        raise ValueError("missing `vars=... field=... s=... k=...` line")
    header = read_header(*lines[1], ("vars", "field", "s", "k"),
                         lambda f, n, p: FewVarCircuit(n, (), int(f["s"]), p, (
                             None if f["k"] == "unknown" else int(f["k"]))))
    blocks: List[Tuple[FieldElem, list]] = []   # (scale, [(line, support, coeffs)])
    coeffs = None           # the coeff lines of the open factor block
    for ln, body in lines[2:]:
        if body.startswith("coeff "):
            if coeffs is None:
                raise ValueError(f"line {ln}: coeff line outside a factor block")
            coeffs.append((ln, body))
        elif body.startswith("term "):
            kv = read_fields(ln, body[len("term "):], ("scale",), "term line needs")
            try:
                blocks.append((parse_coeff(kv["scale"], header.field_p), []))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {ln}: bad scale: {exc}") from None
            coeffs = None
        elif body.startswith("factor "):
            if not blocks:
                raise ValueError(f"line {ln}: factor before any `term` line")
            kv = read_fields(ln, body[len("factor "):], ("support",),
                             "factor line needs")
            try:
                sup = tuple(map(int, kv["support"].split(","))) \
                    if kv["support"] else ()
            except ValueError as exc:
                raise ValueError(f"line {ln}: bad support: {exc}") from None
            coeffs = []
            blocks[-1][1].append((ln, sup, coeffs))
        else:
            raise ValueError(f"line {ln}: unrecognized line {body!r}")

    for _, factors in blocks:      # each block becomes its factor, in place
        for i, (fln, sup, coeffs) in enumerate(factors):
            poly = parse_poly_lines(coeffs, header.num_vars, header.field_p,
                                    f"factor at line {fln}: ", sup)
            factors[i] = _factor(sup, poly)
            try:
                _check_factor(factors[i], header.num_vars, header.declared_s)
            except ValueError as exc:
                raise ValueError(f"line {fln}: {exc}") from None
    return _circuit(header.num_vars, blocks, header.declared_s,
                    header.field_p, header.k)


# ---------------------------------------------------------------------------
# random circuits and the transform audit

def random_circuit(rng, num_vars: int, max_terms: int, max_factors: int,
                   max_support: int, max_k: int
                   ) -> Tuple[FewVarCircuit, SparsePolynomial]:
    """A random circuit over Q within the given size bounds, with the
    declared k set to the true individual degree of the expansion
    (recomputed exactly), and that expansion.  Retries until the
    individual degree fits max_k; a draw ``_degree_above`` rejects is
    neither built nor expanded."""
    for _ in range(RANDOM_CIRCUIT_TRIES):
        T = rng.integers(1, max_terms + 1)
        terms: List[Term] = []
        for _ in range(T):
            scale = rng.integers(-3, 4) or 1
            d = rng.integers(1, max_factors + 1)
            factors: List[FactorPoly] = []
            for _ in range(d):
                ssize = rng.integers(1, max_support + 1)
                support = tuple(sorted(rng.choice(num_vars, ssize)))
                nterms = rng.integers(1, 4)
                items = []
                for _ in range(nterms):
                    pairs = []
                    for v in support:
                        e = rng.integers(0, 3)
                        if e:
                            pairs.append((v, e))
                    c = rng.integers(-3, 4)
                    if c:
                        items.append((c, pairs))
                poly = SparsePolynomial.from_terms(num_vars, items)
                if poly.is_zero():
                    poly = SparsePolynomial.const(num_vars, 1)
                factors.append(FactorPoly(support, poly))
            terms.append((scale, tuple(factors)))
        if _degree_above(terms, max_k):
            continue
        C = FewVarCircuit(num_vars, tuple(terms), max_support)
        P = expand_circuit(C)
        k = P.individual_degree()
        if k <= max_k:
            return _circuit(num_vars, C.terms, max_support, None, k), P
    raise RuntimeError("could not generate a circuit within the degree bound")


def _degree_above(terms: Sequence[Term], bound: int) -> bool:
    """Whether some variable v surely has degree above ``bound`` in the
    sum of the terms, none of whose scales and factors is zero, decided
    without expanding it: d_v, the largest over the terms of the sum of
    the factors' degrees in v, exceeds the bound and exactly one term
    attains it.  That term's coefficient of v^d_v is its scale times the
    factors' leading coefficients in v, none of them zero, and no other
    term reaches v^d_v, so it cannot cancel."""
    top: Dict[int, Tuple[int, int]] = {}    # v -> (d_v, terms attaining it)
    for _, factors in terms:
        deg: Dict[int, int] = {}
        for f in factors:
            for v in f.support:
                deg[v] = deg.get(v, 0) + f.poly.individual_degree(v)
        for v, d in deg.items():
            most, ties = top.get(v, (0, 0))
            if d >= most:
                top[v] = (d, ties + 1 if d == most else 1)
    return any(d > bound and ties == 1 for d, ties in top.values())


class AuditReport(NamedTuple):
    circuits: int
    checks: int
    failures: List[str]
    max_deriv_fanin_ratio: float
    max_coeff_fanin_ratio: float

    @property
    def ok(self) -> bool:
        return not self.failures


def transform_audit(count: int, seed: int, num_vars: int = 10, max_terms: int = 4,
                    max_factors: int = 4, max_support: int = 3,
                    max_k: int = 3) -> AuditReport:
    """Check every transform against the polynomial-level operation on random
    circuits, exactly, and audit the fan-in bounds.

    For each circuit: derivative, coefficient extraction, homogeneous
    component, translation, and restriction are each compared by
    ``expands_to`` with the same operation applied to the expansion.
    Fan-in ratios report the worst observed top fan-in against the
    T*(k+1)^2 and T*(k+1) ceilings.  Each step is done once: the expansion
    is the one ``random_circuit`` computed to find k, and the coefficient
    circuits of y, built once, serve both the derivative and the
    coefficient check.
    """
    for name, value, least in (("count", count, 1), ("num_vars", num_vars, 1),
                               ("max_terms", max_terms, 1),
                               ("max_factors", max_factors, 1),
                               ("max_support", max_support, 1),
                               ("max_k", max_k, 0)):
        if value < least:
            raise ValueError(f"need {name} >= {least}, got {value}")
    from .algebra import derivative_poly, coeffs_in_var
    from .rng import named_rng

    rng = named_rng(seed, "transform-audit")
    failures: List[str] = []
    checks = 0
    worst_d = 0.0
    worst_c = 0.0
    for idx in range(count):
        C, P = random_circuit(rng, num_vars, max_terms, max_factors,
                              max_support, max_k)
        T, k = C.top_fanin, C.k
        y = rng.integers(0, num_vars)
        j = rng.integers(0, 3)

        cs = coeff_circuits(C, y)
        dC = derivative_circuit(C, y, j, cs)
        checks += 1
        if not expands_to(dC, derivative_poly(P, y, j)):
            failures.append(f"circuit {idx}: derivative (y={y}, j={j}) mismatch")
        bound_d = T * (k + 1) ** 2
        if dC.top_fanin > bound_d:
            failures.append(
                f"circuit {idx}: derivative fan-in {dC.top_fanin} > {bound_d}")
        worst_d = max(worst_d, dC.top_fanin / bound_d)

        ref = coeffs_in_var(P, y)
        checks += 1
        for i, ci in enumerate(cs):
            want = ref[i] if i < len(ref) else SparsePolynomial.zero(
                C.num_vars, C.field_p)
            if not expands_to(ci, want):
                failures.append(f"circuit {idx}: coefficient {i} of x{y} mismatch")
                break
            bound_c = T * (k + 1)
            if ci.top_fanin > bound_c:
                failures.append(
                    f"circuit {idx}: coefficient fan-in {ci.top_fanin} > {bound_c}")
            worst_c = max(worst_c, ci.top_fanin / bound_c)

        deg = P.degree()
        i_hom = rng.integers(0, deg + 2)
        hC = hom_component_circuit(C, i_hom, deg)
        checks += 1
        if not expands_to(hC, hom_component(P, i_hom)):
            failures.append(f"circuit {idx}: degree-{i_hom} component mismatch")

        shift = [rng.integers(-2, 3) for _ in range(num_vars)]
        tC = translate_circuit(C, shift)
        checks += 1
        if not expands_to(tC, P, shift):
            failures.append(f"circuit {idx}: translation mismatch")

        alive = frozenset(v for v in range(num_vars) if rng.random() < 0.6)
        rC = restrict_circuit(C, alive)
        Pr = P
        for v in range(num_vars):
            if v not in alive:
                Pr = substitute(Pr, v, 0)
        checks += 1
        if not expands_to(rC, Pr):
            failures.append(f"circuit {idx}: restriction mismatch")
    return AuditReport(count, checks, failures, worst_d, worst_c)
