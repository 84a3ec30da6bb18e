"""Sums of products of few-variable polynomials, and their transforms.

A circuit computes  sum_i  scale_i * prod_j Q_ij  where every factor Q_ij is a
polynomial touching at most ``declared_s`` of the N global variables (of
arbitrary degree).  The factor stores its support (global indices) and a local
polynomial over ``len(support)`` variables.

All transforms return new circuits whose expansion equals the corresponding
polynomial-level operation exactly; the test suite checks this on randomized
suites.  Coefficient and homogeneous-component extraction go through exact
interpolation at the integer nodes 0..k, so fan-in growth is bounded:
T*(k+1) circuits-worth of terms for one coefficient, T*(k+1)^2 for a
derivative rebuilt from coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .algebra import (
    Field,
    FieldElem,
    SparsePolynomial,
    coerce,
    esym_all,
    field_name,
    hom_component,
    parse_coeff,
    parse_poly_lines,
    relabel_vars,
    scale_all_vars,
    substitute,
    translate_poly,
    serialize_poly,
    _parse_field,
)
from .rng import named_rng

DEFAULT_EXPAND_CAP = 10 ** 6


# ---------------------------------------------------------------------------
# data types

@dataclass(frozen=True)
class FactorPoly:
    """One factor: a polynomial over a small ordered set of global variables."""

    support: Tuple[int, ...]
    poly: SparsePolynomial

    def __post_init__(self):
        if list(self.support) != sorted(set(self.support)):
            raise ValueError(f"support {self.support} must be strictly increasing")
        if self.poly.num_vars != len(self.support):
            raise ValueError(
                f"factor polynomial has {self.poly.num_vars} variables but "
                f"support lists {len(self.support)}")

    def embed(self, num_vars: int) -> SparsePolynomial:
        """The factor as a polynomial over the full variable set."""
        mapping = {i: g for i, g in enumerate(self.support)}
        return relabel_vars(self.poly, num_vars, mapping)

    def eval_at(self, point: Sequence) -> FieldElem:
        return self.poly.eval_at([point[g] for g in self.support])


def _check_factor(f: FactorPoly, num_vars: int, declared_s: int) -> None:
    """Raise unless the factor's support fits a circuit of ``num_vars``
    variables and support bound ``declared_s``."""
    if len(f.support) > declared_s:
        raise ValueError(
            f"factor support {f.support} exceeds declared_s={declared_s}")
    if f.support and not 0 <= f.support[0] <= f.support[-1] < num_vars:
        raise ValueError(
            f"factor support {f.support} out of range for {num_vars} variables")


@dataclass(frozen=True)
class RestrictionMask:
    """The set of variable indices kept alive; everything else is zeroed."""

    alive: FrozenSet[int]

    @classmethod
    def of(cls, indices) -> "RestrictionMask":
        return cls(frozenset(indices))


Term = Tuple[FieldElem, Tuple[FactorPoly, ...]]


@dataclass
class FewVarCircuit:
    """A weighted sum of products of few-variable factor polynomials.

    ``k`` is a caller-declared bound on the individual degree of the expanded
    polynomial (the largest exponent of any single variable); it is metadata,
    verified lazily by expansion in tests, because computing it exactly would
    require the expansion the blackbox setting forbids.
    """

    num_vars: int
    terms: Tuple[Term, ...]
    declared_s: int
    field_p: Field = None
    k: Optional[int] = None

    def __post_init__(self):
        terms = []
        for scale, factors in self.terms:
            scale = coerce(scale, self.field_p)
            factors = tuple(factors)
            for f in factors:
                _check_factor(f, self.num_vars, self.declared_s)
                if f.poly.field_p != self.field_p:
                    raise ValueError(
                        f"factor over {field_name(f.poly.field_p)} in a "
                        f"{field_name(self.field_p)} circuit")
            terms.append((scale, factors))
        self.terms = tuple(terms)

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


# ---------------------------------------------------------------------------
# evaluation and expansion

def eval_circuit(C: FewVarCircuit, point: Sequence) -> FieldElem:
    """Evaluate by summing factor products; agrees with evaluating the
    expansion."""
    if len(point) != C.num_vars:
        raise ValueError(
            f"dimension mismatch: point has {len(point)} values, circuit has "
            f"{C.num_vars} variables")
    vals = [coerce(v, C.field_p) for v in point]
    total = 0
    for scale, factors in C.terms:
        prod = scale
        for f in factors:
            prod *= f.eval_at(vals)
            if not prod:
                break
        total += prod
    return coerce(total, C.field_p)


def expand_circuit(C: FewVarCircuit, cap: Optional[int] = None) -> SparsePolynomial:
    """The exact polynomial the circuit computes.

    Refuses when the pre-merge term-count estimate exceeds the cap (argument,
    else 10^6).
    """
    limit = DEFAULT_EXPAND_CAP if cap is None else cap
    est = 0
    for _, factors in C.terms:
        count = 1
        for f in factors:
            count *= max(1, len(f.poly.terms))
        est += count
    if est > limit:
        raise ValueError(f"too large to expand: estimated {est} terms > cap {limit}")
    acc = SparsePolynomial.zero(C.num_vars, C.field_p)
    for scale, factors in C.terms:
        prod = SparsePolynomial.const(C.num_vars, scale, C.field_p)
        for f in factors:
            prod = prod * f.embed(C.num_vars)
            if prod.is_zero():
                break
        acc = acc + prod
    return acc


def normalize_constants(C: FewVarCircuit) -> FewVarCircuit:
    """Rescale factors so every constant term is 0 or 1, pushing the extracted
    constants into the term scales.  A factor that is itself a nonzero
    constant is absorbed entirely; a zero factor kills its term."""
    new_terms: List[Term] = []
    for scale, factors in C.terms:
        kept: List[FactorPoly] = []
        dead = False
        for f in factors:
            if f.poly.is_zero():
                dead = True
                break
            c0 = f.poly.constant_term()
            if f.poly.degree() == 0:
                scale = scale * c0
                continue
            if c0 and c0 != 1:
                scale = scale * c0
                f = FactorPoly(f.support,
                               f.poly.scale(coerce(Fraction(1, c0), C.field_p)))
            kept.append(f)
        if dead or not scale:
            continue
        new_terms.append((scale, tuple(kept)))
    return FewVarCircuit(C.num_vars, tuple(new_terms), C.declared_s, C.field_p, C.k)


# ---------------------------------------------------------------------------
# interpolation helpers

def _lagrange_coeff_matrix(nodes: List[FieldElem], field_p: Field):
    """W[v][i] = coefficient of y^i in the Lagrange basis polynomial through
    node v.  Writing P(y) = sum_i c_i y^i, the coefficients recombine the node
    evaluations as c_i = sum_v W[v][i] * P(node_v)."""
    k = len(nodes) - 1
    W: List[List[FieldElem]] = []
    for v, xv in enumerate(nodes):
        # expand prod_{u != v} (y - x_u) / (x_v - x_u)
        coeffs = [1]
        denom = 1
        for u, xu in enumerate(nodes):
            if u == v:
                continue
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - c * xu
            coeffs = nxt
            denom = denom * (xv - xu)
        # denom is a product of differences of distinct nodes: a unit mod p
        row = [coerce(Fraction(c, denom), field_p) for c in coeffs]
        row += [0] * (k + 1 - len(row))
        W.append(row)
    return W


def _interp_nodes(count: int, field_p: Field) -> List[int]:
    """The integers 0..count-1, distinct in the field: always in
    characteristic zero, and over GF(p) when count <= p."""
    if field_p is not None and count > field_p:
        raise ValueError(
            f"need {count} distinct nodes but GF({field_p}) has only {field_p}")
    return list(range(count))


def _substitute_factor(f: FactorPoly, gvar: int, value) -> Optional[FactorPoly]:
    """Set one global variable to a scalar inside a factor.  Returns None when
    the factor becomes the zero polynomial (killing its term)."""
    if gvar not in f.support:
        return f
    local = f.support.index(gvar)
    sub = substitute(f.poly, local, value)
    if sub.is_zero():
        return None
    new_support = tuple(v for v in f.support if v != gvar)
    mapping = {i: (i if i < local else i - 1) for i in range(len(f.support))}
    del mapping[local]
    lowered = relabel_vars(sub, len(new_support), mapping)
    return FactorPoly(new_support, lowered)


def _substitute_circuit(C: FewVarCircuit, gvar: int, value) -> FewVarCircuit:
    new_terms: List[Term] = []
    for scale, factors in C.terms:
        kept: List[FactorPoly] = []
        dead = False
        for f in factors:
            nf = _substitute_factor(f, gvar, value)
            if nf is None:
                dead = True
                break
            kept.append(nf)
        if not dead:
            new_terms.append((scale, tuple(kept)))
    return FewVarCircuit(C.num_vars, tuple(new_terms), C.declared_s, C.field_p, C.k)


# ---------------------------------------------------------------------------
# transforms

def coeff_circuits(C: FewVarCircuit, y: int) -> List[FewVarCircuit]:
    """Circuits for the coefficients of y^0 .. y^k, viewing the expansion as a
    univariate in y.

    Built by evaluating y at the k+1 nodes 0..k and recombining with the
    Lagrange coefficient weights, so each output has top fan-in at most
    T*(k+1).  Requires the declared individual-degree bound k."""
    if C.k is None:
        raise ValueError("coefficient extraction needs the declared degree bound k")
    if not 0 <= y < C.num_vars:
        raise ValueError(f"variable {y} out of range")
    k = C.k
    nodes = _interp_nodes(k + 1, C.field_p)
    W = _lagrange_coeff_matrix(nodes, C.field_p)
    evaluated = [_substitute_circuit(C, y, nodes[v]) for v in range(k + 1)]
    outs: List[FewVarCircuit] = []
    for i in range(k + 1):
        terms: List[Term] = []
        for v in range(k + 1):
            w = W[v][i]
            if not w:
                continue
            for scale, factors in evaluated[v].terms:
                s = scale * w
                if s:
                    terms.append((s, factors))
        outs.append(FewVarCircuit(C.num_vars, tuple(terms), C.declared_s,
                                  C.field_p, C.k))
    return outs


def derivative_circuit(C: FewVarCircuit, y: int, j: int) -> FewVarCircuit:
    """A circuit for the j-th partial derivative in y, rebuilt from the
    coefficient circuits: the y^i coefficient contributes its falling
    factorial times y^(i-j).  Top fan-in stays within T*(k+1)^2; factor
    supports never grow (only a single-variable power of y may be added)."""
    if j < 0:
        raise ValueError("derivative order must be nonnegative")
    if C.field_p is not None:
        raise ValueError("circuit derivatives need characteristic zero")
    if C.k is None:
        raise ValueError("derivative extraction needs the declared degree bound k")
    coeffs = coeff_circuits(C, y)
    terms: List[Term] = []
    for i in range(j, C.k + 1):
        fall = 1
        for t in range(j):
            fall *= i - t
        if fall == 0:
            continue
        power: Optional[FactorPoly] = None
        if i > j:
            ypoly = SparsePolynomial(1, {((0, i - j),): 1}, C.field_p)
            power = FactorPoly((y,), ypoly)
        for scale, factors in coeffs[i].terms:
            s = scale * fall
            if not s:
                continue
            terms.append((s, factors + (power,) if power else factors))
    return FewVarCircuit(C.num_vars, tuple(terms), max(C.declared_s, 1),
                         C.field_p, C.k)


def _scale_vars_circuit(C: FewVarCircuit, t) -> FewVarCircuit:
    new_terms: List[Term] = []
    for scale, factors in C.terms:
        new_terms.append((scale, tuple(
            FactorPoly(f.support, scale_all_vars(f.poly, t)) for f in factors)))
    return FewVarCircuit(C.num_vars, tuple(new_terms), C.declared_s, C.field_p, C.k)


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
        return FewVarCircuit(C.num_vars, (), C.declared_s, C.field_p, C.k)
    nodes = _interp_nodes(D + 1, C.field_p)
    W = _lagrange_coeff_matrix(nodes, C.field_p)
    terms: List[Term] = []
    for v in range(D + 1):
        w = W[v][i]
        if not w:
            continue
        scaled = _scale_vars_circuit(C, nodes[v])
        for scale, factors in scaled.terms:
            s = scale * w
            if s:
                terms.append((s, factors))
    return FewVarCircuit(C.num_vars, tuple(terms), C.declared_s, C.field_p, C.k)


def translate_circuit(C: FewVarCircuit, a: Sequence) -> FewVarCircuit:
    """Shift every variable: each factor is translated on its own support, so
    supports, term count, and product fan-ins are unchanged."""
    if len(a) != C.num_vars:
        raise ValueError(
            f"dimension mismatch: shift has {len(a)} values, circuit has "
            f"{C.num_vars} variables")
    new_terms: List[Term] = []
    for scale, factors in C.terms:
        moved = tuple(
            FactorPoly(f.support, translate_poly(f.poly, [a[g] for g in f.support]))
            for f in factors)
        new_terms.append((scale, moved))
    return FewVarCircuit(C.num_vars, tuple(new_terms), C.declared_s, C.field_p, C.k)


def restrict_circuit(C: FewVarCircuit, mask: RestrictionMask) -> FewVarCircuit:
    """Zero every variable outside the mask inside each factor; supports
    shrink accordingly and killed terms drop out."""
    out = C
    dead = [v for v in range(C.num_vars) if v not in mask.alive]
    for v in dead:
        out = _substitute_circuit(out, v, 0)
    return out


# ---------------------------------------------------------------------------
# homogenization

@dataclass(frozen=True)
class HomogPiece:
    """One term of the decomposition: the factors without a constant term,
    and the positive-degree parts of the factors whose constant term is 1
    (these feed the elementary symmetric sum)."""

    scale: FieldElem
    plain_factors: Tuple[FactorPoly, ...]
    esym_args: Tuple[SparsePolynomial, ...]
    l_max: int


@dataclass(frozen=True)
class HomogDecomposition:
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
            prod = SparsePolynomial.const(self.num_vars, 1, self.field_p)
            for f in piece.plain_factors:
                prod = prod * f.embed(self.num_vars)
            esums = esym_all(list(piece.esym_args), piece.l_max) if piece.esym_args \
                else [SparsePolynomial.const(self.num_vars, 1, self.field_p)]
            total_esym = SparsePolynomial.zero(self.num_vars, self.field_p)
            for l in range(min(piece.l_max, len(esums) - 1) + 1):
                total_esym = total_esym + esums[l]
            part = hom_component(prod * total_esym, n, "eq")
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
                pos = hom_component(f.embed(C.num_vars), 1, "ge")
                args.append(pos)
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

@dataclass(frozen=True)
class ClassReport:
    top_fanin: int
    max_individual_degree: Optional[int]
    max_product_fanin: int
    max_support: int
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
    T = C.top_fanin
    k = C.k
    d = C.max_product_fanin
    sup = C.max_support()
    return ClassReport(
        top_fanin=T,
        max_individual_degree=k,
        max_product_fanin=d,
        max_support=sup,
        t_ok=T < t_limit,
        k_ok=(k is not None and k < t_limit),
        d_ok=d < N ** c,
        support_ok=sup <= N ** mu,
    )


# ---------------------------------------------------------------------------
# text format

def serialize_circuit(C: FewVarCircuit) -> str:
    """Canonical text form: fixed header, then term and factor blocks.  Terms
    keep input order; polynomial lines are graded-lex as in the algebra
    module."""
    k_text = "unknown" if C.k is None else str(C.k)
    lines = [
        "fewvar-circuit v1",
        f"vars={C.num_vars} field={field_name(C.field_p)} s={C.declared_s} k={k_text}",
    ]
    for scale, factors in C.terms:
        lines.append(f"term scale={scale}")
        for f in factors:
            lines.append("factor support=" + ",".join(str(v) for v in f.support))
            body = serialize_poly(f.poly).splitlines()[1:]
            lines.extend(body)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> FewVarCircuit:
    """Parse the circuit document format; raises with a line number on any
    malformed input.  Round-trips with serialize_circuit."""
    numbered = [(ln, raw) for ln, raw in enumerate(text.splitlines(), start=1)]
    content = [(ln, raw.split("#", 1)[0].rstrip())
               for ln, raw in numbered if raw.split("#", 1)[0].strip()]
    if not content:
        raise ValueError("empty document: missing `fewvar-circuit v1` header")
    ln, head = content[0]
    if head.strip() != "fewvar-circuit v1":
        raise ValueError(f"line {ln}: expected `fewvar-circuit v1`, got {head!r}")
    if len(content) < 2:
        raise ValueError("missing `vars=... field=... s=... k=...` line")
    ln, decl = content[1]
    fields = dict(tok.split("=", 1) for tok in decl.split() if "=" in tok)
    for need in ("vars", "field", "s", "k"):
        if need not in fields:
            raise ValueError(f"line {ln}: header must declare {need}=")
    try:
        num_vars = int(fields["vars"])
        field_p = _parse_field(fields["field"])
        declared_s = int(fields["s"])
        k = None if fields["k"] == "unknown" else int(fields["k"])
    except ValueError as e:
        raise ValueError(f"line {ln}: {e}") from None

    terms: List[Tuple[FieldElem, List[FactorPoly]]] = []
    factor_head: Optional[Tuple[int, Tuple[int, ...]]] = None
    factor_lines: List[Tuple[int, str]] = []

    def close_factor():
        nonlocal factor_head, factor_lines
        if factor_head is None:
            return
        fln, support = factor_head
        poly = parse_poly_lines(factor_lines, len(support), field_p,
                                where=f"factor at line {fln}: ")
        if not terms:
            raise ValueError(f"line {fln}: factor before any `term` line")
        try:
            factor = FactorPoly(support, poly)
            _check_factor(factor, num_vars, declared_s)
        except ValueError as exc:
            raise ValueError(f"line {fln}: {exc}") from None
        terms[-1][1].append(factor)
        factor_head, factor_lines = None, []

    for ln, raw in content[2:]:
        stripped = raw.strip()
        if stripped.startswith("term "):
            close_factor()
            kv = dict(tok.split("=", 1) for tok in stripped.split()[1:] if "=" in tok)
            if "scale" not in kv:
                raise ValueError(f"line {ln}: term line needs scale=")
            try:
                terms.append((parse_coeff(kv["scale"], field_p), []))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"line {ln}: bad scale: {exc}") from None
        elif stripped.startswith("factor "):
            close_factor()
            kv = dict(tok.split("=", 1) for tok in stripped.split()[1:] if "=" in tok)
            if "support" not in kv:
                raise ValueError(f"line {ln}: factor line needs support=")
            try:
                sup = tuple(int(x) for x in kv["support"].split(",")) \
                    if kv["support"] else ()
            except ValueError as exc:
                raise ValueError(f"line {ln}: bad support: {exc}") from None
            factor_head = (ln, sup)
        elif stripped.startswith("coeff "):
            if factor_head is None:
                raise ValueError(f"line {ln}: coeff line outside a factor block")
            factor_lines.append((ln, raw))
        else:
            raise ValueError(f"line {ln}: unrecognized line {stripped!r}")
    close_factor()

    return FewVarCircuit(
        num_vars,
        tuple((s, tuple(fs)) for s, fs in terms),
        declared_s,
        field_p,
        k,
    )


# ---------------------------------------------------------------------------
# random circuits and the transform audit

def random_circuit(rng, num_vars: int, max_terms: int, max_factors: int,
                   max_support: int, max_k: int,
                   field_p: Field = None, max_tries: int = 200) -> FewVarCircuit:
    """A random circuit within the given size bounds, with the declared k set
    to the true individual degree of the expansion (recomputed exactly).
    Retries until the individual degree fits max_k."""
    for _ in range(max_tries):
        T = int(rng.integers(1, max_terms + 1))
        terms: List[Term] = []
        for _ in range(T):
            scale = int(rng.integers(-3, 4)) or 1
            d = int(rng.integers(1, max_factors + 1))
            factors: List[FactorPoly] = []
            for _ in range(d):
                ssize = int(rng.integers(1, max_support + 1))
                support = tuple(sorted(
                    int(v) for v in rng.choice(num_vars, size=ssize, replace=False)))
                nterms = int(rng.integers(1, 4))
                items = []
                for _ in range(nterms):
                    pairs = []
                    for li in range(ssize):
                        e = int(rng.integers(0, 3))
                        if e:
                            pairs.append((li, e))
                    c = int(rng.integers(-3, 4))
                    if c:
                        items.append((c, pairs))
                poly = SparsePolynomial.from_terms(ssize, items, field_p)
                if poly.is_zero():
                    poly = SparsePolynomial.const(ssize, 1, field_p)
                factors.append(FactorPoly(support, poly))
            terms.append((scale, tuple(factors)))
        C = FewVarCircuit(num_vars, tuple(terms), max_support, field_p, None)
        P = expand_circuit(C)
        k = P.individual_degree()
        if k <= max_k:
            return FewVarCircuit(num_vars, C.terms, max_support, field_p, k)
    raise RuntimeError("could not generate a circuit within the degree bound")


@dataclass
class AuditReport:
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
    component, translation, and restriction are expanded and compared to the
    same operation applied to the expansion.  Fan-in ratios report the worst
    observed top fan-in against the T*(k+1)^2 and T*(k+1) ceilings.
    """
    from .algebra import derivative_poly, coeffs_in_var

    rng = named_rng(seed, "transform-audit")
    failures: List[str] = []
    checks = 0
    worst_d = 0.0
    worst_c = 0.0
    for idx in range(count):
        C = random_circuit(rng, num_vars, max_terms, max_factors, max_support, max_k)
        P = expand_circuit(C)
        T, k = C.top_fanin, C.k
        y = int(rng.integers(0, num_vars))
        j = int(rng.integers(0, 3))

        dC = derivative_circuit(C, y, j)
        checks += 1
        if expand_circuit(dC) != derivative_poly(P, y, j):
            failures.append(f"circuit {idx}: derivative (y={y}, j={j}) mismatch")
        bound_d = T * (k + 1) ** 2
        if dC.top_fanin > bound_d:
            failures.append(
                f"circuit {idx}: derivative fan-in {dC.top_fanin} > {bound_d}")
        if bound_d:
            worst_d = max(worst_d, dC.top_fanin / bound_d)

        cs = coeff_circuits(C, y)
        ref = coeffs_in_var(P, y)
        checks += 1
        for i, ci in enumerate(cs):
            got = expand_circuit(ci)
            want = ref[i] if i < len(ref) else SparsePolynomial.zero(
                C.num_vars, C.field_p)
            if got != want:
                failures.append(f"circuit {idx}: coefficient {i} of x{y} mismatch")
                break
            bound_c = T * (k + 1)
            if ci.top_fanin > bound_c:
                failures.append(
                    f"circuit {idx}: coefficient fan-in {ci.top_fanin} > {bound_c}")
            if bound_c:
                worst_c = max(worst_c, ci.top_fanin / bound_c)

        deg = P.degree()
        i_hom = int(rng.integers(0, deg + 2))
        hC = hom_component_circuit(C, i_hom, deg)
        checks += 1
        if expand_circuit(hC) != hom_component(P, i_hom, "eq"):
            failures.append(f"circuit {idx}: degree-{i_hom} component mismatch")

        shift = [int(rng.integers(-2, 3)) for _ in range(num_vars)]
        tC = translate_circuit(C, shift)
        checks += 1
        if expand_circuit(tC) != translate_poly(P, shift):
            failures.append(f"circuit {idx}: translation mismatch")

        alive = frozenset(int(v) for v in range(num_vars) if rng.random() < 0.6)
        rC = restrict_circuit(C, RestrictionMask(alive))
        Pr = P
        for v in range(num_vars):
            if v not in alive:
                Pr = substitute(Pr, v, 0)
        checks += 1
        if expand_circuit(rC) != Pr:
            failures.append(f"circuit {idx}: restriction mismatch")
    return AuditReport(count, checks, failures, worst_d, worst_c)
