"""Shared test utilities: independent brute-force oracles and generators."""

import itertools
import math
import os
from fractions import Fraction
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from fewvar.algebra import (
    Mon,
    SparsePolynomial,
    derivative_poly,
    field_name,
    mon_make,
    serialize_poly,
)
from fewvar.circuit import FactorPoly, FewVarCircuit
from fewvar.measure import MeasureParams, psd_dimension
from fewvar.nw import NWInstance
from fewvar.pit import Design


def is_prime_trial(n: int) -> bool:
    """Primality by trial division, the cross-check for ``is_prime``."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def degree_raw_at_most(sigma: Fraction, gamma: Fraction, n: int, N: int,
                       k: int) -> bool:
    """Whether D_raw = (gamma + sigma ln N / ln n) / (2(1+gamma)) * n is at
    most k, decided in integers: with a/b = (2(1+gamma)k/n - gamma)/sigma,
    D_raw <= k exactly when ln N / ln n <= a/b, i.e. N^b <= n^a."""
    t = (2 * (1 + gamma) * Fraction(k, n) - gamma) / sigma
    return t > 0 and N ** t.denominator <= n ** t.numerator


def rebuilt(obj):
    """``obj`` built again through its public constructor, which checks
    every invariant: a SparsePolynomial, a FactorPoly (its polynomial
    rebuilt too) or a FewVarCircuit (every factor rebuilt too)."""
    if isinstance(obj, SparsePolynomial):
        return SparsePolynomial(obj.num_vars, dict(obj.terms), obj.field_p)
    if isinstance(obj, FactorPoly):
        return FactorPoly(obj.support, rebuilt(obj.poly))
    return FewVarCircuit(
        obj.num_vars,
        tuple((scale, tuple(rebuilt(f) for f in factors))
              for scale, factors in obj.terms),
        obj.declared_s, obj.field_p, obj.k)


def over_field(C: FewVarCircuit, p) -> FewVarCircuit:
    """``C``, a circuit over Q with integer scales and coefficients, rebuilt
    over GF(p) through the public constructors, which reduce every number
    mod p; ``C`` itself when p is None.  Its declared k stays a bound on the
    individual degree, since the reduction drops terms and adds none."""
    if p is None:
        return C
    return FewVarCircuit(C.num_vars, [
        (scale, tuple(FactorPoly(f.support, SparsePolynomial(
            f.poly.num_vars, dict(f.poly.terms), p)) for f in factors))
        for scale, factors in C.terms], C.declared_s, p, C.k)


def normalized(obj) -> bool:
    """Whether every coefficient and scale of ``obj`` is in its field's
    normal form, an int or a Fraction over Q and an int in [0, p) over
    GF(p), and no polynomial keeps a zero coefficient.  Decided here on its
    own, not by the constructors' shared normalization."""
    def normal(c, p):
        return type(c) in (int, Fraction) if p is None else \
            type(c) is int and 0 <= c < p

    if isinstance(obj, SparsePolynomial):
        return all(c and normal(c, obj.field_p) for c in obj.terms.values())
    if isinstance(obj, FactorPoly):
        return normalized(obj.poly)
    return type(obj.terms) is tuple and all(
        normal(scale, obj.field_p) and type(factors) is tuple
        and all(map(normalized, factors)) for scale, factors in obj.terms)


def checked(obj):
    """``obj``, or each item of a list of them, after requiring that it is
    normalized, passes its public constructor's checks and equals its
    rebuilt self.  The ring operations, transforms and readers build
    through the private constructors, which only normalize; the tests
    check what those builds guarantee by running this on their outputs."""
    for item in obj if isinstance(obj, list) else [obj]:
        assert normalized(item), item
        assert rebuilt(item) == item, item
    return obj


def multilinear_project(P: SparsePolynomial) -> SparsePolynomial:
    """Drop every monomial containing an exponent >= 2."""
    out = {m: c for m, c in P.terms.items() if all(e == 1 for _, e in m)}
    return SparsePolynomial(P.num_vars, out, P.field_p)


def fcircuit(num_vars, declared_s, *factor_groups, k=None):
    """One term per group; each factor is (product of its support vars) + 1."""
    terms = []
    for supports in factor_groups:
        factors = tuple(
            FactorPoly(support=tuple(sorted(supp)),
                       poly=SparsePolynomial.from_terms(
                           len(supp), [(1, [(i, 1) for i in range(len(supp))]),
                                       (1, [])]))
            for supp in supports)
        terms.append((Fraction(1), factors))
    return FewVarCircuit(num_vars=num_vars, terms=terms,
                         declared_s=declared_s, k=k)


# 3(x0x1 + 5x1)(x2/2 + 1) - (1/3)(2x0) over GF(7): fractional coefficients
# read mod 7, and constant terms 0 or 1 so homogenize accepts it
GF7_CIRCUIT = """\
fewvar-circuit v1
vars=3 field=GF(7) s=2 k=1
term scale=3
factor support=0,1
coeff 1 ; 0:1 1:1
coeff 5 ; 1:1
factor support=2
coeff 1/2 ; 0:1
coeff 1 ;
term scale=-1/3
factor support=0
coeff 2 ; 0:1
"""


def serialize_circuit(C: FewVarCircuit) -> str:
    """Canonical text form: fixed header, then term and factor blocks.  Terms
    keep input order; polynomial lines are graded-lex as in the algebra
    module.  ``parse_circuit`` reads it back."""
    k_text = "unknown" if C.k is None else str(C.k)
    lines = [
        "fewvar-circuit v1",
        f"vars={C.num_vars} field={field_name(C.field_p)} s={C.declared_s} k={k_text}",
    ]
    for scale, factors in C.terms:
        lines.append(f"term scale={scale}")
        for f in factors:
            lines.append("factor support=" + ",".join(str(v) for v in f.support))
            lines.extend(serialize_poly(f.poly).splitlines()[1:])
    return "\n".join(lines) + "\n"


def embed(f: FactorPoly, num_vars: int) -> SparsePolynomial:
    """The factor as a polynomial over ``num_vars`` variables, each local
    variable v renamed to ``f.support[v]``."""
    terms = {mon_make((f.support[v], e) for v, e in mon): c
             for mon, c in f.poly.terms.items()}
    return SparsePolynomial(num_vars, terms, f.poly.field_p)


def mon_mul(a: Mon, b: Mon) -> Mon:
    """The product of two monomials as sorted tuples, by merging them;
    the package multiplies packed monomials instead."""
    if not a:
        return b
    if not b:
        return a
    # when one monomial's variables all come before the other's, the
    # product is the concatenation
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    acc = dict(a)
    for v, e in b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def multiply_by_merge(products, field_p) -> dict:
    """The sum of mult * Q_1 * ... * Q_d over the (mult, (Q_1, ..., Q_d))
    in ``products``, each Q a term map, on tuple monomials with
    ``mon_mul``, reduced mod p over GF(p) only at the end and with the
    zeros dropped.  The oracle for ``multiply_out``, which packs and takes
    each Q as its (monomial, coefficient) pairs."""
    acc = {}
    for mult, maps in products:
        prod = {(): mult}
        for terms in maps:
            nxt = {}
            for ma, ca in prod.items():
                for mb, cb in terms.items():
                    mon = mon_mul(ma, mb)
                    nxt[mon] = nxt.get(mon, 0) + ca * cb
            prod = nxt
        for mon, c in prod.items():
            acc[mon] = acc.get(mon, 0) + c
    if field_p is not None:
        acc = {mon: c % field_p for mon, c in acc.items()}
    return {mon: c for mon, c in acc.items() if c}


def expand_by_merge(C: FewVarCircuit) -> SparsePolynomial:
    """The circuit's expansion with no packed monomial: each term's
    embedded factors multiplied out by ``multiply_by_merge`` and the sum
    built through the public constructor.  The oracle for
    ``expand_circuit``."""
    products = [(scale, [embed(f, C.num_vars).terms for f in factors])
                for scale, factors in C.terms]
    return SparsePolynomial(C.num_vars, multiply_by_merge(products, C.field_p),
                            C.field_p)


def translate_by_binomials(P: SparsePolynomial, a: Sequence) -> SparsePolynomial:
    """P(X + a) term by term: c * prod_v x_v^e becomes the sum, over one
    j_v <= e_v per variable, of c * prod_v C(e_v, j_v) a_v^(e_v - j_v)
    x_v^(j_v), every monomial a tuple and the sum built through the public
    constructor.  The oracle for ``translate_poly``, which shifts packed
    monomials one variable at a time."""
    acc = {}
    for mon, c in P.terms.items():
        choices = [[(((v, j),) if j else (), math.comb(e, j) * a[v] ** (e - j))
                    for j in range(e + 1)] for v, e in mon]
        for picks in itertools.product(*choices):
            out, coef = (), c
            for part, weight in picks:
                out += part         # the variables come in increasing order
                coef *= weight
            acc[out] = acc.get(out, 0) + coef
    return SparsePolynomial(P.num_vars, acc, P.field_p)


def combnulls_grid(N: int, d: int) -> Iterator[Tuple[int, ...]]:
    """Lexicographic enumeration of {0..d}^N.  Any nonzero polynomial with
    individual degree <= d is nonzero somewhere on this grid, so a full scan
    is a sound and complete (if exponential) identity test."""
    if N < 1 or d < 0:
        raise ValueError("need N >= 1 and d >= 0")
    return itertools.product(range(d + 1), repeat=N)


def dense_rank(rows: List[List[Fraction]]) -> int:
    """Plain Gaussian elimination on a dense rational matrix.  Entries are
    lifted to Fraction on entry, so int rows are eliminated exactly too."""
    if not rows:
        return 0
    mat = [[Fraction(c) for c in r] for r in rows]
    n_cols = len(mat[0])
    rank = 0
    col = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def dense_rank_mod(rows: List[List[int]], p: int) -> int:
    """Plain Gaussian elimination mod a prime p on a dense integer matrix."""
    mat = [[c % p for c in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] * inv % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def multilinear_monomials(num_vars: int, degree: int) -> Iterator[Mon]:
    """All multilinear monomials of the given degree, lexicographically."""
    for combo in itertools.combinations(range(num_vars), degree):
        yield tuple((v, 1) for v in combo)


def survivor_bases(P: SparsePolynomial, gammas: Sequence[Mon]
                   ) -> List[List[Tuple[int, int]]]:
    """The oracle for ``measure._survivor_bases``, one derivative at a time:
    per gamma, d_gamma P by repeated ``derivative_poly``, its multilinear
    terms as (variable bitmask, coefficient) pairs, scaled by the lcm of
    their denominators; a gamma with no multilinear term gets no base."""
    bases = []
    for gamma in gammas:
        D = P
        for v, _ in gamma:
            D = derivative_poly(D, v, 1)
        survivors = [(sum(1 << v for v, _ in m), c)
                     for m, c in D.terms.items() if all(e == 1 for _, e in m)]
        if survivors:
            den = math.lcm(*[c.denominator for _, c in survivors])
            bases.append([(mask, c.numerator * (den // c.denominator))
                          for mask, c in survivors])
    return bases


def brute_shifted_derivatives(P: SparsePolynomial, r: int, m: int,
                              monomials: Optional[Sequence[Mon]] = None
                              ) -> List[SparsePolynomial]:
    """sigma(X_S * d_gamma P) for every gamma and every S of size m over all
    N variables, by explicit polynomial multiplication and projection."""
    N = P.num_vars
    gammas = list(monomials) if monomials is not None else \
        list(multilinear_monomials(N, r))
    shift_mons = list(multilinear_monomials(N, m))
    polys = []
    for gamma in gammas:
        D = P
        for v, _ in gamma:
            D = derivative_poly(D, v, 1)
        for S in shift_mons:
            shift = SparsePolynomial(N, {S: Fraction(1)}, None)
            polys.append(multilinear_project(D * shift))
    return polys


def brute_phi(P: SparsePolynomial, r: int, m: int,
              monomials: Optional[Sequence[Mon]] = None) -> int:
    """The measure by explicit polynomial arithmetic and dense elimination:
    assemble sigma(X_S * d_gamma P) via multiplication and projection, then
    row-reduce over the rationals."""
    polys = brute_shifted_derivatives(P, r, m, monomials)
    basis = sorted({mon for q in polys for mon in q.terms})
    index = {mon: i for i, mon in enumerate(basis)}
    rows = []
    for q in polys:
        row = [Fraction(0)] * len(basis)
        for mon, c in q.terms.items():
            row[index[mon]] = c
        rows.append(row)
    return dense_rank(rows)


def brute_cols(P: SparsePolynomial, r: int, m: int,
               monomials: Optional[Sequence[Mon]] = None) -> int:
    """The measure's column count: the distinct monomials of all the
    projected shifted derivatives."""
    return len({mon for q in brute_shifted_derivatives(P, r, m, monomials)
                for mon in q.terms})


def random_poly(rng, num_vars: int, max_terms: int, max_exp: int = 2,
                coeff_lo: int = -3, coeff_hi: int = 3) -> SparsePolynomial:
    items = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        c = int(rng.integers(coeff_lo, coeff_hi + 1))
        exps = rng.integers(0, max_exp + 1, size=num_vars)
        items.append((Fraction(c), [(v, int(e)) for v, e in enumerate(exps) if e]))
    return SparsePolynomial.from_terms(num_vars, items)


def bounded_support_poly(rng, N: int, c: int, n: int, s: int
                         ) -> Tuple[SparsePolynomial, int, int]:
    """A sum of ``c`` products of at most n polynomials whose monomials each
    touch at most s variables; returns (P, c, n) for the bound comparison."""
    total = SparsePolynomial.zero(N)
    for _ in range(c):
        prod = SparsePolynomial.const(N, int(rng.integers(1, 3)))
        for _ in range(int(rng.integers(1, n + 1))):
            items = []
            for _ in range(int(rng.integers(1, 4))):
                supp = rng.choice(N, rng.integers(0, s + 1))
                coeff = int(rng.integers(-2, 3))
                items.append((Fraction(coeff), [(int(v), 1) for v in supp]))
            Q = SparsePolynomial.from_terms(N, items)
            if Q.is_zero():
                Q = SparsePolynomial.const(N, 1)
            prod = prod * Q
        total = total + prod
    return total, c, n


def nw_monomials(inst: NWInstance) -> Iterator[Mon]:
    """One multilinear degree-n monomial per univariate, in the column
    table's enumeration order."""
    for cols in inst.columns:
        yield tuple((v, 1) for v in cols)


def nw_expand(inst: NWInstance) -> SparsePolynomial:
    """The instance as an explicit polynomial, one monomial per column."""
    terms = {mon: Fraction(1) for mon in nw_monomials(inst)}
    return SparsePolynomial(inst.num_vars, terms, None)


def subadditivity_check(P: SparsePolynomial, Q: SparsePolynomial,
                        alpha, beta, params: MeasureParams) -> bool:
    """Whether the measure of alpha*P + beta*Q is at most the sum of the two
    measures.  Holds for every linear combination; checked by three rank
    computations."""
    combo = P.scale(alpha) + Q.scale(beta)
    phi_c = psd_dimension(combo, params).phi
    phi_p = psd_dimension(P, params).phi
    phi_q = psd_dimension(Q, params).phi
    return phi_c <= phi_p + phi_q


def naive_graphs(q: int, D: int, rows: int) -> List[Tuple[int, ...]]:
    """The graphs {(x, f(x)) : x < rows} as indices x*q + f(x), one per
    coefficient tuple (c_{D-1}, ..., c_1, c_0) from itertools.product, so
    the k-th has the base-q digits of k as its coefficients; f(x) is the
    explicit sum of c_t x^t mod q."""
    return [tuple(x * q + sum(c * x ** t for t, c in enumerate(top[::-1])) % q
                  for x in range(rows))
            for top in itertools.product(range(q), repeat=D)]


def naive_nw_value(values: Sequence, rows: int, q: int, D: int) -> Fraction:
    """The NW polynomial of a rows-by-q block, at the block's values in
    row-major order, summed over every univariate f of degree < D over F_q
    straight from its coefficients: sum_f prod_i values[i*q + f(i)]."""
    total = Fraction(0)
    for graph in naive_graphs(q, D, rows):
        prod = Fraction(1)
        for v in graph:
            prod *= Fraction(values[v])
        total += prod
    return total


def checked_sets(obj):
    """``obj``, a ``PitParams`` or a ``Design``, after asserting what its
    builders guarantee and no constructor checks: N sets (b for a design),
    each a strictly increasing tuple of a'q elements (a for a design) of
    range(l); for parameters also N, k >= 1, q prime, 1 <= D <= q, and a
    nonempty grid of distinct ints and Fractions."""
    if isinstance(obj, Design):
        sets, count, size = list(obj), obj.b, obj.a
    else:
        sets, count, size = list(obj.sets), obj.N, obj.set_size
        assert obj.N >= 1 and obj.k >= 1, f"N = {obj.N}, k = {obj.k}"
        assert is_prime_trial(obj.q), f"q = {obj.q} is not prime"
        assert 1 <= obj.D <= obj.q, f"D = {obj.D} outside [1, q = {obj.q}]"
        assert obj.grid and len(set(obj.grid)) == len(obj.grid), \
            "grid values must be distinct and nonempty"
        assert all(isinstance(g, (int, Fraction)) for g in obj.grid), \
            "grid holds a value that is not an int or a Fraction"
    assert len(sets) == count, f"{len(sets)} sets, expected {count}"
    for i, S in enumerate(sets):
        assert len(S) == size, f"set {i} has size {len(S)}, expected {size}"
        assert all(0 <= v < obj.l for v in S), \
            f"set {i} leaves the universe of size {obj.l}"
        assert all(u < v for u, v in zip(S, S[1:])), \
            f"set {i} is not strictly increasing"
    return obj


def naive_stream(params, limit: Optional[int] = None) -> List[Tuple[Fraction, ...]]:
    """The hitting-set stream by brute force: every point of G^l from
    itertools.product, and every set's NW value computed afresh."""
    out = []
    for point in itertools.product(params.grid, repeat=params.l):
        if limit is not None and len(out) >= limit:
            break
        out.append(tuple(
            naive_nw_value([point[v] for v in S], params.a_prime, params.q,
                           params.D)
            for S in params.sets))
    return out


def make_mon(*pairs) -> Mon:
    return mon_make(pairs)


def src_env() -> dict:
    """The environment with the repository's ``src`` ahead on PYTHONPATH, for
    running the package from source in a subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
