"""The projected-shifted-partial-derivative rank measure and its bounds.

For a polynomial P, a set M of multilinear degree-r derivative monomials, and
a shift degree m, the measure is the dimension of the span of

    project( X_S * d_gamma P )    for gamma in M, S subset of [N], |S| = m,

where project drops every monomial with an exponent >= 2 and the shifts range
over ALL N variables (also when P arose from a restriction).  The rows are
integer rows: the multilinear survivors of each d_gamma P are multiplied once
by the lcm of their denominators, which leaves the span's dimension alone.
The rank is computed exactly by fraction-free elimination over the integers,
or modulo a prime on the same rows, which can only undercount (reported as a
lower bound unless cross-checked).

The module also houses random restrictions (keep each variable alive
independently with probability p), the count of "bad" small-support monomials
living inside single factors, the closed-form upper bound for bounded-support
circuits, and high-precision evaluation of the two large-parameter binomial
ratios together with the factorial-ratio approximation check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import mpmath

from .algebra import (
    Mon,
    SparsePolynomial,
    derivative_poly,
    mon_is_multilinear,
    multilinear_monomials,
)
from .circuit import FewVarCircuit, RestrictionMask
from .nw import NWParams, derive_nw_params
from .rng import named_rng

DEFAULT_ROW_CAP = 200_000

# fixed modulus for the prime-field rank fast path: large enough that random
# desk-scale matrices essentially never lose rank, small enough to stay fast
RANK_PRIME = 2 ** 61 - 1

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class MeasureParams:
    """Parameters of one measure evaluation.  ``monomials`` of None means all
    multilinear degree-r monomials over the polynomial's variables."""

    r: int
    m: int
    s: Optional[int] = None
    p: Optional[float] = None
    monomials: Optional[Tuple[Mon, ...]] = None
    eps1: Optional[float] = None
    eps2: Optional[float] = None
    rank_prime: Optional[int] = None

    def __post_init__(self):
        if self.r < 0 or self.m < 0:
            raise ValueError("r and m must be nonnegative")
        if self.monomials is not None:
            for g in self.monomials:
                if not mon_is_multilinear(g) or len(g) != self.r:
                    raise ValueError(
                        f"derivative monomial {g} is not multilinear of degree {self.r}")


@dataclass
class MeasureReport:
    phi: int
    rows: int
    cols: int
    params: MeasureParams
    exact: bool
    bound: Optional[int] = None

    def __post_init__(self):
        if not 0 <= self.phi <= min(self.rows, self.cols) and self.rows:
            raise ValueError("rank outside matrix dimensions")


# ---------------------------------------------------------------------------
# rank computation

def _integer_row(row: Dict[int, Rational]) -> Dict[int, int]:
    """The row times the lcm of its denominators, zeros dropped: int entries
    spanning the same line.  A row of ints comes back as a copy."""
    den = math.lcm(*[c.denominator for c in row.values()])
    return {j: c.numerator * (den // c.denominator) for j, c in row.items() if c}


def rank_exact(rows: Iterable[Dict[int, Rational]]) -> int:
    """Exact rank of sparse rational rows by fraction-free streaming
    elimination over the integers.

    Each row is cleared of denominators on entry (just a copy for int rows).
    It is then reduced on its largest column index: by a basis row b with
    the same pivot it becomes (b_p/g)*v - (v_p/g)*b, g = gcd(b_p, v_p),
    divided by its content.  Basis rows are kept primitive with a positive pivot, so
    entries stay small and no Fraction is ever built."""
    basis: Dict[int, Dict[int, int]] = {}
    rank = 0
    for row in rows:
        v = _integer_row(row)
        while v:
            pivot = max(v)
            b = basis.get(pivot)
            if b is None:
                g = math.gcd(*v.values())
                if v[pivot] < 0:
                    g = -g
                basis[pivot] = v if g == 1 else {j: c // g for j, c in v.items()}
                rank += 1
                break
            bp = b[pivot]
            vp = v[pivot]
            g = math.gcd(bp, vp)
            s, f = bp // g, vp // g
            if s != 1:
                v = {j: s * c for j, c in v.items()}
            for j, bj in b.items():
                nv = v.get(j, 0) - f * bj
                if nv:
                    v[j] = nv
                else:
                    del v[j]
            if v:
                g = math.gcd(*v.values())
                if g != 1:
                    v = {j: c // g for j, c in v.items()}
    return rank


def rank_mod(rows: Iterable[Dict[int, int]], p: int = RANK_PRIME) -> int:
    """Rank over GF(p) of sparse integer rows, same elimination with residue
    arithmetic and each basis row scaled to pivot 1."""
    basis: Dict[int, Dict[int, int]] = {}
    rank = 0
    for row in rows:
        v = {j: c % p for j, c in row.items() if c % p}
        while v:
            pivot = max(v)
            if pivot in basis:
                b = basis[pivot]
                f = v[pivot]
                for j, bj in b.items():
                    nv = (v.get(j, 0) - f * bj) % p
                    if nv:
                        v[j] = nv
                    else:
                        v.pop(j, None)
            else:
                inv = pow(v[pivot], p - 2, p)
                basis[pivot] = {j: c * inv % p for j, c in v.items()}
                rank += 1
                break
    return rank


def _shift_rows(P: SparsePolynomial, params: MeasureParams):
    """Yield the measure's integer row vectors, keyed by an interned column id
    per multilinear monomial (the bitmask of its variables).  Also returns the
    column table (shared dict) and the number of derivatives.

    The multilinear survivors of each d_gamma P are scaled once by the lcm of
    their denominators; a row is a nonzero multiple of the projected shifted
    derivative, so the span's dimension is unchanged."""
    N = P.num_vars
    gammas = params.monomials
    if gammas is None:
        gammas = tuple(multilinear_monomials(N, params.r))
    col_ids: Dict[int, int] = {}
    shifts = [sum(1 << v for v in S)
              for S in itertools.combinations(range(N), params.m)]

    def rows():
        for gamma in gammas:
            D = P
            for v, _ in gamma:
                D = derivative_poly(D, v, 1)
            # keep only multilinear survivors once; shifts can only re-check disjointness
            base = _integer_row({sum(1 << v for v, _ in m): c
                                 for m, c in D.terms.items()
                                 if mon_is_multilinear(m)}).items()
            for smask in shifts:
                # distinct survivors stay distinct after the shift: no collisions
                row: Dict[int, int] = {}
                for mask, c in base:
                    if mask & smask:
                        continue
                    row[col_ids.setdefault(mask | smask, len(col_ids))] = c
                yield row
    return rows, col_ids, len(gammas)


def psd_dimension(P: SparsePolynomial, params: MeasureParams,
                  row_cap: int = DEFAULT_ROW_CAP) -> MeasureReport:
    """The measure of P: rank of all projected shifted derivative rows.

    Shift sets range over the full variable set.  The rows are integer rows
    (each derivative's survivors cleared of denominators), ranked by exact
    fraction-free elimination over the integers by default.  With
    ``rank_prime`` set the same rows are ranked modulo that prime (a lower
    bound on the true rank, flagged exact=False).
    """
    if P.field_p is not None:
        raise ValueError("the measure is defined over the rationals")
    N = P.num_vars
    n_shifts = math.comb(N, params.m)
    gcount = (math.comb(N, params.r) if params.monomials is None
              else len(params.monomials))
    if gcount * n_shifts > row_cap:
        raise ValueError(
            f"row cap exceeded: {gcount} derivatives x {n_shifts} shifts "
            f"> {row_cap}")
    rows, col_ids, gcount = _shift_rows(P, params)
    if params.rank_prime is not None:
        phi = rank_mod(rows(), params.rank_prime)
        exact = False
    else:
        phi = rank_exact(rows())
        exact = True
    return MeasureReport(phi=phi, rows=gcount * n_shifts, cols=len(col_ids),
                         params=params, exact=exact)


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


# ---------------------------------------------------------------------------
# random restrictions

def sample_restriction(N: int, p: float, seed: int) -> RestrictionMask:
    """Keep each of N variables alive independently with probability p,
    deterministically from the seed (stream "restriction")."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    rng = named_rng(seed, "restriction")
    u = rng.random(N)
    return RestrictionMask(frozenset(int(i) for i in range(N) if u[i] < p))


@dataclass(frozen=True)
class BadMonomialReport:
    """Multilinear support-s monomials that fit inside a single factor's
    variable set, with the closed-form ceiling T*d*C(max_support, s)."""

    count: int
    bound: int
    s: int
    supports: Tuple[FrozenSet[int], ...]

    @property
    def ok(self) -> bool:
        return self.count <= self.bound


def bad_support_monomials(C: FewVarCircuit, s: int,
                          cap: int = 1_000_000) -> BadMonomialReport:
    if s < 0:
        raise ValueError("support bound must be nonnegative")
    seen = set()
    T = C.top_fanin
    d = C.max_product_fanin
    smax = C.max_support()
    for _, factors in C.terms:
        for f in factors:
            if len(f.support) < s:
                continue
            for combo in itertools.combinations(f.support, s):
                seen.add(frozenset(combo))
                if len(seen) > cap:
                    raise ValueError(f"enumeration cap {cap} exceeded")
    bound = T * d * math.comb(smax, s) if s <= smax else 0
    report = BadMonomialReport(count=len(seen), bound=bound, s=s,
                               supports=tuple(sorted(seen, key=sorted)))
    if not report.ok:
        raise RuntimeError(
            f"{report.count} support-{s} monomials exceed their own ceiling "
            f"{report.bound}")
    return report


@dataclass
class SurvivalReport:
    trials: int
    seed: int
    p: float
    bad_count: int
    expected_survivors: float      # |B| * p^s, exact expectation
    mean_survivors: float          # Monte-Carlo mean of |B_V|
    stderr_survivors: float        # sample standard error of that mean
    empirical_rate: float          # fraction of trials with any survivor
    markov_bound: float            # min(1, expected_survivors)
    survivor_counts: List[int] = dc_field(default_factory=list)


def survival_experiment(C: FewVarCircuit, s: int, p: float, trials: int,
                        seed: int) -> SurvivalReport:
    """Monte-Carlo check of the restriction calculus: sample ``trials``
    restrictions (trial i uses seed+i), count surviving bad monomials, and
    report the empirical survival rate next to the exact expectation
    |B| * p^s and its first-moment ceiling."""
    bad = bad_support_monomials(C, s)
    counts: List[int] = []
    survived = 0
    for i in range(trials):
        mask = sample_restriction(C.num_vars, p, seed + i)
        alive = mask.alive
        c = sum(1 for supp in bad.supports if supp <= alive)
        counts.append(c)
        if c:
            survived += 1
    expected = bad.count * p ** s
    mean = sum(counts) / trials if trials else 0.0
    if trials > 1:
        var = sum((c - mean) ** 2 for c in counts) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return SurvivalReport(
        trials=trials, seed=seed, p=p, bad_count=bad.count,
        expected_survivors=expected, mean_survivors=mean,
        stderr_survivors=stderr,
        empirical_rate=survived / trials if trials else 0.0,
        markov_bound=min(1.0, expected),
        survivor_counts=counts,
    )


# ---------------------------------------------------------------------------
# the closed-form upper bound

def depth4_upper_bound(top_fanin: int, n: int, r: int, s: int,
                       N: int, m: int) -> int:
    """top_fanin * C(n+r, r) * C(N, m+r*s), exactly.

    Valid for circuits whose products have at most n factors of support at
    most s; requires the regime m + r*s <= N/2."""
    if min(top_fanin, n, r, s, N, m) < 0:
        raise ValueError("all arguments must be nonnegative")
    if 2 * (m + r * s) > N:
        raise ValueError(
            f"out of regime: m + r*s = {m + r * s} exceeds N/2 = {N / 2}")
    return top_fanin * math.comb(n + r, r) * math.comb(N, m + r * s)


# ---------------------------------------------------------------------------
# parameter derivation and the ratio calculators

@dataclass(frozen=True)
class DerivedMeasure:
    nw: NWParams
    r: int
    s: int
    m: int
    p: float
    log_p: float                   # natural log of p, stable at any scale
    eps1: float
    eps2: float


def derive_measure_params(mu, n: int, eps1: Optional[float] = None,
                          eps2: Optional[float] = None,
                          eps_product: float = 0.001,
                          nw: Optional[NWParams] = None) -> DerivedMeasure:
    """The derivative/shift schedule: r and s are floors of eps*sqrt(n) with
    eps1*eps2 = eps_product (default 0.001, overridable), m is the floor of
    (N/2)(1 - r ln n / n), and p = N^-(mu+delta).

    m is resolved in high-precision arithmetic because N is typically far
    beyond float range.
    """
    if nw is None:
        nw = derive_nw_params(mu, n)
    if eps1 is None and eps2 is None:
        eps1 = eps2 = math.sqrt(eps_product)
    elif eps1 is None:
        eps1 = eps_product / eps2
    elif eps2 is None:
        eps2 = eps_product / eps1
    r = int(eps1 * math.sqrt(n))
    s = int(eps2 * math.sqrt(n))
    if r * math.log(n) > n:
        raise ValueError("out of regime: r ln n exceeds n, so m would exceed N/2")
    exponent = float(_frac(mu) + nw.delta)
    with mpmath.workdps(40 + len(str(nw.N))):
        factor = 1 - mpmath.mpf(r) * mpmath.log(n) / n
        m = int(mpmath.floor(mpmath.mpf(nw.N) / 2 * factor))
        log_p = float(-exponent * mpmath.log(nw.N))
    p = math.exp(log_p)
    return DerivedMeasure(nw=nw, r=r, s=s, m=m, p=p, log_p=log_p,
                          eps1=eps1, eps2=eps2)


def _frac(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


EXACT_BINOMIAL_LIMIT = 10 ** 6


@dataclass(frozen=True)
class RatioReport:
    n: int
    mu: float
    r: int
    s: int
    m: int
    N: int
    log_ratio_1: float
    log_ratio_2: float
    closed_form_1: float
    exact: bool


def lr1_closed_form(n: int, r: int, s: int) -> float:
    """The first ratio's closed-form estimate r * ln n * ((n-r-rs)/n - 1/2)."""
    return r * math.log(n) * ((n - r - r * s) / n - 0.5)


def appendix_ratios(n: int, mu, eps1: Optional[float] = None,
                    eps2: Optional[float] = None,
                    derived: Optional[DerivedMeasure] = None) -> RatioReport:
    """Natural logs of the two binomial ratios at the derived parameters:

        ratio 1:  C(N, m+n-r) / (C(N, m+rs) * C(n+r, r))
        ratio 2:  (p^r / 4^r) * C(N, r) * C(N, m) / (C(N, m+rs) * C(n+r, r))

    Exact big-integer binomials when N <= 10^6, log-gamma with enough working
    precision otherwise (relative tolerance 1e-6 is guaranteed with margin).
    """
    if derived is None:
        derived = derive_measure_params(mu, n, eps1=eps1, eps2=eps2)
    N, r, s, m = derived.nw.N, derived.r, derived.s, derived.m
    if m + n - r > N or m + r * s > N:
        raise ValueError("out of regime: binomial index exceeds N")
    exact = N <= EXACT_BINOMIAL_LIMIT
    with mpmath.workdps(40 + len(str(N))):
        if exact:
            lnC = lambda a, b: mpmath.log(mpmath.mpf(math.comb(a, b)))
        else:
            lg = mpmath.loggamma
            lnC = lambda a, b: lg(a + 1) - lg(b + 1) - lg(a - b + 1)
        lr1 = lnC(N, m + n - r) - lnC(N, m + r * s) - lnC(n + r, r)
        lr2 = (r * mpmath.mpf(derived.log_p) - r * mpmath.log(4)
               + lnC(N, r) + lnC(N, m) - lnC(N, m + r * s) - lnC(n + r, r))
        lr1f, lr2f = float(lr1), float(lr2)
    return RatioReport(n=n, mu=float(_frac(mu)), r=r, s=s, m=m, N=N,
                       log_ratio_1=lr1f, log_ratio_2=lr2f,
                       closed_form_1=lr1_closed_form(n, r, s), exact=exact)


def approx_check(a: int, f: int, g: int, K: float = 2.0) -> Tuple[float, float, float]:
    """Compare ln((a+f)! / (a-g)!) against (f+g) * ln a.

    The factorial ratio is the exact integer product over (a-g, a+f]; its log
    is taken at high precision.  Returns (exact, estimate, |error|); the
    error obeys K*(f+g)^2/a in the regime f+g <= a (asserted by callers, not
    here).
    """
    if a < 1 or f < 0 or g < 0:
        raise ValueError("need a >= 1 and f, g >= 0")
    if f + g > a:
        raise ValueError(f"out of regime: f+g = {f + g} exceeds a = {a}")
    ratio = 1
    for t in range(a - g + 1, a + f + 1):
        ratio *= t
    with mpmath.workdps(60):
        exact = float(mpmath.log(mpmath.mpf(ratio))) if ratio > 1 else 0.0
        estimate = float((f + g) * mpmath.log(a))
    return exact, estimate, abs(exact - estimate)
