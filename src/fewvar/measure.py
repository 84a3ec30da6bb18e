"""The projected-shifted-partial-derivative rank measure and its bounds.

For a polynomial P, a set M of multilinear degree-r derivative monomials, and
a shift degree m, the measure is the dimension of the span of

    project( X_S * d_gamma P )    for gamma in M, S subset of [N], |S| = m,

where project drops every monomial with an exponent >= 2 and the shifts range
over ALL N variables (also when P arose from a restriction).  The rows are
integer rows: the multilinear survivors of each d_gamma P are multiplied once
by the lcm of their denominators, which leaves the span's dimension alone.
One fraction-free elimination kernel ranks them, exactly over the integers or
over GF(p) for a prime p; the rank mod p can only undercount (reported as a
lower bound unless cross-checked).  The kernel works block by block: the
rank is the sum of the ranks of the connected components of the row/column
graph, in which two rows meet when they share a column.  Each block is
eliminated sparsest row first and stops once its rank equals its number of
columns.

The module also houses random restrictions (keep each variable alive
independently with probability p), the count of "bad" small-support monomials
living inside single factors, the closed-form upper bound for bounded-support
circuits, and high-precision evaluation of the two large-parameter binomial
ratios together with the factorial-ratio approximation check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .algebra import (
    Mon,
    SparsePolynomial,
    ceil_real,
    derivative_poly,
    is_prime,
    mon_is_multilinear,
    multilinear_monomials,
    to_fraction,
)
from .circuit import FewVarCircuit
from .nw import NWParams, derive_nw_params

DEFAULT_ROW_CAP = 200_000


@dataclass(frozen=True)
class MeasureParams:
    """Parameters of one measure evaluation.  ``monomials`` of None means all
    multilinear degree-r monomials over the polynomial's variables."""

    r: int
    m: int
    monomials: Optional[Tuple[Mon, ...]] = None
    rank_prime: Optional[int] = None

    def __post_init__(self):
        if self.r < 0 or self.m < 0:
            raise ValueError("r and m must be nonnegative")
        if self.rank_prime is not None and not is_prime(self.rank_prime):
            raise ValueError(f"rank prime {self.rank_prime} is not a prime")
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

    def __post_init__(self):
        if not 0 <= self.phi <= min(self.rows, self.cols) and self.rows:
            raise ValueError("rank outside matrix dimensions")


# ---------------------------------------------------------------------------
# rank computation

def _residues(v: Dict[int, int], p: int) -> Dict[int, int]:
    """The symmetric residues of v's entries mod p, in [-p//2, p//2], zeros
    dropped."""
    h = p // 2
    return {j: r - p if r > h else r for j, c in v.items() if (r := c % p)}


def _blocks(rows: List[Dict[int, int]]) -> List[List[Dict[int, int]]]:
    """The rows grouped into the connected components of the graph that
    joins two columns when a row holds both: union-find over column ids,
    with path halving.  No row of one block shares a column with another
    block, so the matrix is block-diagonal after a permutation."""
    parent: Dict[int, Optional[int]] = dict.fromkeys(
        itertools.chain.from_iterable(rows))

    def find(j):
        while (q := parent[j]) is not None:
            g = parent[q]
            if g is None:
                return q
            parent[j] = j = g
        return j

    for v in rows:
        cols = iter(v)
        root = find(next(cols))
        for j in cols:
            r = find(j)
            if r != root:
                parent[r] = root
    blocks: Dict[int, List[Dict[int, int]]] = {}
    for v in rows:
        blocks.setdefault(find(next(iter(v))), []).append(v)
    return list(blocks.values())


def _rank(rows: Iterable[Dict[int, int]], p: Optional[int] = None) -> int:
    """Rank of sparse integer rows by fraction-free elimination, block by
    block: over the rationals when p is None, else over GF(p) for a prime p.

    The rows are read once.  Each row maps column ids to nonzero ints, as
    ``_shift_rows`` makes them; empty rows are dropped.  The rows then split
    into the connected components of their row/column graph (``_blocks``),
    and the rank is the sum of the block ranks.  Inside a block the rows go
    sparsest first, and the block stops as soon as its rank equals its
    number of columns: no later row can add to it.  A block's columns are
    those of its rows over the integers, which bound its rank mod p too, so
    both the partition and the early exit hold over GF(p).

    Each row is copied, then reduced on its largest column index: by a
    basis row b with the same pivot it becomes (b_p/g)*v - (v_p/g)*b,
    g = gcd(b_p, v_p), divided by its content.  Basis rows are kept
    primitive with a positive pivot, so entries stay small and no Fraction
    is ever built.

    Modulo p every stored entry stays in [-p//2, p//2].  A row is taken to
    symmetric residues only when an entry may have left that range: when it
    enters elimination, and after a reduction step before its content is
    divided out, judged by ``top``, a bound on the row's largest |entry|
    carried through the step's scalars (each basis row keeps its own in
    ``tops``).  So an entry is 0 mod p exactly when it is 0, and the gcds,
    the pivot sign and b_p/g all have absolute value below p, hence are
    units mod p: the same steps compute the rank over GF(p) with no modular
    inverse."""
    rank = 0
    for block in _blocks([row for row in rows if row]):
        block.sort(key=len)
        rank += _block_rank(block, len(set().union(*block)), p)
    return rank


def _block_rank(block: List[Dict[int, int]], width: int,
                p: Optional[int]) -> int:
    """The rank of one block of ``width`` columns (the loop of ``_rank``)."""
    h = p // 2 if p is not None else 0
    basis: Dict[int, Dict[int, int]] = {}
    tops: Dict[int, int] = {}
    rank = 0
    for row in block:
        if rank == width:
            break
        v = dict(row)
        top = 0
        if p is not None:
            top = max(map(abs, v.values()))
            if top > h:
                v, top = _residues(v, p), h
        while v:
            pivot = max(v)
            b = basis.get(pivot)
            if b is None:
                g = math.gcd(*v.values())
                if v[pivot] < 0:
                    g = -g
                basis[pivot] = v if g == 1 else {j: c // g for j, c in v.items()}
                tops[pivot] = top // abs(g)
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
            if p is not None:
                top = abs(s) * top + abs(f) * tops[pivot]
                if top > h:
                    v, top = _residues(v, p), h
            if v:
                g = math.gcd(*v.values())
                if g != 1:
                    v = {j: c // g for j, c in v.items()}
                    top //= g
    return rank


def rank_exact(rows: Iterable[Dict[int, int]]) -> int:
    """Exact rank of sparse integer rows (nonzero int entries)."""
    return _rank(rows)


def rank_mod(rows: Iterable[Dict[int, int]], p: int) -> int:
    """Rank over GF(p) of sparse integer rows (nonzero int entries), p
    prime."""
    return _rank(rows, p)


def _shift_rows(P: SparsePolynomial, params: MeasureParams):
    """Yield the measure's integer row vectors, keyed by an interned column id
    per multilinear monomial (the bitmask of its variables).  Also returns the
    column table (shared dict).

    The multilinear survivors of each d_gamma P are scaled once by the lcm of
    their denominators, so every entry is a nonzero int; a row is a nonzero
    multiple of the projected shifted derivative, so the span's dimension is
    unchanged.  A derivative with no multilinear survivor yields no rows:
    each of its rows would be empty."""
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
            survivors = [(sum(1 << v for v, _ in m), c)
                         for m, c in D.terms.items() if mon_is_multilinear(m)]
            if not survivors:
                continue
            den = math.lcm(*[c.denominator for _, c in survivors])
            base = [(mask, c.numerator * (den // c.denominator))
                    for mask, c in survivors]
            for smask in shifts:
                # distinct survivors stay distinct after the shift: no collisions
                row: Dict[int, int] = {}
                for mask, c in base:
                    if mask & smask:
                        continue
                    row[col_ids.setdefault(mask | smask, len(col_ids))] = c
                yield row
    return rows, col_ids


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
    rows, col_ids = _shift_rows(P, params)
    if params.rank_prime is not None:
        phi = rank_mod(rows(), params.rank_prime)
        exact = False
    else:
        phi = rank_exact(rows())
        exact = True
    return MeasureReport(phi=phi, rows=gcount * n_shifts, cols=len(col_ids),
                         params=params, exact=exact)


# ---------------------------------------------------------------------------
# random restrictions

def sample_restriction(N: int, p: float, seed: int) -> FrozenSet[int]:
    """The variables kept alive: each of N independently with probability p,
    deterministically from the seed (stream "restriction")."""
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    from .rng import named_rng
    rng = named_rng(seed, "restriction")
    u = rng.random(N)
    return frozenset(i for i in range(N) if u[i] < p)


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
        alive = sample_restriction(C.num_vars, p, seed + i)
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
    log_p: float                   # ln p, p = N^-(mu+delta): stable at any scale
    eps1: float
    eps2: float


# eps1 * eps2 in the derivative/shift schedule
EPS_PRODUCT = Fraction(1, 1000)


def derive_measure_params(mu, n: int, eps1: Optional[float] = None,
                          eps2: Optional[float] = None,
                          nw: Optional[NWParams] = None) -> DerivedMeasure:
    """The derivative/shift schedule: r and s are floors of eps*sqrt(n) with
    eps1*eps2 = 1/1000 (both sqrt(1/1000) unless one is given), m is the
    floor of (N/2)(1 - r ln n / n), and p = N^-(mu+delta).

    r and s are exact: floor(eps*sqrt(n)) = isqrt(floor(eps^2 * n)) with
    eps^2 a rational (a given eps is read by ``to_fraction``).  m is exact
    too: N // 2 when r = 0, else one below the certified ceiling from
    ``ceil_real``, since the value is then never an integer.
    """
    import mpmath

    if nw is None:
        nw = derive_nw_params(mu, n)
    if eps1 is None and eps2 is None:
        eps1 = eps2 = math.sqrt(EPS_PRODUCT)
        sq1 = sq2 = EPS_PRODUCT
    else:
        e1 = EPS_PRODUCT / to_fraction(eps2) if eps1 is None else to_fraction(eps1)
        e2 = EPS_PRODUCT / e1 if eps2 is None else to_fraction(eps2)
        if e1 < 0 or e2 < 0:
            raise ValueError(f"eps1={e1} and eps2={e2} must be nonnegative")
        eps1, eps2, sq1, sq2 = float(e1), float(e2), e1 * e1, e2 * e2
    r = math.isqrt(math.floor(sq1 * n))
    s = math.isqrt(math.floor(sq2 * n))
    if r * math.log(n) > n:
        raise ValueError("out of regime: r ln n exceeds n, so m would exceed N/2")
    if r == 0:
        m = nw.N // 2
    else:
        # ln n is transcendental, so (N/2)(1 - r ln n / n) is not an integer
        m = ceil_real(lambda ctx: ctx.mpf(nw.N) / 2 * (1 - r * ctx.log(n) / n)) - 1
    exponent = float(to_fraction(mu) + nw.delta)
    with mpmath.workdps(40 + len(str(nw.N))):
        log_p = float(-exponent * mpmath.log(nw.N))
    return DerivedMeasure(nw=nw, r=r, s=s, m=m, log_p=log_p,
                          eps1=eps1, eps2=eps2)


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
    import mpmath

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
    return RatioReport(n=n, mu=float(to_fraction(mu)), r=r, s=s, m=m, N=N,
                       log_ratio_1=lr1f, log_ratio_2=lr2f,
                       closed_form_1=lr1_closed_form(n, r, s), exact=exact)


def approx_check(a: int, f: int, g: int) -> Tuple[float, float, float]:
    """Compare ln((a+f)! / (a-g)!) against (f+g) * ln a.

    The factorial ratio is the exact integer product over (a-g, a+f]; its log
    is taken at high precision.  Returns (exact, estimate, |error|); the
    error obeys 2*(f+g)^2/a in the regime f+g <= a (asserted by callers, not
    here).
    """
    import mpmath

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
