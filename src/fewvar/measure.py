"""The projected-shifted-partial-derivative rank measure and its bounds.

For a polynomial P, a set M of multilinear degree-r derivative monomials, and
a shift degree m, the measure is the dimension of the span of

    project( X_S * d_gamma P )    for gamma in M, S subset of [N], |S| = m,

where project drops every monomial with an exponent >= 2 and the shifts range
over ALL N variables (also when P arose from a restriction).  The rows are
integer rows: the multilinear survivors of each d_gamma P, all read off in
one pass over P's terms, are multiplied once by the lcm of their
denominators, which leaves the span's dimension alone.  One fraction-free
elimination kernel ranks them, exactly over the integers or over GF(p) for a
prime p; the rank mod p can only undercount (reported as a lower bound
unless cross-checked).

A variable that P does not use is interchangeable with every other such
variable, so the rows split into blocks by the absent variables their shift
holds, and blocks with the same number k of them are copies of one matrix.
``psd_dimension`` builds and ranks one block per k and weights it by the
number of its copies, for every input: with no absent variable that is the
one block of all rows.  The kernel works block by block too: the
rank is the sum of the ranks of the connected components of the row/column
graph, in which two rows meet when they share a column, found as the rows
are read, each row once.  Each block is eliminated sparsest row first and
stops once its rank equals its number of columns; a row is copied only
before it is first changed, and a block of one row skips elimination.

A permutation sigma of the used variables with sigma(P) == P maps the row
(gamma, S) to the row (sigma(gamma), sigma(S)) and each column to its
image, with the same entries, so it carries each block onto a block of the
same rank, over Q and GF(p) alike.  When enough rows lie in blocks of one
shape (ORBIT_CROSSOVER), generators of such a group are searched for by
individualization-refinement, each candidate is kept only if it maps P
onto itself term for term with exact coefficients, and the kernel ranks
one block per orbit, weighted by the orbit's size.  A candidate that fails
its check, or a block whose image is missing or of another shape, can cost
speed but never changes the rank.

The module also houses random restrictions (keep each variable alive
independently with probability p), the count of "bad" small-support monomials
living inside single factors, the closed-form upper bound for bounded-support
circuits, and high-precision evaluation of the two large-parameter binomial
ratios together with the factorial-ratio approximation check.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

from .algebra import (
    FieldElem,
    FrozenValue,
    Mon,
    SparsePolynomial,
    Value,
    ceil_real,
    derivative_poly,  # not called here; perfbench/spans.py patches the name
    is_prime,
    mon_is_multilinear,
    to_fraction,
)
from .circuit import FewVarCircuit
from .nw import NWParams, derive_nw_params

DEFAULT_ROW_CAP = 200_000
# distinct support sets bad_support_monomials collects before refusing
BAD_MONOMIAL_CAP = 1_000_000
# Rows in blocks of more than one row that share their shape, below which
# the symmetry search is not run.  Measured in-process per op, orbit step
# forced on against off: at 247-792 such rows (the bench's restricted NW at
# m=2) every op lost 0.1-0.6 ms to the search; at 981-1230 (13-14 of
# NW(3,5,2)'s 15 variables alive, m=2) ops gained up to 10 ms, and at 1575
# and more (the whole NW(3,5,2)) 20-36 ms; at 1282-1448 (11 alive, m=3)
# they lost up to 0.6 ms.
ORBIT_CROSSOVER = 1024

# column ids -> their image ids under each generator of a column group
Images = Callable[[List[int]], List[List[Optional[int]]]]


class MeasureParams(FrozenValue):
    """Parameters of one measure evaluation.  ``monomials`` of None means all
    multilinear degree-r monomials over the polynomial's variables."""

    _fields = ("r", "m", "monomials", "rank_prime")

    def __init__(self, r: int, m: int,
                 monomials: Optional[Tuple[Mon, ...]] = None,
                 rank_prime: Optional[int] = None):
        if r < 0 or m < 0:
            raise ValueError("r and m must be nonnegative")
        if rank_prime is not None and not is_prime(rank_prime):
            raise ValueError(f"rank prime {rank_prime} is not a prime")
        if monomials is not None:
            for g in monomials:
                if not mon_is_multilinear(g) or len(g) != r:
                    raise ValueError(
                        f"derivative monomial {g} is not multilinear of degree {r}")
        vars(self).update(r=r, m=m, monomials=monomials, rank_prime=rank_prime)


class MeasureReport(Value):
    _fields = ("phi", "rows", "cols", "exact")

    def __init__(self, phi: int, rows: int, cols: int, exact: bool):
        if not 0 <= phi <= min(rows, cols) and rows:
            raise ValueError("rank outside matrix dimensions")
        self.phi, self.rows, self.cols, self.exact = phi, rows, cols, exact


# ---------------------------------------------------------------------------
# rank computation

def _blocks(rows: Iterable[Dict[int, int]]
            ) -> List[Tuple[List[Dict[int, int]], List[int]]]:
    """The nonempty rows grouped into the connected components of the graph
    that joins two columns when a row holds both, each with its column ids.
    One pass: a row joins the block that owns its columns, takes its new
    columns into it, and when it meets several blocks the smaller are
    merged into the largest.  No row of one block shares a column with
    another block, so the matrix is block-diagonal after a permutation."""
    owner: Dict[int, Tuple[List[Dict[int, int]], List[int]]] = {}
    blocks: Dict[int, Tuple[List[Dict[int, int]], List[int]]] = {}
    for row in rows:
        block = None
        fresh = []
        for j in row:
            b = owner.get(j)
            if b is None:
                fresh.append(j)
            elif b is not block:
                if block is None:
                    block = b
                    continue
                if len(b[1]) > len(block[1]):
                    block, b = b, block
                block[0].extend(b[0])
                block[1].extend(b[1])
                for k in b[1]:
                    owner[k] = block
                del blocks[id(b)]
        if block is None:
            if not fresh:
                continue
            block = ([], [])
            blocks[id(block)] = block
        block[0].append(row)
        block[1].extend(fresh)
        for j in fresh:
            owner[j] = block
    return list(blocks.values())


def _rank(rows: Iterable[Dict[int, int]], p: Optional[int] = None,
          images: Optional[Images] = None) -> int:
    """Rank of sparse integer rows by fraction-free elimination, block by
    block: over the rationals when p is None, else over GF(p) for a prime p.

    The rows are read once.  Each row maps column ids to nonzero ints, as
    ``_shift_rows`` makes them; empty rows are dropped.  The rows then split
    into the connected components of their row/column graph (``_blocks``),
    and the rank is the sum of the block ranks.  Inside a block the rows go
    sparsest first, and the block stops as soon as its rank equals its
    number of columns: no later row can add to it.  A block's columns are
    those of its rows over the integers, which bound its rank mod p too, so
    both the partition and the early exit hold over GF(p).  A block of one
    row has rank 1, over GF(p) when some entry is nonzero mod p.

    A row is reduced on its largest column index: by a basis row b with the
    same pivot it becomes (b_p/g)*v - (v_p/g)*b, g = gcd(b_p, v_p), divided
    by its content.  The caller's row is copied before it is first changed,
    and a row that enters the basis untouched is stored as it is:
    basis rows are never changed, so the caller's rows are left alone.
    Basis rows are kept primitive with a positive pivot, so entries stay
    small and no Fraction is ever built.

    Over GF(p) the same integer steps run with two guards.  A pivot that
    is 0 mod p is dropped from the row (a copy) and the next largest column
    tried, so every pivot is a unit mod p.  A reduced row whose content p
    divides is 0 mod p and adds nothing, so it stops there.  Then b_p/g
    divides a unit, so each step is an invertible row operation mod p, and
    every content divided out is a unit: no modular inverse is needed.

    With ``images`` (see ``_orbit_weights``), one block per orbit of a
    group of column maps that carry blocks onto blocks of equal rank is
    ranked, weighted by the orbit's size."""
    blocks = _blocks(rows)
    weights = _orbit_weights(blocks, images) if images else None
    rank = 0
    for weight, (block, cols) in zip(weights or itertools.repeat(1), blocks):
        if weight:
            block.sort(key=len)
            rank += weight * _block_rank(block, len(cols), p)
    return rank


def _orbit_weights(blocks: List[Tuple[List[Dict[int, int]], List[int]]],
                   images: Images) -> Optional[List[int]]:
    """Per block, the size of its orbit if it is its orbit's representative,
    else 0; or None when the orbit step does not pay or a map fails.

    ``images(cols)`` lists, under each generator of a group of permutations
    of the columns that maps the row set onto itself and keeps every entry,
    the image ids of the columns ``cols`` (None for a missing image).  Such
    a map carries each block onto a block of the same rank, over Q and
    GF(p) alike, so one column per block names its image.  A missing image
    or an image block of another shape means the maps do not hold: None.
    The search behind ``images`` runs only when at least ORBIT_CROSSOVER
    rows lie in blocks of more than one row whose shape another such block
    shares: there two blocks can be one orbit."""
    shapes = [(len(block), len(cols)) for block, cols in blocks]
    twins = Counter(s for s in shapes if s[0] > 1)
    if sum(s[0] for s in shapes if twins[s] > 1) < ORBIT_CROSSOVER:
        return None
    owner = {c: i for i, (_, cols) in enumerate(blocks) for c in cols}
    root = list(range(len(blocks)))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i
    for image in images([cols[0] for _, cols in blocks]):
        for i, c in enumerate(image):
            j = owner.get(c)
            if j is None or shapes[j] != shapes[i]:
                return None
            root[find(i)] = find(j)
    weights = [0] * len(blocks)
    for i in range(len(blocks)):
        weights[find(i)] += 1
    return weights


def _block_rank(block: List[Dict[int, int]], width: int,
                p: Optional[int]) -> int:
    """The rank of one block of ``width`` columns (the loop of ``_rank``)."""
    if len(block) == 1:
        return 1 if p is None or any(c % p for c in block[0].values()) else 0
    basis: Dict[int, Dict[int, int]] = {}
    rank = 0
    for row in block:
        if rank == width:
            break
        v = row
        while v:
            pivot = max(v)
            if p is not None and not v[pivot] % p:
                if v is row:
                    v = dict(row)
                del v[pivot]
                continue
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
            elif v is row:
                v = dict(row)
            for j, bj in b.items():
                nv = v.get(j, 0) - f * bj
                if nv:
                    v[j] = nv
                else:
                    del v[j]
            if v:
                g = math.gcd(*v.values())
                if p is not None and not g % p:
                    break
                if g != 1:
                    v = {j: c // g for j, c in v.items()}
    return rank


def rank_exact(rows: Iterable[Dict[int, int]],
               images: Optional[Images] = None) -> int:
    """Exact rank of sparse integer rows (nonzero int entries)."""
    return _rank(rows, None, images)


def rank_mod(rows: Iterable[Dict[int, int]], p: int,
             images: Optional[Images] = None) -> int:
    """Rank over GF(p) of sparse integer rows (nonzero int entries), p
    prime."""
    return _rank(rows, p, images)


def _images(P: SparsePolynomial, A: Sequence[int],
            found: List[List[Dict[int, int]]], col_ids: Dict[int, int],
            cols: List[int]) -> List[List[Optional[int]]]:
    """Under each generator that fixes P, the ids in ``col_ids`` of the
    images of the column ids ``cols`` (None where an image has no id), each
    column a bitmask of variables of A.  The generators are the candidates
    of ``symmetry.symmetries(P, A)`` that map P onto itself term for term
    with the same coefficients, found once per P and kept in ``found``.
    The search module loads here, so no command compiles it at start."""
    if not found:
        from .symmetry import symmetries
        found.append([g for g in symmetries(P, A) if all(
            P.terms.get(tuple(sorted((g[v], e) for v, e in mon))) == c
            for mon, c in P.terms.items())])
    masks = list(col_ids)
    out = []
    for sigma in found[0]:
        image = []
        for c in cols:
            mask, bits = masks[c], 0
            while mask:
                low = mask & -mask
                bits |= 1 << sigma[low.bit_length() - 1]
                mask ^= low
            image.append(col_ids.get(bits))
        out.append(image)
    return out


def _survivor_bases(P: SparsePolynomial, r: int,
                    monomials: Optional[Sequence[Mon]] = None,
                    budget: Optional[int] = None
                    ) -> Optional[List[List[Tuple[int, int]]]]:
    """Per derivative monomial gamma, the multilinear survivors of d_gamma P
    as (bitmask of the monomial's variables, int coefficient) pairs, for
    gamma over ``monomials``, in their order, or when that is None over
    every multilinear degree-r monomial, lexicographically.  Each base is
    scaled once by the lcm of its denominators, so every entry is a nonzero
    int and each row built from it is a nonzero multiple of the projected
    shifted derivative, which leaves the span's dimension alone.  A
    derivative with no multilinear survivor (d_gamma P = 0 when gamma holds
    a variable P does not use) would give only empty rows: it gets no
    base.

    One pass over P's terms: a term c * x^e survives d_gamma only when
    every exponent is at most 2, gamma lies in its support and holds every
    squared variable.  Its survivor is then the ones outside gamma and the
    twos, with coefficient c * 2^(number of twos).  Distinct terms keep
    distinct survivors under one gamma, so nothing merges.  With
    ``monomials`` given, each term is tested against each listed gamma
    only, so no other gamma is enumerated.

    With a ``budget``, the result is None once the survivors of every
    gamma would number more than that, before any of them are listed."""
    listed = None if monomials is None else [
        tuple(v for v, _ in g) for g in monomials]
    # each distinct listed gamma, by the bitmask of its variables
    by_mask = {sum(1 << v for v in g): g for g in listed or ()}
    survivors: Dict[Tuple[int, ...], List[Tuple[int, FieldElem]]] = {}
    for mon, c in P.terms.items():
        ones: List[int] = []
        twos: List[int] = []
        for v, e in mon:
            if e == 1:
                ones.append(v)
            elif e == 2:
                twos.append(v)
            else:
                break
        else:
            if len(twos) > r:
                continue
            if budget is not None:
                budget -= math.comb(len(ones), r - len(twos))
                if budget < 0:
                    return None
            ones_mask = sum(1 << v for v in ones)
            twos_mask = sum(1 << v for v in twos)
            c = c * (1 << len(twos))
            if listed is not None:
                # gamma fits when it holds the twos and its rest are ones
                for gmask, gamma in by_mask.items():
                    if gmask & twos_mask == twos_mask \
                            and not gmask & ~(ones_mask | twos_mask):
                        survivors.setdefault(gamma, []).append(
                            (ones_mask & ~gmask | twos_mask, c))
                continue
            for combo in itertools.combinations(ones, r - len(twos)):
                gamma = tuple(sorted(twos + list(combo))) if twos else combo
                mask = ones_mask - sum(1 << v for v in combo) | twos_mask
                survivors.setdefault(gamma, []).append((mask, c))
    bases = []
    for gamma in sorted(survivors) if listed is None else listed:
        base = survivors.get(gamma)
        if base:
            den = math.lcm(*[c.denominator for _, c in base])
            bases.append([(mask, c.numerator * (den // c.denominator))
                          for mask, c in base])
    return bases


def _shift_rows(bases: List[List[Tuple[int, int]]], shifts: List[int],
                col_ids: Dict[int, int]) -> Iterator[Dict[int, int]]:
    """Yield one integer row per base and shift (both bitmasks), keyed by an
    interned column id per multilinear monomial, which ``col_ids`` maps from
    the monomial's bitmask.  A survivor that meets the shift is projected
    away; distinct survivors stay distinct after the shift, so no two
    collide."""
    for base in bases:
        for smask in shifts:
            row: Dict[int, int] = {}
            for mask, c in base:
                if mask & smask:
                    continue
                row[col_ids.setdefault(mask | smask, len(col_ids))] = c
            yield row


def psd_dimension(P: SparsePolynomial, params: MeasureParams,
                  row_cap: int = DEFAULT_ROW_CAP) -> MeasureReport:
    """The measure of P: rank of all projected shifted derivative rows.

    Shift sets range over the full variable set.  The rows are integer rows
    (each derivative's survivors cleared of denominators), ranked by exact
    fraction-free elimination over the integers by default.  With
    ``rank_prime`` set the same rows are ranked modulo that prime (a lower
    bound on the true rank, flagged exact=False).

    How it is computed: let A be the variables P's monomials use and Z the
    other z.  Only a gamma inside A gives rows, and every column of the row
    (gamma, S) meets Z exactly in S's part S_Z there, so the matrix is
    block-diagonal by S_Z.  A permutation of Z fixes P and every such gamma,
    so all blocks with |S_Z| = k are one matrix up to a relabelling of its
    columns, over Q and over GF(p) alike: the rows (gamma, S_A) over the
    (m-k)-subsets S_A of A, with S_Z added to every column.  So each k <=
    min(z, m) with m - k <= |A| builds and ranks that matrix once, without
    S_Z, from survivors computed once for all k:

        phi = sum_k C(z, k) * rank_k,    cols = sum_k C(z, k) * cols_k.

    ``rows`` still counts every (gamma, S) pair, C(N, r) * C(N, m) by
    default.  The row cap refuses on the rows built, one per base and per
    shift of every block ranked: len(bases) * sum_k C(|A|, m-k).

    With every gamma (``monomials`` None), a permutation of A that fixes P
    maps this row set onto itself, so the kernel may rank one block per
    orbit of such maps (``_rank``, ``_images``): the maps are searched for
    once per P, only when some k has at least ORBIT_CROSSOVER rows in
    blocks that share their shape, and each is checked on P.  A listed
    set of derivatives need not be invariant, so there every block is
    ranked.
    """
    if P.field_p is not None:
        raise ValueError("the measure is defined over the rationals")
    N, m = P.num_vars, params.m
    if m > N:
        # no m-subset of N variables: no shift, so no row
        return MeasureReport(phi=0, rows=0, cols=0,
                             exact=params.rank_prime is None)
    n_shifts = math.comb(N, m)
    gcount = (math.comb(N, params.r) if params.monomials is None
              else len(params.monomials))
    used = 0
    for mon in P.terms:
        for v, _ in mon:
            used |= 1 << v
    A = [v for v in range(N) if used >> v & 1]
    z = N - len(A)
    ks = range(max(0, m - len(A)), min(z, m) + 1)
    per_base = sum(math.comb(len(A), m - k) for k in ks)
    # With every gamma, each survivor is in a base, and a base holds at most
    # one survivor per term: past len(P.terms) * row_cap survivors there are
    # more bases than the cap allows rows, so they are not listed.
    budget = len(P.terms) * row_cap if params.monomials is None else None
    bases = _survivor_bases(P, params.r, params.monomials, budget)
    built = None if bases is None else len(bases) * per_base
    if built is None or built > row_cap:
        count = (f"more than {row_cap}" if built is None
                 else f"{built} > {row_cap}")
        raise ValueError(
            f"row cap exceeded: {count} rows to build, of {gcount} derivatives "
            f"x {n_shifts} shifts = {gcount * n_shifts} rows")
    phi = cols = 0
    found: List[List[Dict[int, int]]] = []
    for k in ks:
        shifts = [sum(1 << v for v in S)
                  for S in itertools.combinations(A, m - k)]
        col_ids: Dict[int, int] = {}
        rows = _shift_rows(bases, shifts, col_ids)
        # the rows at stake are at most the rows built
        images = None if params.monomials is not None or \
            len(bases) * len(shifts) < ORBIT_CROSSOVER else \
            functools.partial(_images, P, A, found, col_ids)
        if params.rank_prime is None:
            rank = rank_exact(rows, images)
        else:
            rank = rank_mod(rows, params.rank_prime, images)
        phi += math.comb(z, k) * rank
        cols += math.comb(z, k) * len(col_ids)
    return MeasureReport(phi=phi, rows=gcount * n_shifts, cols=cols,
                         exact=params.rank_prime is None)


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


class BadMonomialReport(NamedTuple):
    """Multilinear support-s monomials that fit inside a single factor's
    variable set, with the closed-form ceiling T*d*C(max_support, s)."""

    count: int
    bound: int
    supports: Tuple[FrozenSet[int], ...]

    @property
    def ok(self) -> bool:
        return self.count <= self.bound


def bad_support_monomials(C: FewVarCircuit, s: int) -> BadMonomialReport:
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
                if len(seen) > BAD_MONOMIAL_CAP:
                    raise ValueError(
                        f"enumeration cap {BAD_MONOMIAL_CAP} exceeded")
    bound = T * d * math.comb(smax, s) if s <= smax else 0
    report = BadMonomialReport(count=len(seen), bound=bound,
                               supports=tuple(sorted(seen, key=sorted)))
    if not report.ok:
        raise RuntimeError(
            f"{report.count} support-{s} monomials exceed their own ceiling "
            f"{report.bound}")
    return report


class SurvivalReport(NamedTuple):
    trials: int
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
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
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
    mean = sum(counts) / trials
    if trials > 1:
        var = sum((c - mean) ** 2 for c in counts) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return SurvivalReport(
        trials=trials, p=p, bad_count=bad.count,
        expected_survivors=expected, mean_survivors=mean,
        stderr_survivors=stderr,
        empirical_rate=survived / trials,
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

class DerivedMeasure(NamedTuple):
    nw: NWParams
    r: int
    s: int
    m: int
    log_p: float                   # ln p, p = N^-(mu+delta): stable at any scale


# eps1 * eps2 in the derivative/shift schedule
EPS_PRODUCT = Fraction(1, 1000)


def derive_measure_params(mu, n: int, eps1: Optional[float] = None,
                          eps2: Optional[float] = None) -> DerivedMeasure:
    """The derivative/shift schedule: r and s are floors of eps*sqrt(n) with
    eps1*eps2 = 1/1000 (both sqrt(1/1000) unless one is given), m is the
    floor of (N/2)(1 - r ln n / n), and p = N^-(mu+delta).

    r and s are exact: floor(eps*sqrt(n)) = isqrt(floor(eps^2 * n)) with
    eps^2 a rational (a given eps is read by ``to_fraction``).  m is exact
    too: N // 2 when r = 0, else one below the certified ceiling from
    ``ceil_real``, since the value is then never an integer.
    """
    import mpmath

    nw = derive_nw_params(mu, n)
    if eps1 is None and eps2 is None:
        sq1 = sq2 = EPS_PRODUCT
    else:
        e1 = EPS_PRODUCT / to_fraction(eps2) if eps1 is None else to_fraction(eps1)
        e2 = EPS_PRODUCT / e1 if eps2 is None else to_fraction(eps2)
        if e1 < 0 or e2 < 0:
            raise ValueError(f"eps1={e1} and eps2={e2} must be nonnegative")
        sq1, sq2 = e1 * e1, e2 * e2
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
    return DerivedMeasure(nw=nw, r=r, s=s, m=m, log_p=log_p)


EXACT_BINOMIAL_LIMIT = 10 ** 6


class RatioReport(NamedTuple):
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

    ``derived`` replaces the derivation; only the tests pass it.  They need
    parameter sets that no (n, mu, eps) derives: the schedule gives r*s <=
    n/1000 and m <= N/2, so the out-of-regime refusal below is reachable
    only through it, and so is r = 0 with m + n <= N/2 on the exact path.
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
