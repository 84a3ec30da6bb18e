"""Deterministic blackbox identity testing for bounded-support circuits.

The hitting set is built in three stages.  A Reed-Solomon combinatorial
design supplies N subsets of a small universe with pairwise intersections
bounded by the univariate degree cap: the graphs of low-degree univariates
from ``nw.univariate_graphs``, the generator of the family's column table,
in its enumeration order.  Each set, trimmed to a' * q elements,
carries a local copy of the hard polynomial family (a' rows by q columns,
univariate degree bound D).  The generator then maps every point of the grid
G^l through the N local polynomials, and the driver scans the resulting
N-tuples in lexicographic order until the blackbox returns a nonzero value
or the stream is exhausted.

The baseline lives here too: seeded Schwartz-Zippel random evaluation.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .algebra import ceil_real, int_floor_root, is_prime, next_prime_at_least, to_fraction
from .circuit import ClassReport, FewVarCircuit, class_check, eval_circuit
from .nw import (NWInstance, degree_bound, intersections, nw_eval,
                 univariate_graphs)

DEFAULT_STREAM_CAP = 1_000_000
# stream sizes with more digits are reported as grid_size^l, not in decimal
DECIMAL_STREAM_DIGITS = 4000


# ---------------------------------------------------------------------------
# combinatorial designs

@dataclass(frozen=True)
class Design:
    """b subsets of {0..l-1}, each of size a, with pairwise intersections at
    most c0 (the univariate degree cap of the construction)."""

    l: int
    a: int
    b: int
    sets: Tuple[Tuple[int, ...], ...]
    q0: int
    c0: int


def rs_design(b: int, a: int, intersection_cap: Optional[int] = None,
              size: Optional[int] = None) -> Design:
    """Reed-Solomon design: sets are graphs {(x, f(x)) : x < a} of the first
    b univariates of degree <= c0 over F_q0, with q0 the smallest prime >= a
    and c0 the smallest degree cap giving q0^(c0+1) >= b distinct univariates.
    The universe is the q0 x q0 grid, index (x, y) -> x*q0 + y.  A ``size``
    below a keeps only x < size, so every set has that many elements.

    The sets are ``nw.univariate_graphs``, in its order, so the design over
    F_psi with b = psi^D and size n is the column table of the NW instance
    (n, psi, D).
    """
    if b < 1 or a < 1:
        raise ValueError("need b >= 1 and a >= 1")
    q0 = next_prime_at_least(a)
    c0 = 0
    while q0 ** (c0 + 1) < b:
        c0 += 1
    if b > q0 ** (c0 + 1):
        raise RuntimeError(
            f"degree cap {c0} gives {q0 ** (c0 + 1)} univariates over "
            f"F_{q0}, fewer than the {b} sets")
    if intersection_cap is not None and c0 > intersection_cap:
        raise ValueError(
            f"degree cap {c0} needed for {b} sets exceeds requested "
            f"intersection cap {intersection_cap}")
    size = a if size is None else size
    sets = tuple(itertools.islice(univariate_graphs(q0, c0 + 1, size), b))
    return Design(l=q0 * q0, a=size, b=b, sets=sets, q0=q0, c0=c0)


@dataclass(frozen=True)
class DesignReport:
    b: int
    a: int
    l: int
    cap: int
    sizes_ok: bool
    range_ok: bool
    max_intersection: int
    intersections_ok: bool
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.sizes_ok and self.range_ok and self.intersections_ok


def verify_design(d: Design, cap: Optional[int] = None) -> DesignReport:
    """Exhaustively check set sizes, universe membership, and all pairwise
    intersections against the cap (default: ceil(log2 b))."""
    if cap is None:
        cap = (d.b - 1).bit_length()
    violations: List[str] = []
    sizes_ok = True
    range_ok = True
    for i, S in enumerate(d.sets):
        if len(S) != d.a or len(set(S)) != d.a:
            sizes_ok = False
            violations.append(f"set {i} has size {len(set(S))}, expected {d.a}")
        bad = [v for v in S if not 0 <= v < d.l]
        if bad:
            range_ok = False
            violations.append(f"set {i} leaves the universe: {bad}")
    max_int = 0
    over: List[str] = []
    for i, j, t in intersections(d.sets):
        max_int = max(max_int, t)
        if t > cap:
            over.append(f"|S_{i} & S_{j}| = {t} > {cap}")
    violations += over
    return DesignReport(b=d.b, a=d.a, l=d.l, cap=cap, sizes_ok=sizes_ok,
                        range_ok=range_ok, max_intersection=max_int,
                        intersections_ok=not over,
                        violations=tuple(violations))


# ---------------------------------------------------------------------------
# parameter derivation

@dataclass(frozen=True)
class PitParams:
    """Everything the generator needs: the trimmed variable sets, the local
    family shape (a' rows, q columns, degree bound D), and the value grid."""

    mu: float
    c: float
    N: int
    k: int
    a: int
    a_prime: int
    q: int
    D: int
    l: int
    sets: Tuple[Tuple[int, ...], ...]
    grid: Tuple[Union[int, Fraction], ...]

    def __post_init__(self):
        if self.N < 1 or self.k < 1:
            raise ValueError("need N >= 1 and k >= 1")
        if not is_prime(self.q):
            raise ValueError(f"q = {self.q} is not prime")
        size = self.a_prime * self.q
        if not size <= self.a:
            raise ValueError(f"a'q = {size} exceeds a = {self.a}")
        if not 1 <= self.D <= self.q:
            raise ValueError(f"D = {self.D} outside [1, q = {self.q}]")
        if len(self.sets) != self.N:
            raise ValueError(f"{len(self.sets)} sets for N = {self.N}")
        for i, S in enumerate(self.sets):
            if len(S) != size:
                raise ValueError(f"set {i} has size {len(S)}, expected {size}")
            if any(not 0 <= v < self.l for v in S):
                raise ValueError(f"set {i} leaves the universe of size {self.l}")
            if tuple(sorted(set(S))) != tuple(S):
                raise ValueError(f"set {i} is not strictly increasing")
        if len(set(self.grid)) != len(self.grid) or not self.grid:
            raise ValueError("grid values must be distinct and nonempty")
        for g in self.grid:
            if not isinstance(g, (int, Fraction)):
                raise ValueError(f"grid value {g!r} is not an int or a Fraction")

    @property
    def set_size(self) -> int:
        return self.a_prime * self.q

    @property
    def stream_size(self) -> int:
        return len(self.grid) ** self.l

    @property
    def stream_size_text(self) -> str:
        """stream_size in decimal, or as ``<grid_size>^<l>`` from 10^4000 on,
        where the decimal nears Python's int-to-str digit limit."""
        total = self.stream_size
        if total < 10 ** DECIMAL_STREAM_DIGITS:
            return str(total)
        return f"{len(self.grid)}^{self.l}"


def derive_pit_params(mu, c, N: int, k: int) -> PitParams:
    """The full parameter chain for declared class exponents (mu, c) and a
    blackbox on N variables with individual degree k.

    mu' = (2mu+1)/2 (midpoint of the feasible region 2mu < mu' < 1);
    a = ceil(N^(mu/mu') * (log2 N)^(1/mu')); the design has N sets over
    F_q0, q0 >= a, with intersections at most ceil(log2 N);
    gamma' = 2(2mu+5)/(1-2mu), kept as an exact rational; a' =
    floor((a/2)^(1/(2+gamma'))); q is the smallest prime with a'q >= a/2
    (any smaller prime falls below a/2, so a'q > a is a hard parameter
    failure); D is ``nw.degree_bound`` on a' rows and q columns, clamped to
    q; each set keeps its first a'q elements; G = {0..Nka'}.  Each rounding
    is exact, by integer roots or ``ceil_real``.
    """
    mu = to_fraction(mu)
    if not 0 <= mu < Fraction(1, 2):
        raise ValueError(f"mu = {mu} outside [0, 1/2)")
    if N < 4 or k < 1:
        raise ValueError("need N >= 4 and k >= 1")
    mu_prime = (2 * mu + 1) / 2
    sigma = (1 + mu_prime) / 2              # mu' + delta', delta' = (1-mu')/2
    gamma_prime = (2 * sigma + 1) / (1 - sigma)
    # a = ceil(x^(1/Q)), x = N^u (log2 N)^v; 2mu' = Q/T gives u/Q = mu/mu', v/Q = 1/mu'
    Q, T = (2 * mu_prime).as_integer_ratio()
    u, v, lg = Q - T, 2 * T, N.bit_length() - 1
    if N == 1 << lg:
        a = int_floor_root(N ** u * lg ** v - 1, Q) + 1
    else:
        # log2 N is transcendental, so x^(1/Q) is never an integer
        a = ceil_real(lambda ctx: ctx.power(
            N ** u * (ctx.log(N) / ctx.log(2)) ** v, ctx.mpf(1) / Q))
    p, r = (1 / (2 + gamma_prime)).as_integer_ratio()      # (1-2mu)/12
    a_prime = max(1, int_floor_root(a ** p // 2 ** p, r))
    q = next_prime_at_least(-(-a // (2 * a_prime)))     # ceil(a / 2a')
    if a_prime * q > a:
        raise ValueError(
            f"parameter failure: smallest prime q = {q} with a'q >= a/2 has "
            f"a'q = {a_prime * q} > a = {a}, and every smaller prime falls "
            f"below a/2")
    D = min(degree_bound(sigma, gamma_prime, a_prime, q), q)
    design = rs_design(N, a, intersection_cap=(N - 1).bit_length(),
                       size=a_prime * q)
    grid = tuple(range(N * k * a_prime + 1))
    return PitParams(
        mu=float(mu), c=float(c), N=N, k=k, a=a, a_prime=a_prime, q=q, D=D,
        l=design.l, sets=design.sets, grid=grid)


def toy_pit_params(N: int, k: int, l: int, a_prime: int = 1, q: int = 2,
                   D: int = 1, grid: Optional[Sequence[int]] = None,
                   sets: Optional[Sequence[Sequence[int]]] = None,
                   mu: float = 0.0, c: float = 3.0) -> PitParams:
    """Small hand-set parameters for desk runs.  Sets default to size-a'q
    subsets of the universe cycled from the combination enumeration; the
    grid defaults to {0..Nka'}."""
    size = a_prime * q
    if sets is None:
        if size > l:
            raise ValueError(f"set size a'q = {size} exceeds universe l = {l}")
        pool = itertools.cycle(itertools.combinations(range(l), size))
        sets = tuple(next(pool) for _ in range(N))
    else:
        sets = tuple(tuple(S) for S in sets)
    if grid is None:
        grid = range(N * k * a_prime + 1)
    return PitParams(
        mu=mu, c=c, N=N, k=k, a=size, a_prime=a_prime, q=q, D=D, l=l,
        sets=sets, grid=tuple(grid))


# ---------------------------------------------------------------------------
# the generator and the driver

def hitting_set_stream(params: PitParams,
                       limit: Optional[int] = None) -> Iterator[Tuple]:
    """Lazily yield the N-tuples (NW(S_1)|p, ..., NW(S_N)|p) for p ranging
    over G^l in lexicographic order; full length |G|^l, or the first
    ``limit`` tuples.

    Values are exact, and ints on an integer grid.  The points come from an
    odometer: a step that changes coordinates j..l-1 re-evaluates only the
    distinct sets whose largest element is at least j.  A set listed more
    than once is evaluated once and its value shared."""
    inst = NWInstance(n=params.a_prime, psi=params.q, D=params.D)
    if limit is not None and limit <= 0:
        return
    grid, l = params.grid, params.l
    # distinct sets by largest element, so a step re-evaluates a suffix
    distinct = sorted(set(params.sets), key=lambda S: S[-1])
    slot = {S: i for i, S in enumerate(distinct)}
    where = [slot[S] for S in params.sets]
    tops = [S[-1] for S in distinct]
    digits = [0] * l
    point = [grid[0]] * l
    values = [nw_eval(inst, [point[v] for v in S]) for S in distinct]
    h = tuple(values[i] for i in where)
    last = len(grid) - 1
    count = 0
    while True:
        yield h
        count += 1
        if limit is not None and count >= limit:
            return
        j = l - 1
        while j >= 0 and digits[j] == last:
            digits[j] = 0
            point[j] = grid[0]
            j -= 1
        if j < 0:
            return
        digits[j] += 1
        point[j] = grid[digits[j]]
        first = bisect_left(tops, j)
        if first < len(distinct):
            for i in range(first, len(distinct)):
                values[i] = nw_eval(inst, [point[v] for v in distinct[i]])
            h = tuple(values[i] for i in where)


@dataclass(frozen=True)
class Blackbox:
    """Evaluation access only: a callback from an N-point to a field value,
    plus the declared class data the caller vouches for."""

    fn: Callable[[Sequence], object]
    num_vars: int
    k: Optional[int] = None
    notes: str = ""

    def eval_at(self, point: Sequence):
        if len(point) != self.num_vars:
            raise ValueError(
                f"point has {len(point)} values, box declares {self.num_vars}")
        return self.fn(point)


def _integer_circuit(C: FewVarCircuit) -> Tuple[int, Tuple]:
    """A circuit over Q in ints: L and terms (mult, factors), each factor a
    tuple of (c, ((var, exp), ...)), such that the sum over terms of mult
    times the product of the factors is L times the circuit.  Each factor
    is cleared by the lcm of its coefficients' denominators; the term's
    scale and those lcms fold into mult, and L is the lcm of the terms'
    denominators.  Terms with scale 0 are dropped."""
    cleared = []
    for scale, factors in C.terms:
        if not scale:
            continue
        num, den = scale.numerator, scale.denominator
        polys = []
        for f in factors:
            d = math.lcm(*(c.denominator for c in f.poly.terms.values()))
            polys.append(tuple((c.numerator * (d // c.denominator), mon)
                               for mon, c in f.global_terms().items()))
            den *= d
        cleared.append((num, den, tuple(polys)))
    L = math.lcm(*(den for _, den, _ in cleared))
    return L, tuple((num * (L // den), polys) for num, den, polys in cleared)


def blackbox_from_circuit(C: FewVarCircuit) -> Blackbox:
    """Evaluation access to an open circuit.  A circuit over Q is compiled
    once into integer form and evaluated in it at every point of ints and
    Fractions, in int arithmetic on an all-int point; a GF circuit goes
    through ``eval_circuit``.  Either way the value is exact."""
    n = C.num_vars
    if C.field_p is not None:
        return Blackbox(fn=lambda pt: eval_circuit(C, pt), num_vars=n, k=C.k,
                        notes="open circuit")
    L, terms = _integer_circuit(C)

    def evaluate(pt):
        total = 0
        for prod, polys in terms:
            for poly in polys:
                value = 0
                for c, mon in poly:
                    for v, e in mon:
                        c *= pt[v] if e == 1 else pt[v] ** e
                    value += c
                prod *= value
                if not prod:
                    break
            total += prod
        return Fraction(total, L)

    return Blackbox(fn=evaluate, num_vars=n, k=C.k, notes="open circuit")


@dataclass
class PitResult:
    status: str                    # "witness" | "zero-on-set" | "inconclusive"
    tested: int
    point: Optional[Tuple] = None  # exact values, ints on an integer grid
    value: Optional[object] = None
    class_report: Optional[ClassReport] = None

    @property
    def found(self) -> bool:
        return self.status == "witness"


def pit_run(box: Union[Blackbox, FewVarCircuit], params: PitParams,
            budget: Optional[int] = None) -> PitResult:
    """Scan the hitting-set stream for a nonzero evaluation.

    Returns the lexicographically first witness (re-evaluated and asserted
    nonzero), "zero-on-set" after a full scan, or "inconclusive" when the
    budget runs out first.  Open circuits get a class report attached; a
    failing report is recorded, not raised, since the guarantee simply does
    not apply outside the class.
    """
    report = None
    if isinstance(box, FewVarCircuit):
        if box.num_vars != params.N:
            raise ValueError(
                f"circuit has {box.num_vars} variables, params expect {params.N}")
        report = class_check(box, params.c, params.mu)
        box = blackbox_from_circuit(box)
    if box.num_vars != params.N:
        raise ValueError(
            f"box declares {box.num_vars} variables, params expect {params.N}")
    total = params.stream_size
    if budget is None and total > DEFAULT_STREAM_CAP:
        raise ValueError(
            f"stream has {params.stream_size_text} points; pass a budget for "
            f"a partial scan")
    tested = 0
    for h in hitting_set_stream(params, limit=budget):
        v = box.eval_at(h)
        tested += 1
        if v:
            again = box.eval_at(h)
            if not again:
                raise RuntimeError(
                    f"witness failed re-evaluation: {v} on the first call, "
                    f"{again} on the second")
            return PitResult(status="witness", tested=tested, point=h,
                             value=again, class_report=report)
    if tested < total:
        return PitResult(status="inconclusive", tested=tested,
                         class_report=report)
    return PitResult(status="zero-on-set", tested=tested, class_report=report)


# ---------------------------------------------------------------------------
# baselines

@dataclass
class SZResult:
    status: str                    # "witness" | "probably-zero"
    trials: int
    seed: int
    point: Optional[Tuple[int, ...]] = None
    value: Optional[object] = None

    @property
    def found(self) -> bool:
        return self.status == "witness"


def schwartz_zippel(box: Blackbox, trials: int, domain_size: int,
                    seed: int) -> SZResult:
    """Randomized baseline: evaluate at ``trials`` uniform points of
    {0..domain_size-1}^N from the seeded stream "schwartz-zippel"."""
    if trials < 1 or domain_size < 1:
        raise ValueError("need trials >= 1 and domain_size >= 1")
    from .rng import named_rng
    rng = named_rng(seed, "schwartz-zippel")
    for _ in range(trials):
        # one point at a time, so the scan draws nothing past a witness
        point = tuple(rng.integers(0, domain_size, size=box.num_vars))
        v = box.eval_at(point)
        if v:
            return SZResult(status="witness", trials=trials, seed=seed,
                            point=point, value=v)
    return SZResult(status="probably-zero", trials=trials, seed=seed)
