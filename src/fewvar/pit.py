"""Deterministic blackbox identity testing for bounded-support circuits.

The hitting set is built in three stages.  A Reed-Solomon combinatorial
design supplies N subsets of a small universe with pairwise intersections
bounded by the univariate degree cap: set i is the graph of univariate #i
from ``nw.univariate_graph``, as in the family's column table, computed from
i when it is read.  Each set, trimmed to a' * q elements, carries a local
copy of the hard polynomial family (a' rows by q columns, univariate degree
bound D).  The generator then maps every point of the grid G^l through the
N local polynomials, and the driver scans the resulting N-tuples in
lexicographic order until the blackbox returns a nonzero value or the
stream is exhausted.  An open circuit, over Q or GF(p), is a blackbox
through ``circuit.eval_circuit``, the one circuit evaluator.

The baseline lives here too: seeded Schwartz-Zippel random evaluation.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from typing import (Callable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .algebra import (FrozenValue, ceil_real, int_floor_root, is_prime,
                      next_prime_at_least, to_fraction)
from .circuit import ClassReport, FewVarCircuit, class_check, eval_circuit
from .nw import (NWInstance, degree_bound, intersections, nw_eval,
                 univariate_graph)

DEFAULT_STREAM_CAP = 1_000_000
# stream sizes with more digits are reported as grid_size^l, not in decimal
DECIMAL_STREAM_DIGITS = 4000


# ---------------------------------------------------------------------------
# combinatorial designs

class Design(FrozenValue, Sequence[Tuple[int, ...]]):
    """b subsets of {0..l-1}, l = q0^2, each of size a, with pairwise
    intersections at most c0 (the univariate degree cap), held as that
    description: set i, read as ``d[i]``, is computed from i."""

    _fields = ("b", "a", "q0", "c0")

    def __init__(self, b: int, a: int, q0: int, c0: int):
        vars(self).update(b=b, a=a, q0=q0, c0=c0)

    @property
    def l(self) -> int:
        return self.q0 * self.q0

    def __len__(self) -> int:
        return self.b

    def __getitem__(self, i: int) -> Tuple[int, ...]:
        return univariate_graph(self.q0, self.a, range(self.b)[i])


def rs_design(b: int, a: int, intersection_cap: Optional[int] = None,
              size: Optional[int] = None) -> Design:
    """Reed-Solomon design: sets are graphs {(x, f(x)) : x < a} of the first
    b univariates of degree <= c0 over F_q0, with q0 the smallest prime >= a
    and c0 the smallest degree cap giving q0^(c0+1) >= b distinct univariates.
    The universe is the q0 x q0 grid, index (x, y) -> x*q0 + y.  A ``size``
    below a keeps only x < size, so every set has that many elements.

    Set i is ``nw.univariate_graph``'s graph #i, so the design over F_psi
    with b = psi^D and size n is the column table of the NW instance
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
    return Design(b=b, a=a if size is None else size, q0=q0, c0=c0)


class DesignReport(NamedTuple):
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
    sizes_ok = range_ok = True
    sets = list(d)
    for i, S in enumerate(sets):
        if len(S) != d.a or len(set(S)) != d.a:
            sizes_ok = False
            violations.append(f"set {i} has size {len(set(S))}, expected {d.a}")
        bad = [v for v in S if not 0 <= v < d.l]
        if bad:
            range_ok = False
            violations.append(f"set {i} leaves the universe: {bad}")
    max_int = 0
    over: List[str] = []
    for i, j, t in intersections(sets):
        max_int = max(max_int, t)
        if t > cap:
            over.append(f"|S_{i} & S_{j}| = {t} > {cap}")
    violations += over
    return DesignReport(sizes_ok=sizes_ok, range_ok=range_ok,
                        max_intersection=max_int, intersections_ok=not over,
                        violations=tuple(violations))


# ---------------------------------------------------------------------------
# parameter derivation

class PitParams(NamedTuple):
    """Everything the generator needs: the N trimmed variable sets, each a
    strictly increasing tuple of a'q elements of range(l) (a ``Design``, or
    a tuple for toy parameters), the local family shape (a' rows, q columns,
    degree bound D), and the value grid.  Its builders guarantee N, k >= 1,
    q prime, 1 <= D <= q and a nonempty grid of distinct ints and
    Fractions: ``derive_pit_params`` by construction, ``toy_pit_params``
    by checking its arguments."""

    mu: float
    c: float
    N: int
    k: int
    a: int
    a_prime: int
    q: int
    D: int
    l: int
    sets: Sequence[Tuple[int, ...]]
    grid: Tuple[Union[int, Fraction], ...]

    @property
    def set_size(self) -> int:
        return self.a_prime * self.q

    @property
    def stream_size(self) -> int:
        return len(self.grid) ** self.l

    def stream_exceeds(self, bound: int) -> bool:
        """Whether stream_size > bound.  With b the bit length of the grid
        size g, 2^((b-1)l) <= g^l <= 2^(bl), which decides the comparison
        unless the bound's bit length falls between; only then is g^l
        computed."""
        g, n = len(self.grid), bound.bit_length()
        if bound < 1 or (g.bit_length() - 1) * self.l >= n:
            return True
        if g.bit_length() * self.l < n:
            return False
        return self.stream_size > bound

    @property
    def stream_size_text(self) -> str:
        """stream_size in decimal, or as ``<grid_size>^<l>`` from 10^4000 on,
        where the decimal nears Python's int-to-str digit limit."""
        if self.stream_exceeds(10 ** DECIMAL_STREAM_DIGITS - 1):
            return f"{len(self.grid)}^{self.l}"
        return str(self.stream_size)


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
        l=design.l, sets=design, grid=grid)


def toy_pit_params(N: int, k: int, l: int, a_prime: int = 1, q: int = 2,
                   D: int = 1, grid: Optional[Sequence[int]] = None,
                   mu: float = 0.0, c: float = 3.0) -> PitParams:
    """Small hand-set parameters for desk runs.  The sets are the size-a'q
    subsets of the universe cycled from the combination enumeration; the
    grid defaults to {0..Nka'}.  The other arguments are checked after the
    sets are drawn, so a negative a' is refused by the combinations."""
    size = a_prime * q
    if size > l:
        raise ValueError(f"set size a'q = {size} exceeds universe l = {l}")
    pool = itertools.cycle(itertools.combinations(range(l), size))
    sets = tuple(next(pool) for _ in range(N))
    grid = tuple(range(N * k * a_prime + 1) if grid is None else grid)
    if N < 1 or k < 1:
        raise ValueError("need N >= 1 and k >= 1")
    if not is_prime(q):
        raise ValueError(f"q = {q} is not prime")
    if not 1 <= D <= q:
        raise ValueError(f"D = {D} outside [1, q = {q}]")
    if len(set(grid)) != len(grid) or not grid:
        raise ValueError("grid values must be distinct and nonempty")
    for g in grid:
        if not isinstance(g, (int, Fraction)):
            raise ValueError(f"grid value {g!r} is not an int or a Fraction")
    return PitParams(
        mu=mu, c=c, N=N, k=k, a=size, a_prime=a_prime, q=q, D=D, l=l,
        sets=sets, grid=grid)


# ---------------------------------------------------------------------------
# the generator and the driver

def hitting_set_stream(params: PitParams,
                       limit: Optional[int] = None) -> Iterator[Tuple]:
    """Lazily yield the N-tuples (NW(S_1)|p, ..., NW(S_N)|p) for p ranging
    over G^l in lexicographic order; full length |G|^l, or the first
    ``limit`` tuples.

    Values are exact, and ints on an integer grid.  Each set is built when
    the stream starts.  The points come from an odometer: a step changing
    coordinates j..l-1 re-evaluates only the distinct sets whose largest
    element is at least j, and a repeated set is evaluated once."""
    inst = NWInstance(n=params.a_prime, psi=params.q, D=params.D)
    if limit is not None and limit <= 0:
        return
    grid, l, sets = params.grid, params.l, tuple(params.sets)
    # distinct sets by largest element, so a step re-evaluates a suffix
    distinct = sorted(set(sets), key=lambda S: S[-1])
    slot = {S: i for i, S in enumerate(distinct)}
    where = [slot[S] for S in sets]
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


class Blackbox(NamedTuple):
    """Evaluation access only: a callback from an N-point to a field value,
    plus the declared class data the caller vouches for."""

    fn: Callable[[Sequence], object]
    num_vars: int
    k: Optional[int] = None
    notes: str = ""

    def eval_at(self, point: Sequence):
        """The value at a point of ``num_vars`` values, as ``pit_run`` and
        ``schwartz_zippel`` build them; ``eval_circuit`` checks the length
        of a point given to an open circuit."""
        return self.fn(point)


def blackbox_from_circuit(C: FewVarCircuit) -> Blackbox:
    """Evaluation access to an open circuit, over Q or GF(p): every point
    goes through ``eval_circuit``, the one circuit evaluator, so the value
    is exact."""
    return Blackbox(fn=partial(eval_circuit, C), num_vars=C.num_vars, k=C.k,
                    notes="open circuit")


class PitResult(NamedTuple):
    status: str                    # "witness" | "zero-on-set" | "inconclusive"
    tested: int
    point: Optional[Tuple] = None  # exact values, ints on an integer grid
    value: Optional[object] = None
    class_report: Optional[ClassReport] = None


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
    if budget is None and params.stream_exceeds(DEFAULT_STREAM_CAP):
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
    if params.stream_exceeds(tested):
        return PitResult(status="inconclusive", tested=tested,
                         class_report=report)
    return PitResult(status="zero-on-set", tested=tested, class_report=report)


# ---------------------------------------------------------------------------
# baselines

class SZResult(NamedTuple):
    status: str                    # "witness" | "probably-zero"
    trials: int
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
            return SZResult(status="witness", trials=trials, point=point,
                            value=v)
    return SZResult(status="probably-zero", trials=trials)
