"""Deterministic blackbox identity testing for bounded-support circuits.

The hitting set is built in three stages.  A Reed-Solomon combinatorial
design supplies N subsets of a small universe with pairwise intersections
bounded by the univariate degree cap.  Each set, trimmed to a' * q elements,
carries a local copy of the hard polynomial family (a' rows by q columns,
univariate degree bound D).  The generator then maps every point of the grid
G^l through the N local polynomials, and the driver scans the resulting
N-tuples in lexicographic order until the blackbox returns a nonzero value
or the stream is exhausted.

Baselines live here too: seeded Schwartz-Zippel random evaluation, and the
exhaustive grid {0..d}^N that is guaranteed to expose any nonzero polynomial
of individual degree at most d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import mpmath

from .algebra import is_prime, next_prime_at_least
from .circuit import ClassReport, FewVarCircuit, class_check, eval_circuit
from .nw import NWInstance, nw_eval
from .rng import named_rng

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


def rs_design(b: int, a: int, intersection_cap: Optional[int] = None) -> Design:
    """Reed-Solomon design: sets are graphs {(x, f(x)) : x < a} of the first
    b univariates of degree <= c0 over F_q0, with q0 the smallest prime >= a
    and c0 the smallest degree cap giving q0^(c0+1) >= b distinct univariates.
    The universe is the q0 x q0 grid, index (x, y) -> x*q0 + y.

    Enumeration order: univariate #i has the base-q0 digits of i as
    coefficients, constant coefficient least significant.
    """
    if b < 1 or a < 1:
        raise ValueError("need b >= 1 and a >= 1")
    q0 = next_prime_at_least(a)
    c0 = 0
    while q0 ** (c0 + 1) < b:
        c0 += 1
    assert b <= q0 ** (c0 + 1)
    if intersection_cap is not None and c0 > intersection_cap:
        raise ValueError(
            f"degree cap {c0} needed for {b} sets exceeds requested "
            f"intersection cap {intersection_cap}")
    sets = []
    for idx in range(b):
        digits = []
        v = idx
        for _ in range(c0 + 1):
            digits.append(v % q0)
            v //= q0
        # x*q0 + f(x) is strictly increasing in x, so the set comes out sorted
        sets.append(tuple(
            x * q0 + (sum(d * pow(x, t, q0) for t, d in enumerate(digits)) % q0)
            for x in range(a)))
    return Design(l=q0 * q0, a=a, b=b, sets=tuple(sets), q0=q0, c0=c0)


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
        cap = math.ceil(math.log2(d.b)) if d.b > 1 else 0
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
    intersections_ok = True
    for i in range(d.b):
        for j in range(i + 1, d.b):
            t = len(set(d.sets[i]) & set(d.sets[j]))
            max_int = max(max_int, t)
            if t > cap:
                intersections_ok = False
                violations.append(f"|S_{i} & S_{j}| = {t} > {cap}")
    return DesignReport(b=d.b, a=d.a, l=d.l, cap=cap, sizes_ok=sizes_ok,
                        range_ok=range_ok, max_intersection=max_int,
                        intersections_ok=intersections_ok,
                        violations=tuple(violations))


# ---------------------------------------------------------------------------
# parameter derivation

def _ceil_snap(x) -> int:
    """Ceiling that forgives numeric fuzz just below an integer; use under
    mpmath.workdps with generous precision."""
    n = mpmath.nint(x)
    if abs(x - n) < mpmath.mpf(10) ** (-(mpmath.mp.dps - 10)):
        return int(n)
    return int(mpmath.ceil(x))


def _floor_rational_power(num: int, den: int, exp: Fraction) -> int:
    """Exact floor((num/den)^exp) for positive num/den and exp, by integer
    root extraction: the largest t with t^q * den^p <= num^p."""
    p, q = exp.numerator, exp.denominator
    budget = num ** p
    scale = den ** p
    t = 0
    while (t + 1) ** q * scale <= budget:
        t += 1
    return t


def _frac(x) -> Fraction:
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


@dataclass(frozen=True)
class PitParams:
    """Everything the generator needs: the trimmed variable sets, the local
    family shape (a' rows, q columns, degree bound D), and the value grid."""

    mu: float
    mu_prime: float
    c: float
    N: int
    k: int
    a: int
    a_prime: int
    q: int
    D: int
    l: int
    delta_prime: float
    gamma_prime: float
    sets: Tuple[Tuple[int, ...], ...]
    grid: Tuple[int, ...]
    design: Optional[Design] = None

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
    a = ceil(N^(mu/mu') * (log2 N)^(1/mu')); the design has N sets of size a;
    gamma' = 2(2mu+5)/(1-2mu), kept as an exact rational; a' =
    floor((a/2)^(1/(2+gamma'))) by integer root extraction; q is the
    smallest prime with a'q >= a/2 (any smaller prime falls below a/2, so
    a'q > a is a hard parameter failure); D is the ceiling of the usual
    (gamma'+rho')/(2(1+gamma')) * a' schedule clamped to [1, q], except that
    a' = 1 forces D = 1 since a single row needs only the constants;
    G = {0..Nka'}.
    """
    mu = _frac(mu)
    if not 0 <= mu < Fraction(1, 2):
        raise ValueError(f"mu = {mu} outside [0, 1/2)")
    if N < 4 or k < 1:
        raise ValueError("need N >= 4 and k >= 1")
    mu_prime = (2 * mu + 1) / 2
    delta_prime = (1 - mu_prime) / 2
    sigma = mu_prime + delta_prime          # (2mu+3)/4
    gamma_prime = (2 * sigma + 1) / (1 - sigma)
    root_exp = 1 / (2 + gamma_prime)        # reduces to (1-2mu)/12
    with mpmath.workdps(50):
        e1 = mpmath.mpf(mu.numerator) / mu.denominator \
            / (mpmath.mpf(mu_prime.numerator) / mu_prime.denominator)
        e2 = 1 / (mpmath.mpf(mu_prime.numerator) / mu_prime.denominator)
        log2N = mpmath.log(N) / mpmath.log(2)
        a = _ceil_snap(mpmath.power(N, e1) * mpmath.power(log2N, e2))
    a_prime = max(1, _floor_rational_power(a, 2, root_exp))
    q = next_prime_at_least(-(-a // (2 * a_prime)))     # ceil(a / 2a')
    if a_prime * q > a:
        raise ValueError(
            f"parameter failure: smallest prime q = {q} with a'q >= a/2 has "
            f"a'q = {a_prime * q} > a = {a}, and every smaller prime falls "
            f"below a/2")
    if a_prime == 1:
        D = 1
    else:
        with mpmath.workdps(50):
            g = mpmath.mpf(gamma_prime.numerator) / gamma_prime.denominator
            rho = (mpmath.mpf(sigma.numerator) / sigma.denominator
                   * mpmath.log(a_prime * q) / mpmath.log(a_prime))
            D = max(1, _ceil_snap((g + rho) / (2 * (1 + g)) * a_prime))
        D = min(D, q)
    design = rs_design(N, a, intersection_cap=math.ceil(math.log2(N)))
    size = a_prime * q
    sets = tuple(S[:size] for S in design.sets)
    grid = tuple(range(N * k * a_prime + 1))
    return PitParams(
        mu=float(mu), mu_prime=float(mu_prime), c=float(c), N=N, k=k, a=a,
        a_prime=a_prime, q=q, D=D, l=design.l,
        delta_prime=float(delta_prime), gamma_prime=float(gamma_prime),
        sets=sets, grid=grid, design=design)


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
        mu=mu, mu_prime=(2 * mu + 1) / 2, c=c, N=N, k=k, a=size,
        a_prime=a_prime, q=q, D=D, l=l,
        delta_prime=(1 - (2 * mu + 1) / 2) / 2, gamma_prime=0.0,
        sets=sets, grid=tuple(grid), design=None)


# ---------------------------------------------------------------------------
# the generator and the driver

def hitting_set_stream(params: PitParams,
                       limit: Optional[int] = None) -> Iterator[Tuple[Fraction, ...]]:
    """Lazily yield the N-tuples (NW(S_1)|p, ..., NW(S_N)|p) for p ranging
    over G^l in lexicographic order; full length |G|^l."""
    inst = NWInstance(n=params.a_prime, psi=params.q, D=params.D)
    count = 0
    for p in itertools.product(params.grid, repeat=params.l):
        if limit is not None and count >= limit:
            return
        yield tuple(nw_eval(inst, [p[v] for v in S]) for S in params.sets)
        count += 1


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


def blackbox_from_circuit(C: FewVarCircuit) -> Blackbox:
    return Blackbox(fn=lambda pt: eval_circuit(C, pt), num_vars=C.num_vars,
                    k=C.k, notes="open circuit")


@dataclass
class PitResult:
    status: str                    # "witness" | "zero-on-set" | "inconclusive"
    tested: int
    point: Optional[Tuple[Fraction, ...]] = None
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
    rng = named_rng(seed, "schwartz-zippel")
    pts = rng.integers(0, domain_size, size=(trials, box.num_vars))
    for row in pts:
        point = tuple(int(x) for x in row)
        v = box.eval_at(point)
        if v:
            return SZResult(status="witness", trials=trials, seed=seed,
                            point=point, value=v)
    return SZResult(status="probably-zero", trials=trials, seed=seed)


def combnulls_grid(N: int, d: int) -> Iterator[Tuple[int, ...]]:
    """Lexicographic enumeration of {0..d}^N.  Any nonzero polynomial with
    individual degree <= d is nonzero somewhere on this grid, so a full scan
    is a sound and complete (if exponential) identity test."""
    if N < 1 or d < 0:
        raise ValueError("need N >= 1 and d >= 0")
    return itertools.product(range(d + 1), repeat=N)
