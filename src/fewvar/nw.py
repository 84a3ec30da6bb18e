"""The combinatorial hard-polynomial family built from low-degree univariates.

An instance places n * psi variables in an n-by-psi matrix (row-major: row i,
column j is global index i*psi + j).  For every univariate f over the
psi-element prime field with deg f <= D-1 there is one monomial
prod_i X[i, f(i)], giving exactly psi^D multilinear monomials of degree n
whose supports pairwise share at most D-1 rows: two distinct univariates of
degree < D agree on fewer than D points.

Parameter derivation follows the fixed schedule: delta = (1-mu)/2, gamma =
(2(mu+delta)+1)/(1-mu-delta), psi the smallest prime strictly above
n^(1+gamma) and at most twice it, N = n*psi, rho = (mu+delta)*ln N / ln n,
and D the ceiling of (gamma+rho)/(2(1+gamma)) * n, clamped to at least 1.
A generalized free (n, psi, D) mode is first-class so the family can be
exercised at desk scale, where the derived windows are astronomically large.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Sequence, Tuple, Union

from .algebra import (
    Mon,
    SparsePolynomial,
    bertrand_prime,
    ceil_real,
    coerce,
    int_floor_root,
    is_prime,
    mon_degree,
    mon_is_multilinear,
    mon_support,
    to_fraction,
)

DEFAULT_ENUM_CAP = 10 ** 6


@dataclass(frozen=True)
class NWParams:
    mu: Fraction
    n: int
    delta: Fraction
    gamma: Fraction
    psi: int
    N: int
    rho: float
    D_raw: float
    D: int


def degree_bound(sigma: Fraction, gamma: Fraction, rows: int, cols: int) -> int:
    """The D schedule: the ceiling of (gamma+rho)/(2(1+gamma)) * rows with
    rho = sigma * ln(rows*cols) / ln(rows), clamped to at least 1.  A single
    row needs only the constants, so rows = 1 gives D = 1."""
    if rows == 1:
        return 1
    base, slope = (rows * x / (2 * (1 + gamma)) for x in (gamma, sigma))
    # cols is a prime above rows, so log_rows(rows*cols) is irrational and
    # base + slope * log_rows(rows*cols) is never an integer
    return max(1, ceil_real(lambda ctx: ctx.mpf(base.numerator) / base.denominator
                            + ctx.mpf(slope.numerator) / slope.denominator
                            * ctx.log(rows * cols) / ctx.log(rows)))


def derive_nw_params(mu, n: int) -> NWParams:
    """Derive the full parameter set for hardness exponent mu and degree n.

    Deterministic and exact: the prime window (n^(1+gamma), 2*n^(1+gamma)]
    is resolved with integer root arithmetic, never floats, so the smallest
    prime is reproducible, and D is ``degree_bound``'s certified ceiling.
    rho and D_raw are floats, for the report only.
    """
    mu = to_fraction(mu)
    if not 0 <= mu < 1:
        raise ValueError(f"mu={mu} outside [0, 1)")
    if n < 2:
        raise ValueError(f"n={n} must be at least 2")
    delta = (1 - mu) / 2
    gamma = (2 * (mu + delta) + 1) / (1 - mu - delta)
    expo = 1 + gamma
    pn, pd = expo.numerator, expo.denominator
    # strictly above n^expo: integers m > x iff m^pd > n^pn
    lo = int_floor_root(n ** pn, pd)
    hi = int_floor_root(2 ** pd * n ** pn, pd)
    psi = bertrand_prime(lo, hi)
    N = n * psi
    rho = float(mu + delta) * math.log(N) / math.log(n)
    D_raw = (float(gamma) + rho) / (2 * (1 + float(gamma))) * n
    D = degree_bound(mu + delta, gamma, n, psi)
    if D > psi:
        raise ValueError(f"degree bound D={D} exceeds field size psi={psi}")
    return NWParams(mu=mu, n=n, delta=delta, gamma=gamma, psi=psi, N=N,
                    rho=rho, D_raw=D_raw, D=D)


@dataclass(frozen=True)
class NWInstance:
    """An evaluable family instance: n rows, psi columns, univariate degree
    bound D (coefficient vectors live in the psi-element field).  Row i is
    read off at field point i, so rows beyond psi would repeat points; the
    constructor requires n <= psi."""

    n: int
    psi: int
    D: int

    def __post_init__(self):
        if not is_prime(self.psi):
            raise ValueError(f"psi={self.psi} is not prime")
        if not 1 <= self.D <= self.psi:
            raise ValueError(f"D={self.D} outside [1, psi={self.psi}]")
        if not 1 <= self.n <= self.psi:
            raise ValueError(f"n={self.n} outside [1, psi={self.psi}]")

    @property
    def num_vars(self) -> int:
        return self.n * self.psi

    @property
    def monomial_count(self) -> int:
        return self.psi ** self.D

    def var_index(self, row: int, col: int) -> int:
        return row * self.psi + col

    def _column(self, coeffs: Tuple[int, ...], row: int) -> int:
        """f(row) for the univariate with the given coefficient vector
        (constant first)."""
        x = row % self.psi
        acc = 0
        for t, c in enumerate(coeffs):
            acc = (acc + c * pow(x, t, self.psi)) % self.psi
        return acc

    @cached_property
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        """The compiled column table: per univariate f, in lexicographic
        order of its coefficient vector (constant coefficient first), the
        variable indices X[i, f(i)] for i < n.  Built on first use, so check
        the enumeration cap before asking for it."""
        return tuple(
            tuple(self.var_index(i, self._column(coeffs, i)) for i in range(self.n))
            for coeffs in itertools.product(range(self.psi), repeat=self.D))

    def check_cap(self, cap: Optional[int] = None) -> None:
        limit = DEFAULT_ENUM_CAP if cap is None else cap
        if self.monomial_count > limit:
            raise ValueError(
                f"enumeration cap exceeded: psi^D = {self.monomial_count} > {limit}")


def nw_monomials(inst: NWInstance, cap: Optional[int] = None) -> Iterator[Mon]:
    """One multilinear degree-n monomial per univariate, enumerated in
    lexicographic order of the coefficient vector (constant coefficient
    first)."""
    inst.check_cap(cap)
    for cols in inst.columns:
        yield tuple((v, 1) for v in cols)


def nw_expand(inst: NWInstance, cap: Optional[int] = None) -> SparsePolynomial:
    """The instance as an explicit polynomial (desk-scale oracle)."""
    terms = {mon: Fraction(1) for mon in nw_monomials(inst, cap)}
    return SparsePolynomial(inst.num_vars, terms, None)


def nw_eval(inst: NWInstance, point: Sequence,
            cap: Optional[int] = None) -> Union[int, Fraction]:
    """Evaluate over the compiled column table (no monomial search): the sum
    over f of prod_i point[i, f(i)].

    The value is exact.  Values that are not ``int`` are coerced into Q, so
    an integer point is evaluated in int arithmetic and gives an int, and
    any other point gives a Fraction or an int."""
    if len(point) != inst.num_vars:
        raise ValueError(
            f"dimension mismatch: point has {len(point)} values, instance has "
            f"{inst.num_vars} variables")
    inst.check_cap(cap)
    vals = [v if type(v) is int else coerce(v, None) for v in point]
    total = 0
    for cols in inst.columns:
        prod = 1
        for v in cols:
            prod *= vals[v]
            if not prod:
                break
        total += prod
    return total


@dataclass(frozen=True)
class NWReport:
    monomial_count: int
    expected_count: int
    count_ok: bool
    multilinear_ok: bool
    degree_ok: bool
    max_intersection: int
    intersection_bound: int
    intersection_ok: bool

    @property
    def ok(self) -> bool:
        return (self.count_ok and self.multilinear_ok and self.degree_ok
                and self.intersection_ok)


def nw_check_properties(inst: NWInstance, cap: Optional[int] = None) -> NWReport:
    """Exhaustively verify the monomial count, multilinearity, the degree,
    and the pairwise support-intersection bound D-1."""
    mons = list(nw_monomials(inst, cap))
    supports = [frozenset(mon_support(m)) for m in mons]
    count_ok = len(mons) == inst.monomial_count and len(set(mons)) == len(mons)
    multilinear_ok = all(mon_is_multilinear(m) for m in mons)
    degree_ok = all(mon_degree(m) == inst.n for m in mons)
    worst = 0
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            inter = len(supports[i] & supports[j])
            if inter > worst:
                worst = inter
    return NWReport(
        monomial_count=len(mons),
        expected_count=inst.monomial_count,
        count_ok=count_ok,
        multilinear_ok=multilinear_ok,
        degree_ok=degree_ok,
        max_intersection=worst,
        intersection_bound=inst.D - 1,
        intersection_ok=worst <= inst.D - 1,
    )
