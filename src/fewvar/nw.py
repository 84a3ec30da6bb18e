"""The combinatorial hard-polynomial family built from low-degree univariates.

An instance places n * psi variables in an n-by-psi matrix (row-major: row i,
column j is global index i*psi + j).  For every univariate f over the
psi-element prime field with deg f <= D-1 there is one monomial
prod_i X[i, f(i)], giving exactly psi^D multilinear monomials of degree n
whose supports pairwise share at most D-1 rows: two distinct univariates of
degree < D agree on fewer than D points.

The support of f's monomial is its graph {(i, f(i)) : i < n}, as indices
i*psi + f(i).  ``univariate_graph`` builds graph #k from k alone, for the
family's column table and for each set of the hitting set's design, in the
one enumeration order: univariate #k has the base-psi digits of k as its
coefficients, constant coefficient least significant.

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
from typing import Iterator, Sequence, Tuple, Union

from .algebra import (
    bertrand_prime,
    ceil_real,
    int_floor_root,
    is_prime,
    to_fraction,
)

DEFAULT_ENUM_CAP = 10 ** 6


def univariate_graph(q: int, rows: int, k: int) -> Tuple[int, ...]:
    """The graph {(x, f(x)) : x < rows} of univariate #k over F_q, whose
    coefficients are the base-q digits of k, constant coefficient least
    significant: the tuple of indices x*q + f(x), x ascending, so strictly
    increasing.  f(x) is evaluated by Horner's rule."""
    coeffs = []                  # top coefficient first
    while k:
        k, c = divmod(k, q)
        coeffs.insert(0, c)
    graph = []
    for x in range(rows):
        y = 0
        for c in coeffs:
            y = (y * x + c) % q
        graph.append(x * q + y)
    return tuple(graph)


def intersections(sets: Sequence[Sequence[int]]) -> Iterator[Tuple[int, int, int]]:
    """(i, j, |S_i & S_j|) for every pair i < j, in lexicographic order of
    (i, j).  Each set is frozen once."""
    frozen = [frozenset(S) for S in sets]
    for (i, S), (j, T) in itertools.combinations(enumerate(frozen), 2):
        yield i, j, len(S & T)


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

    @cached_property
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        """The compiled column table: per univariate f, in the module's
        enumeration order, the variable indices X[i, f(i)] for i < n.  Built
        on first use, after checking psi^D against ``DEFAULT_ENUM_CAP``."""
        if self.monomial_count > DEFAULT_ENUM_CAP:
            raise ValueError(
                f"enumeration cap exceeded: psi^D = {self.monomial_count} > "
                f"{DEFAULT_ENUM_CAP}")
        return tuple(univariate_graph(self.psi, self.n, k)
                     for k in range(self.monomial_count))


def nw_eval(inst: NWInstance, point: Sequence) -> Union[int, Fraction]:
    """Evaluate over the compiled column table (no monomial search): the sum
    over f of prod_i point[i, f(i)].

    The values are multiplied as given, so the value is exact on a point of
    ints and Fractions: an int on an integer point."""
    if len(point) != inst.num_vars:
        raise ValueError(
            f"dimension mismatch: point has {len(point)} values, instance has "
            f"{inst.num_vars} variables")
    total = 0
    for cols in inst.columns:
        prod = 1
        for v in cols:
            prod *= point[v]
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


def nw_check_properties(inst: NWInstance) -> NWReport:
    """Exhaustively verify the column table: psi^D distinct columns, each of
    n distinct variables (a column's monomial is multilinear when no
    variable repeats, and of degree n when it has n entries), and the
    pairwise intersection bound D-1."""
    cols = inst.columns
    worst = max((t for _, _, t in intersections(cols)), default=0)
    return NWReport(
        monomial_count=len(cols),
        expected_count=inst.monomial_count,
        count_ok=len(cols) == inst.monomial_count and len(set(cols)) == len(cols),
        multilinear_ok=all(len(set(c)) == len(c) for c in cols),
        degree_ok=all(len(c) == inst.n for c in cols),
        max_intersection=worst,
        intersection_bound=inst.D - 1,
        intersection_ok=worst <= inst.D - 1,
    )
