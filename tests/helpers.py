"""Shared test utilities: independent brute-force oracles and generators."""

import os
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from fewvar.algebra import (
    Mon,
    SparsePolynomial,
    derivative_poly,
    mon_make,
    multilinear_monomials,
    multilinear_project,
)
from fewvar.circuit import FactorPoly, FewVarCircuit


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


def dense_rank(rows: List[List[Fraction]]) -> int:
    """Plain Gaussian elimination on a dense rational matrix."""
    if not rows:
        return 0
    mat = [list(r) for r in rows]
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


def brute_phi(P: SparsePolynomial, r: int, m: int,
              monomials: Optional[Sequence[Mon]] = None) -> int:
    """The measure by explicit polynomial arithmetic and dense elimination:
    assemble sigma(X_S * d_gamma P) via multiplication and projection, then
    row-reduce over the rationals."""
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
    basis = sorted({mon for q in polys for mon in q.terms})
    index = {mon: i for i, mon in enumerate(basis)}
    rows = []
    for q in polys:
        row = [Fraction(0)] * len(basis)
        for mon, c in q.terms.items():
            row[index[mon]] = c
        rows.append(row)
    return dense_rank(rows)


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
                supp = rng.choice(N, size=int(rng.integers(0, s + 1)),
                                  replace=False)
                coeff = int(rng.integers(-2, 3))
                items.append((Fraction(coeff), [(int(v), 1) for v in supp]))
            Q = SparsePolynomial.from_terms(N, items)
            if Q.is_zero():
                Q = SparsePolynomial.const(N, 1)
            prod = prod * Q
        total = total + prod
    return total, c, n


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
