"""Seeded benchmark inputs and their expected answers, standard library only.

Nothing here imports ``fewvar``: the generator is the oracle that the
program's reports are checked against, so it computes along its own path.

A polynomial is a dict {monomial: Fraction} with no zero coefficients; a
monomial is a sorted tuple of (variable, exponent) pairs with positive
exponents.  A circuit is a list of terms (scale, [(support, local_poly)]),
each factor a polynomial in the local coordinates 0..len(support)-1, which is
how the `fewvar-circuit v1` text format stores it.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# polynomials


def padd(a, b):
    out = dict(a)
    for mon, c in b.items():
        s = out.get(mon, 0) + c
        if s:
            out[mon] = s
        else:
            out.pop(mon, None)
    return out


def pmul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            acc = dict(ma)
            for v, e in mb:
                acc[v] = acc.get(v, 0) + e
            mon = tuple(sorted(acc.items()))
            s = out.get(mon, 0) + ca * cb
            if s:
                out[mon] = s
            else:
                out.pop(mon, None)
    return out


def pscale(a, c):
    return {mon: v * c for mon, v in a.items()} if c else {}


def peval(a, point):
    total = Fraction(0)
    for mon, c in a.items():
        term = c
        for v, e in mon:
            term *= point[v] ** e
        total += term
    return total


def individual_degree(a):
    return max((e for mon in a for _, e in mon), default=0)


def _coeff_text(c):
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _coeff_lines(poly):
    lines = []
    for mon in sorted(poly):
        body = " ".join(f"{v}:{e}" for v, e in mon)
        lines.append(f"coeff {_coeff_text(poly[mon])} ; {body}".rstrip())
    return lines


def poly_text(num_vars, poly):
    """The `vars= field=` document the `measure` subcommand reads."""
    return "\n".join([f"vars={num_vars} field=Q"] + _coeff_lines(poly)) + "\n"


# ---------------------------------------------------------------------------
# circuits


def circuit_expand(terms):
    acc = {}
    for scale, factors in terms:
        prod = {(): Fraction(scale)}
        for support, local in factors:
            glob = {tuple((support[i], e) for i, e in mon): c
                    for mon, c in local.items()}
            prod = pmul(prod, glob)
            if not prod:
                break
        acc = padd(acc, prod)
    return acc


def circuit_text(num_vars, declared_s, k, terms):
    lines = ["fewvar-circuit v1", f"vars={num_vars} field=Q s={declared_s} k={k}"]
    for scale, factors in terms:
        lines.append(f"term scale={_coeff_text(scale)}")
        for support, local in factors:
            lines.append("factor support=" + ",".join(str(v) for v in support))
            lines.extend(_coeff_lines(local))
    return "\n".join(lines) + "\n"


def circuit_json(num_vars, terms):
    """The circuit in the form the blackbox evaluator script reads."""
    return json.dumps({
        "num_vars": num_vars,
        "terms": [[_coeff_text(scale),
                   [[list(support),
                     [[_coeff_text(c), [list(p) for p in mon]]
                      for mon, c in sorted(local.items())]]
                    for support, local in factors]]
                  for scale, factors in terms],
    }, sort_keys=True) + "\n"


def _nonzero_coeff(rnd):
    return rnd.choice((-3, -2, -1, 1, 2, 3))


def random_local_poly(rnd, nvars, max_exp, nterms):
    """A polynomial in nvars local variables with nterms distinct nonzero
    terms, each exponent at most max_exp."""
    poly = {}
    while len(poly) < nterms:
        mon = tuple((i, e) for i in range(nvars) if (e := rnd.randint(0, max_exp)))
        poly[mon] = Fraction(_nonzero_coeff(rnd))
    return poly


def random_circuit(rnd, num_vars, terms, factors, support, local_terms, max_exp):
    """A bounded-support circuit of the given shape: ``terms`` products of
    ``factors`` factors, each on ``support`` variables with ``local_terms``
    terms; the variables of one product are distinct, so no exponent exceeds
    max_exp."""
    out = []
    for _ in range(terms):
        pool = rnd.sample(range(num_vars), factors * support)
        out.append((Fraction(_nonzero_coeff(rnd)),
                    [(tuple(sorted(pool[j * support:(j + 1) * support])),
                      random_local_poly(rnd, support, max_exp, local_terms))
                     for j in range(factors)]))
    return out


def _univariate_factor(rnd, var, max_exp, constant):
    """c0 + c1 x + ... with a nonzero constant term or none, never zero."""
    poly = {}
    if constant:
        poly[()] = Fraction(_nonzero_coeff(rnd))
    for e in range(1, max_exp + 1):
        if rnd.random() < 0.6:
            poly[((0, e),)] = Fraction(_nonzero_coeff(rnd))
    if not constant and not poly:
        poly[((0, rnd.randint(1, max_exp)),)] = Fraction(_nonzero_coeff(rnd))
    return ((var,), poly)


def _rewrite_term(rnd, scale, factors):
    """The same product written differently: split a factor's terms over two
    products, fold the scale into a factor, or multiply out completely."""
    way = rnd.randrange(3)
    factors = list(factors)
    if way == 0:
        j = max(range(len(factors)), key=lambda i: len(factors[i][1]))
        support, local = factors[j]
        mons = sorted(local)
        if len(mons) > 1:
            cut = rnd.randint(1, len(mons) - 1)
            parts = [{m: local[m] for m in mons[:cut]}, {m: local[m] for m in mons[cut:]}]
            out = []
            for part in parts:
                fs = list(factors)
                fs[j] = (support, part)
                out.append((scale, fs))
            return out
    if way == 1:
        support, local = factors[0]
        return [(Fraction(1), [(support, pscale(local, scale))] + factors[1:])]
    out = []
    for pick in itertools.product(*(sorted(local.items()) for _, local in factors)):
        c = scale
        fs = []
        for (support, _), (mon, coeff) in zip(factors, pick):
            c *= coeff
            if mon:
                fs.append((support, {mon: Fraction(1)}))
        out.append((c, fs))
    return out


def disguised_identity(rnd, num_vars, max_terms, max_exp, total):
    """A circuit A of univariate factors minus a rewritten copy of A, in
    shuffled order, with exactly ``total`` terms, so that boxes of one shape
    cost about the same to evaluate on every seed.  Returns (terms, k), k the
    individual degree of A."""
    while True:
        a = []
        for _ in range(rnd.randint(2, max_terms)):
            vars_ = rnd.sample(range(num_vars), rnd.randint(1, 3))
            a.append((Fraction(_nonzero_coeff(rnd)),
                      [_univariate_factor(rnd, v, max_exp, rnd.random() < 0.7)
                       for v in sorted(vars_)]))
        k = individual_degree(circuit_expand(a))
        b = [t for scale, fs in a for t in _rewrite_term(rnd, scale, fs)]
        terms = a + [(-scale, fs) for scale, fs in b]
        if k and len(terms) == total:
            break
    rnd.shuffle(terms)
    if circuit_expand(terms):
        raise AssertionError("disguised identity does not cancel")
    return terms, k


def nonzero_box(rnd, num_vars, max_terms, max_exp, total, constant):
    """A disguised identity plus one product of univariate factors, so the
    box computes that product: nonzero at the origin exactly when
    ``constant`` is true.  Returns (terms, k, polynomial)."""
    terms, k = disguised_identity(rnd, num_vars, max_terms, max_exp, total - 1)
    vars_ = sorted(rnd.sample(range(num_vars), rnd.randint(1, 2)))
    delta = (Fraction(_nonzero_coeff(rnd)),
             [_univariate_factor(rnd, v, max_exp, constant or i > 0)
              for i, v in enumerate(vars_)])
    terms.insert(rnd.randint(0, len(terms)), delta)
    poly = circuit_expand(terms)
    if not poly or (poly.get((), 0) != 0) != constant:
        raise AssertionError("nonzero box lost its extra product")
    return terms, max(k, individual_degree(poly)), poly


# ---------------------------------------------------------------------------
# the hard family and restrictions


def nw_poly(n, psi, D):
    """sum over univariates f over F_psi of degree < D of prod_i X[i, f(i)],
    the variable X[i, j] having index i*psi + j."""
    poly = {}
    for coeffs in itertools.product(range(psi), repeat=D):
        mon = tuple((i * psi + sum(c * i ** t for t, c in enumerate(coeffs)) % psi, 1)
                    for i in range(n))
        poly[mon] = Fraction(1)
    return poly


def restrict(poly, alive):
    """Set every variable outside ``alive`` to zero."""
    return {mon: c for mon, c in poly.items() if all(v in alive for v, _ in mon)}


# ---------------------------------------------------------------------------
# the measure's expected shape


def measure_rows(num_vars, r, m):
    return math.comb(num_vars, r) * math.comb(num_vars, m)


def measure_cols(poly, num_vars, m):
    """Columns of the r=1 projected shifted partials matrix: every multilinear
    monomial of a first derivative, times every disjoint shift of size m."""
    cols = set()
    for mon in poly:
        exps = dict(mon)
        for v, e in mon:
            rest = [u for u in exps if u != v]
            if e > 2 or any(exps[u] != 1 for u in rest):
                continue
            base = frozenset(rest + [v] if e == 2 else rest)
            free = [u for u in range(num_vars) if u not in base]
            for S in itertools.combinations(free, m):
                cols.add(base.union(S))
    return len(cols)


def depth4_bound(top_fanin, n, r, s, N, m):
    """T * C(n+r, r) * C(N, m + r*s): the measure's ceiling for circuits whose
    products have at most n factors of support at most s."""
    return top_fanin * math.comb(n + r, r) * math.comb(N, m + r * s)


# ---------------------------------------------------------------------------
# hitting-set parameters and the stream


def next_prime(n):
    n = max(n, 2)
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def design_sets(b, a):
    """Reed-Solomon design: set i is {x*q0 + f_i(x) : x < a}, f_i the
    univariate over F_q0 whose coefficients are the base-q0 digits of i."""
    q0 = next_prime(a)
    c0 = 0
    while q0 ** (c0 + 1) < b:
        c0 += 1
    sets = []
    for idx in range(b):
        digits = [(idx // q0 ** t) % q0 for t in range(c0 + 1)]
        sets.append(tuple(x * q0 + sum(d * x ** t for t, d in enumerate(digits)) % q0
                          for x in range(a)))
    return q0 * q0, sets


def derived_stream(N, k):
    """The derived hitting-set parameters at mu = 0 for N a power of two:
    a = (log2 N)^2, a' = floor((a/2)^(1/12)), q the least prime >= a/(2a'),
    D = 1 when a' = 1, the design's sets cut to a'q, grid {0..N k a'}."""
    log2n = N.bit_length() - 1
    if N != 1 << log2n:
        raise ValueError("derived parameters are reproduced for powers of two only")
    a = log2n * log2n
    a_prime = 1
    while 2 * (a_prime + 1) ** 12 <= a:
        a_prime += 1
    if a_prime != 1:
        raise ValueError("only the a' = 1 branch (D = 1) is reproduced")
    q = next_prime(-(-a // (2 * a_prime)))
    l, sets = design_sets(N, a)
    return {"rows": a_prime, "q": q, "D": 1, "l": l,
            "sets": [S[:a_prime * q] for S in sets],
            "grid": list(range(N * k * a_prime + 1))}


def toy_stream(N, l, a_prime, q, D, grid):
    """Override parameters: sets cycle through the size-a'q subsets of the
    universe in combination order."""
    pool = itertools.cycle(itertools.combinations(range(l), a_prime * q))
    return {"rows": a_prime, "q": q, "D": D, "l": l,
            "sets": [next(pool) for _ in range(N)], "grid": list(grid)}


def nw_local(y, rows, q, D):
    total = 0
    for coeffs in itertools.product(range(q), repeat=D):
        prod = 1
        for i in range(rows):
            prod *= y[i * q + sum(c * i ** t for t, c in enumerate(coeffs)) % q]
            if not prod:
                break
        total += prod
    return total


def stream_points(st):
    """The N-tuples of the stream in order: the local family of each set
    evaluated at each point of grid^l, points in lexicographic order."""
    for p in itertools.product(st["grid"], repeat=st["l"]):
        yield tuple(nw_local([p[v] for v in S], st["rows"], st["q"], st["D"])
                    for S in st["sets"])


def expected_pit(poly, st, budget):
    """What `fewvar pit` must report for a box computing ``poly``: status,
    points tested, and the first nonzero point with its value."""
    total = len(st["grid"]) ** st["l"]
    limit = total if budget is None else min(budget, total)
    if poly:
        for tested, h in enumerate(itertools.islice(stream_points(st), limit), 1):
            value = peval(poly, h)
            if value:
                return {"status": "witness", "tested": tested,
                        "witness": h, "value": value}
    status = "zero-on-set" if limit == total else "inconclusive"
    return {"status": status, "tested": limit, "witness": None, "value": None}
