"""The search for variable permutations that fix a polynomial.

``measure`` ranks one block of its rows per orbit of such maps; it loads
this module only when an input calls for the search, and keeps only the
candidates that map P onto itself term for term.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from .algebra import SparsePolynomial

# refinements the search makes before it returns what it has found;
# NW(3,5,2), NW(4,5,2) and NW(3,7,2) reach their full groups, of orders
# 600, 800 and 1764, within 80
SEARCH_NODES = 400


def symmetries(P: SparsePolynomial, A: Sequence[int]) -> List[Dict[int, int]]:
    """Candidate generators of the permutations of the variables A that fix
    P, each a map v -> sigma(v); ``measure._images`` keeps those that do
    fix P.

    Individualization-refinement (McKay 1981; McKay & Piperno 2014) on the
    variable/term incidence, exponents as edge labels and the coefficients
    as the terms' first colours.  Refinement splits the variables by the
    colours of their terms and the terms by the colours of their variables
    until no class splits; colours are numbered by their sorted signatures,
    so equal nodes of the search tree get equal colourings.  The first path
    individualizes the first variable of the first class of several until
    every variable has a colour of its own.  Then, deepest level first, for
    each w of that level's class outside the orbit of the variable chosen
    there, a depth-first search below w looks for a leaf whose refinement
    matched the first path's level by level; the candidate maps the first
    path's leaf onto it, colour by colour.  The search stops after
    SEARCH_NODES refinements and returns what it has found."""
    terms = list(P.terms.items())
    at = {v: i for i, v in enumerate(A)}
    # an edge of exponent e to a vertex of colour c is read as c * E + e
    E = 1 + max((e for mon in P.terms for _, e in mon), default=0)
    term_vars = [[(at[v], e) for v, e in mon] for mon, _ in terms]
    var_terms: List[List[Tuple[int, int]]] = [[] for _ in A]
    for t, pairs in enumerate(term_vars):
        for u, e in pairs:
            var_terms[u].append((t, e))
    coefs = sorted({c for _, c in terms})
    first = [coefs.index(c) for _, c in terms]
    nodes = [0]

    def renumber(sigs):
        keys = sorted(set(sigs))
        ids = {s: i for i, s in enumerate(keys)}
        return [ids[s] for s in sigs], keys

    def refine(colour, v=None):
        # -> the stable colouring after individualizing v, and its invariant
        nodes[0] += 1
        if v is not None:
            colour = list(colour)
            colour[v] = -1
        while True:
            tc = renumber([(f, *sorted([colour[u] * E + e for u, e in pairs]))
                           for f, pairs in zip(first, term_vars)])[0]
            new, keys = renumber([(c, *sorted([tc[t] * E + e for t, e in pairs]))
                                  for c, pairs in zip(colour, var_terms)])
            if len(keys) in (len(A), max(colour, default=-1) + 1):
                return new, keys
            colour = new

    def target(colour):
        # the variables of the first colour held by several, or []
        count = Counter(colour)
        cls = min((c for c in count if count[c] > 1), default=None)
        return [u for u, c in enumerate(colour) if c == cls]

    path = [refine([0] * len(A))]
    cells = [target(path[0][0])]
    while cells[-1]:
        path.append(refine(path[-1][0], cells[-1][0]))
        cells.append(target(path[-1][0]))
    leaf = {c: u for u, c in enumerate(path[-1][0])}

    def dive(colour, inv, depth):
        if nodes[0] > SEARCH_NODES or inv != path[depth][1]:
            return None
        cell = target(colour)
        if not cell:
            return {A[leaf[c]]: A[u] for u, c in enumerate(colour)}
        for w in cell:
            found = dive(*refine(colour, w), depth + 1)
            if found:
                return found
        return None

    gens: List[Dict[int, int]] = []

    def close(orbit):
        # the orbit of a set under the group ``gens`` generate
        todo = list(orbit)
        while todo:
            u = todo.pop()
            for g in gens:
                if g[u] not in orbit:
                    orbit.add(g[u])
                    todo.append(g[u])
        return orbit

    for depth in reversed(range(len(path) - 1)):
        cell = cells[depth]
        # a w in the orbit of a w that failed fails too
        orbit, missed = {A[cell[0]]}, set()
        for w in cell[1:]:
            if nodes[0] > SEARCH_NODES:
                return gens
            if A[w] in orbit or A[w] in missed:
                continue
            sigma = dive(*refine(path[depth][0], w), depth + 1)
            if sigma:
                gens.append(sigma)
                close(orbit)
            else:
                missed |= close({A[w]})
    return gens
