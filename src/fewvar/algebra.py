"""Exact sparse multivariate polynomials over Q or a prime field GF(p).

A polynomial carries a field tag, ``field_p``: None for Q, a prime p for
GF(p).  Coefficients are plain Python numbers under that tag: over Q an int
or a Fraction (an int stays an int), over GF(p) an int in [0, p).
``coerce`` is the one lift into that domain.  Ring operations compute on
the representatives.  The public constructor checks its input and then
normalizes: it reduces every coefficient and drops the zeros.  The private
``_poly`` only normalizes; the ring operations, the transforms below and
the reader build through it from parts that are already checked.  Binary
operations check that both tags agree and raise on a mismatch.
``multiply_out`` is the one product loop, on plain term maps:
``__mul__`` and circuit expansion multiply through it, and each builds one
polynomial from its result.  ``translate_poly`` is a Taylor shift, one
variable at a time, and multiplies no polynomials.

A monomial is a sorted tuple of ``(variable_index, exponent)`` pairs with all
exponents positive; the empty tuple is the constant monomial.  A polynomial is
a dict from monomials to nonzero coefficients, so the zero polynomial has an
empty term map and equality is plain term-map equality.

``Value`` and ``FrozenValue`` give the package's classes that are more
than records (the polynomial here, factors, circuits, the measure's
parameters and report, NW instances and designs) equality and repr by
their fields, and the frozen ones hashing and read-only attributes; the
plain records are ``typing.NamedTuple``s.

One reader serves both text formats, `.poly` here and `.circuit` in ``circuit``:
``document_lines`` drops comments and blank lines in one pass, and
``read_fields``/``read_header`` read every `key=value` token, refusing a
token without '=' and a missing, repeated or unknown key.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Union)

if TYPE_CHECKING:
    from mpmath.ctx_iv import MPIntervalContext

# ---------------------------------------------------------------------------
# value classes

class Value:
    """Equality and repr by the attributes that ``_fields`` names, for the
    classes that are more than records: a constructor that checks or
    normalizes, a cached property or a base of their own (the plain records
    are ``typing.NamedTuple``s).  Instances are equal when their classes
    are the same and those attributes are equal; they are not hashable."""

    _fields: Tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class FrozenValue(Value):
    """A ``Value`` that hashes by its fields and refuses attribute
    assignment and deletion.  A subclass's constructor stores the fields
    through ``vars(self)``, where ``functools.cached_property`` stores
    too."""

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# monomials

# Sorted ((var, exp), ...) with exp >= 1 throughout; () is the constant.
Mon = Tuple[Tuple[int, int], ...]

MON_ONE: Mon = ()


def mon_make(pairs: Iterable[Tuple[int, int]]) -> Mon:
    """Build a monomial from (variable, exponent) pairs, merging duplicates."""
    acc: Dict[int, int] = {}
    for v, e in pairs:
        if v < 0:
            raise ValueError(f"negative variable index {v}")
        if e < 0:
            raise ValueError(f"negative exponent {e} for variable {v}")
        if e:
            acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def mon_mul(a: Mon, b: Mon) -> Mon:
    if not a:
        return b
    if not b:
        return a
    # when one monomial's variables all come before the other's, the
    # product is the concatenation
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    acc = dict(a)
    for v, e in b:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def mon_degree(a: Mon) -> int:
    return sum(e for _, e in a)


def mon_is_multilinear(a: Mon) -> bool:
    return all(e == 1 for _, e in a)


def mon_sort_key(a: Mon, num_vars: int) -> Tuple[int, Tuple[int, ...]]:
    """Graded lexicographic key: compare by total degree, then exponent vector."""
    dense = [0] * num_vars
    for v, e in a:
        dense[v] = e
    return (mon_degree(a), tuple(dense))


# ---------------------------------------------------------------------------
# coefficients

Field = Optional[int]           # None marks the rationals, an int p marks GF(p)

# A coefficient over Q is an int or a Fraction; over GF(p) an int in [0, p).
FieldElem = Union[int, Fraction]


def field_name(p: Field) -> str:
    return "Q" if p is None else f"GF({p})"


def coerce(value, p: Field = None) -> FieldElem:
    """Lift a value into the coefficient domain of the field tag p.

    Into Q an int or a Fraction is returned as is and anything else becomes
    ``Fraction(value)``.  Into GF(p) the result is an int in [0, p): a
    rational num/den maps to num * den^-1 mod p, and a den divisible by p
    raises ZeroDivisionError."""
    if p is None:
        if type(value) is int or type(value) is Fraction:
            return value
        return Fraction(value)
    if isinstance(value, Fraction):
        if value.denominator % p == 0:
            raise ZeroDivisionError(f"denominator divisible by {p}")
        return value.numerator * pow(value.denominator, -1, p) % p
    return int(value) % p


def to_fraction(x) -> Fraction:
    """An exact rational; floats are read through their shortest decimal
    repr, so 0.1 means 1/10."""
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


# ---------------------------------------------------------------------------
# sparse polynomials

class SparsePolynomial(Value):
    """A multivariate polynomial as a map monomial -> nonzero coefficient.

    Values are treated as immutable after construction; all operations return
    new polynomials.  ``field_p`` is None for rationals or a prime modulus.
    """

    _fields = ("num_vars", "terms", "field_p")

    def __init__(self, num_vars: int,
                 terms: Optional[Dict[Mon, FieldElem]] = None,
                 field_p: Field = None):
        self.num_vars = num_vars
        self.terms = {} if terms is None else terms
        self.field_p = field_p
        self.__post_init__()

    def __post_init__(self):
        """The checks, then the normalization of ``_poly``.  A method of its
        own, under this name, because perfbench/spans.py times every
        public construction by wrapping it."""
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        if self.field_p is not None and not is_prime(self.field_p):
            raise ValueError(f"modulus {self.field_p} is not prime")
        for mon in self.terms:
            for v, e in mon:
                if v >= self.num_vars:
                    raise ValueError(
                        f"variable {v} out of range for num_vars={self.num_vars}")
                if e <= 0:
                    raise ValueError(f"nonpositive exponent on variable {v}")
        self.terms = _poly(self.num_vars, self.terms, self.field_p).terms

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, field_p: Field = None) -> "SparsePolynomial":
        return cls(num_vars, {}, field_p)

    @classmethod
    def const(cls, num_vars: int, value, field_p: Field = None) -> "SparsePolynomial":
        return cls(num_vars, {MON_ONE: value}, field_p)

    @classmethod
    def from_terms(cls, num_vars: int, items, field_p: Field = None) -> "SparsePolynomial":
        """Build from (coefficient, pairs-of-(var, exp)) items, merging terms."""
        acc: Dict[Mon, FieldElem] = {}
        for c, pairs in items:
            mon = mon_make(pairs)
            acc[mon] = acc.get(mon, 0) + coerce(c, field_p)
        return cls(num_vars, acc, field_p)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        if not self.terms:
            return 0
        return max(mon_degree(m) for m in self.terms)

    def individual_degree(self, var: Optional[int] = None) -> int:
        """Largest exponent of ``var``, or over all variables when var is None."""
        best = 0
        for mon in self.terms:
            for v, e in mon:
                if (var is None or v == var) and e > best:
                    best = e
        return best

    def constant_term(self) -> FieldElem:
        return self.terms.get(MON_ONE, 0)

    def _check_compatible(self, other: "SparsePolynomial") -> None:
        if not isinstance(other, SparsePolynomial):
            raise TypeError(f"expected a polynomial, got {type(other).__name__}")
        if other.num_vars != self.num_vars:
            raise ValueError(
                f"dimension mismatch: {self.num_vars} vs {other.num_vars} variables")
        if other.field_p != self.field_p:
            raise ValueError(
                f"field mismatch: {field_name(self.field_p)} vs {field_name(other.field_p)}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for mon, c in other.terms.items():
            out[mon] = out.get(mon, 0) + c
        return _poly(self.num_vars, out, self.field_p)

    def __neg__(self) -> "SparsePolynomial":
        return _poly(
            self.num_vars, {m: -c for m, c in self.terms.items()}, self.field_p)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_compatible(other)
        return _poly(
            self.num_vars, multiply_out((self.terms, other.terms), self.field_p),
            self.field_p)

    def scale(self, c) -> "SparsePolynomial":
        cc = coerce(c, self.field_p)
        return _poly(
            self.num_vars, {m: v * cc for m, v in self.terms.items()}, self.field_p)

    def eval_at(self, point: Sequence) -> FieldElem:
        """Evaluate at a point with one value per variable."""
        if len(point) != self.num_vars:
            raise ValueError(
                f"dimension mismatch: point has {len(point)} values, "
                f"polynomial has {self.num_vars} variables")
        vals = [coerce(v, self.field_p) for v in point]
        total = 0
        for mon, c in self.terms.items():
            for v, e in mon:
                c *= vals[v] ** e
            total += c
        return coerce(total, self.field_p)

    def sorted_terms(self) -> List[Tuple[Mon, FieldElem]]:
        """Terms in descending graded-lexicographic order (canonical)."""
        return sorted(self.terms.items(),
                      key=lambda kv: mon_sort_key(kv[0], self.num_vars),
                      reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mon, c in self.sorted_terms():
            body = "*".join(f"x{v}" + (f"^{e}" if e > 1 else "") for v, e in mon)
            parts.append(f"{c}" + (f"*{body}" if body else ""))
        return " + ".join(parts)


def _poly(num_vars: int, terms: Dict[Mon, FieldElem],
          field_p: Field) -> SparsePolynomial:
    """The private constructor: the normalization alone, every coefficient
    lifted into the field and the zeros dropped, with none of the public
    constructor's checks.  Only for builders whose monomials, variable
    count and field come from checked polynomials or checked lines;
    tests/test_layout.py lists them."""
    P = object.__new__(SparsePolynomial)
    P.num_vars, P.field_p = num_vars, field_p
    P.terms = {m: cc for m, c in terms.items() if (cc := coerce(c, field_p))}
    return P


# ---------------------------------------------------------------------------
# polynomial operations

def multiply_out(term_maps: Iterable[Dict[Mon, FieldElem]],
                 field_p: Field) -> Dict[Mon, FieldElem]:
    """The product of polynomials given as term maps (monomial ->
    coefficient), as a map from monomial to nonzero coefficient, empty when
    the product vanishes.  The one product loop: from {(): 1}, each factor
    is multiplied in with ``mon_mul``, reduced mod p over GF(p), and cleared
    of zeros; an empty product stops early."""
    prod: Dict[Mon, FieldElem] = {MON_ONE: 1}
    for terms in term_maps:
        nxt: Dict[Mon, FieldElem] = {}
        for ma, ca in prod.items():
            for mb, cb in terms.items():
                mon = mon_mul(ma, mb)
                nxt[mon] = nxt.get(mon, 0) + ca * cb
        if field_p is None:
            prod = {m: c for m, c in nxt.items() if c}
        else:
            prod = {m: c % field_p for m, c in nxt.items() if c % field_p}
        if not prod:
            break
    return prod


def hom_component(P: SparsePolynomial, i: int) -> SparsePolynomial:
    """The homogeneous part of degree i."""
    if i < 0:
        raise ValueError("degree must be nonnegative")
    out = {m: c for m, c in P.terms.items() if mon_degree(m) == i}
    return _poly(P.num_vars, out, P.field_p)


def esym_all(inputs: Sequence[SparsePolynomial], lmax: int) -> List[SparsePolynomial]:
    """Elementary symmetric polynomials of the inputs, degrees 0..lmax.

    Computed by the prefix-by-degree dynamic program (coefficient extraction
    of the product of (1 + Y_i t) in t), not by enumerating subsets.
    """
    if lmax < 0:
        raise ValueError("degree must be nonnegative")
    if inputs:
        nv, fp = inputs[0].num_vars, inputs[0].field_p
        for q in inputs[1:]:
            inputs[0]._check_compatible(q)
    else:
        nv, fp = 0, None
    E = [SparsePolynomial.const(nv, 1, fp)] + [
        SparsePolynomial.zero(nv, fp) for _ in range(lmax)]
    for Y in inputs:
        for deg in range(min(len(E) - 1, lmax), 0, -1):
            E[deg] = E[deg] + Y * E[deg - 1]
    return E


def translate_poly(P: SparsePolynomial, a: Sequence) -> SparsePolynomial:
    """Return P(X + a).  Degree is preserved; translating back by -a undoes it.

    A Taylor shift, one variable at a time: for each v with a_v != 0, one
    pass over the terms rewrites x_v^e as sum_j C(e, j) a_v^(e-j) x_v^j,
    merges equal monomials, reduces mod p over GF(p) and drops zeros."""
    if len(a) != P.num_vars:
        raise ValueError(
            f"dimension mismatch: shift has {len(a)} values, "
            f"polynomial has {P.num_vars} variables")
    p = P.field_p
    terms = P.terms
    for v, s in enumerate(a):
        s = coerce(s, p)
        if not s:
            continue
        out: Dict[Mon, FieldElem] = {}
        for mon, c in terms.items():
            for i, (w, e) in enumerate(mon):
                if w == v:
                    break
            else:
                out[mon] = out.get(mon, 0) + c
                continue
            head, tail = mon[:i], mon[i + 1:]
            pw = c
            for j in range(e, -1, -1):
                m = head + ((v, j),) + tail if j else head + tail
                out[m] = out.get(m, 0) + math.comb(e, j) * pw
                pw *= s
        if p is None:
            terms = {m: c for m, c in out.items() if c}
        else:
            terms = {m: c % p for m, c in out.items() if c % p}
    return _poly(P.num_vars, terms, p)


def derivative_poly(P: SparsePolynomial, var: int, order: int = 1) -> SparsePolynomial:
    """Formal order-th partial derivative with respect to one variable."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if P.field_p is not None and order >= P.field_p:
        raise ValueError(
            f"derivative order {order} not supported over GF({P.field_p})")
    if order == 0:
        return P
    out: Dict[Mon, FieldElem] = {}
    for mon, c in P.terms.items():
        e = dict(mon).get(var, 0)
        if e < order:
            continue
        # falling factorial e * (e-1) * ... * (e-order+1)
        fall = 1
        for t in range(order):
            fall *= e - t
        # distinct monomials keep distinct images, so nothing merges
        new = tuple((v, x) for v, x in mon if v != var)
        if e > order:
            new = tuple(sorted(new + ((var, e - order),)))
        out[new] = c * fall
    return _poly(P.num_vars, out, P.field_p)


def substitute(P: SparsePolynomial, var: int, value) -> SparsePolynomial:
    """Substitute a scalar for one variable; num_vars is unchanged."""
    val = coerce(value, P.field_p)
    out: Dict[Mon, FieldElem] = {}
    for mon, c in P.terms.items():
        e = dict(mon).get(var, 0)
        if e:
            c = c * val ** e
            mon = tuple((v, x) for v, x in mon if v != var)
        out[mon] = out.get(mon, 0) + c
    return _poly(P.num_vars, out, P.field_p)


def scale_all_vars(P: SparsePolynomial, t) -> SparsePolynomial:
    """Substitute x_v -> t * x_v for every variable: each degree-d monomial
    picks up a factor t^d."""
    tv = coerce(t, P.field_p)
    out = {mon: c * tv ** mon_degree(mon) for mon, c in P.terms.items()}
    return _poly(P.num_vars, out, P.field_p)


def coeffs_in_var(P: SparsePolynomial, var: int) -> List[SparsePolynomial]:
    """Coefficient polynomials of powers of one variable, viewing P as a
    univariate in ``var`` over the remaining variables.  Entry i is the
    coefficient of var^i; the list has length deg_var(P) + 1."""
    k = P.individual_degree(var)
    outs: List[Dict[Mon, FieldElem]] = [{} for _ in range(k + 1)]
    for mon, c in P.terms.items():
        e = dict(mon).get(var, 0)
        rest = tuple((v, x) for v, x in mon if v != var)
        outs[e][rest] = c
    return [_poly(P.num_vars, o, P.field_p) for o in outs]


# ---------------------------------------------------------------------------
# primes

# Deterministic Miller-Rabin witness set, proven complete below this bound.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin(n: int, bases: Iterable[int]) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with the standard parameter search
    (D = 5, -7, 9, -11, ... with Jacobi symbol -1; P = 1, Q = (1 - D) / 4)."""
    if _is_square(n):
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -(D + 2) if D > 0 else -(D - 2)
    Q = (1 - D) // 4

    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    # compute U_d, V_d by the binary double-and-add chain
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (V + D * U) % n
            if U % 2:
                U += n
            if V % 2:
                V += n
            U, V = U // 2 % n, V // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality for n below the proven Miller-Rabin witness
    bound (about 3.3e24); beyond that, Miller-Rabin over the same witness set
    combined with a strong Lucas test (no counterexample to the combination
    is known).  Cross-checked against trial division in the test suite."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if not _miller_rabin(n, _MR_WITNESSES):
        return False
    if n < _MR_PROVEN_BOUND:
        return True
    return _strong_lucas(n)


def next_prime_at_least(n: int) -> int:
    c = max(2, n)
    while not is_prime(c):
        c += 1
    return c


def bertrand_prime(lo: int, hi: int) -> int:
    """Smallest prime p with lo < p <= hi.

    The precondition hi >= 2 * lo (with lo >= 1) guarantees one exists; the
    search still verifies and raises if the window is somehow empty.
    """
    if lo < 1:
        raise ValueError("lo must be at least 1")
    if hi < 2 * lo:
        raise ValueError(f"window ({lo}, {hi}] too narrow: need hi >= 2*lo")
    c = lo + 1
    while c <= hi:
        if is_prime(c):
            return c
        c += 1
    raise ArithmeticError(f"no prime in ({lo}, {hi}]")


def int_floor_root(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, by Newton iteration."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if x in (0, 1) or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


CEIL_REAL_MAX_PREC = 1 << 17      # bits; about 0.8 s to refuse ln 8 / ln 2


def ceil_real(build: Callable[[MPIntervalContext], object]) -> int:
    """The certified ceiling of the real that ``build(ctx)`` computes in the
    mpmath interval context ``ctx``, at doubling precision until both ends of
    the interval share a ceiling.  An integer never separates, so past
    CEIL_REAL_MAX_PREC bits this raises ArithmeticError.  mpmath is
    imported here, so only the commands that round a real load it."""
    from mpmath import libmp
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = 64
    while ctx.prec <= CEIL_REAL_MAX_PREC:
        lo, hi = (libmp.to_int(libmp.mpf_ceil(e)) for e in build(ctx)._mpi_)
        if lo == hi:
            return lo
        ctx.prec *= 2
    raise ArithmeticError(f"no certified ceiling within {CEIL_REAL_MAX_PREC} bits")


# ---------------------------------------------------------------------------
# text format

def serialize_poly(P: SparsePolynomial) -> str:
    """Canonical text form: a header line, then one `coeff` line per term in
    descending graded-lexicographic order."""
    lines = [f"vars={P.num_vars} field={field_name(P.field_p)}"]
    for mon, c in P.sorted_terms():
        body = " ".join(f"{v}:{e}" for v, e in mon)
        lines.append(f"coeff {c} ; {body}".rstrip())
    return "\n".join(lines) + "\n"


def _parse_field(tag: str) -> Field:
    if tag == "Q":
        return None
    if tag.startswith("GF(") and tag.endswith(")"):
        p = int(tag[3:-1])
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        return p
    raise ValueError(f"unknown field tag {tag!r}")


def parse_coeff(text: str, field_p: Field) -> FieldElem:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return coerce(Fraction(int(num), int(den)), field_p)
    return coerce(int(text), field_p)


def document_lines(text: str) -> List[Tuple[int, str]]:
    """The lines of a `.poly` or `.circuit` document that have content, as
    (line number, text before any '#', stripped)."""
    bodies = ((ln, raw.split("#", 1)[0].strip())
              for ln, raw in enumerate(text.splitlines(), start=1))
    return [(ln, body) for ln, body in bodies if body]


def read_fields(ln: int, text: str, keys: Sequence[str],
                need: str) -> Dict[str, str]:
    """The `key=value` tokens of line ``ln``, which must give each of
    ``keys`` once and nothing else.  A token without '=' or a repeated key
    raises at the token, then a missing key raises `line N: <need> K=`, then
    a key outside ``keys``."""
    fields: Dict[str, str] = {}
    for tok in text.split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"line {ln}: expected key=value, got {tok!r}")
        if key in fields:
            raise ValueError(f"line {ln}: repeated key {key!r}")
        fields[key] = value
    for key in keys:
        if key not in fields:
            raise ValueError(f"line {ln}: {need} {key}=")
    for key in fields:
        if key not in keys:
            raise ValueError(f"line {ln}: unknown key {key!r}")
    return fields


def read_header(ln: int, line: str, keys: Sequence[str], build: Callable):
    """``build(fields, num_vars, field_p)`` on a header line's `key=value`
    fields, which are exactly ``keys``, with ``vars`` and ``field``
    converted.  A bad token, a missing, repeated or unknown key, or a bad
    value that the conversions or ``build`` refuse with ValueError, raises
    `line N: ...`."""
    fields = read_fields(ln, line, keys, "header must declare")
    try:
        num_vars = int(fields["vars"])
        if num_vars < 0:
            raise ValueError(f"vars must be nonnegative, got {num_vars}")
        return build(fields, num_vars, _parse_field(fields["field"]))
    except ValueError as exc:
        raise ValueError(f"line {ln}: bad header: {exc}") from None


def parse_poly_lines(lines: Sequence[Tuple[int, str]], num_vars: int,
                     field_p: Field, where: str = "") -> SparsePolynomial:
    """Parse `coeff <c> ; v:e v:e ...` lines, as ``document_lines`` gives
    them, into a polynomial; a repeated monomial's coefficients add up."""
    acc: Dict[Mon, FieldElem] = {}
    for ln, body in lines:
        if not body.startswith("coeff "):
            raise ValueError(f"{where}line {ln}: expected a `coeff` line, got {body!r}")
        rest = body[len("coeff "):]
        if ";" not in rest:
            raise ValueError(f"{where}line {ln}: missing `;` separator")
        cpart, mpart = rest.split(";", 1)
        try:
            c = parse_coeff(cpart, field_p)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}line {ln}: bad coefficient: {exc}") from None
        pairs = []
        for tok in mpart.split():
            v, _, e = tok.partition(":")
            try:
                pairs.append((int(v), int(e)))
            except ValueError:
                raise ValueError(
                    f"{where}line {ln}: bad monomial token {tok!r}") from None
        try:
            mon = mon_make(pairs)
            if mon and mon[-1][0] >= num_vars:
                raise ValueError(f"variable {mon[-1][0]} out of range for "
                                 f"num_vars={num_vars}")
        except ValueError as exc:
            raise ValueError(f"{where}line {ln}: {exc}") from None
        acc[mon] = acc.get(mon, 0) + c
    return _poly(num_vars, acc, field_p)


def parse_poly(text: str) -> SparsePolynomial:
    """Parse the full polynomial document (header plus coeff lines)."""
    lines = document_lines(text)
    if not lines:
        raise ValueError("empty document: missing `vars=... field=...` header")
    num_vars, field_p = read_header(*lines[0], ("vars", "field"),
                                    lambda fields, n, p: (n, p))
    return parse_poly_lines(lines[1:], num_vars, field_p)

