"""Exact coefficient fields: GF(p), GF(p^e) and the rationals.

Elements are plain hashable Python values so they can sit in polynomial
coefficient dicts: ints in [0, p) for a prime field, coefficient tuples of
length e for an extension field (coordinates w.r.t. powers of the generator),
and fractions.Fraction for QQ.  The field object owns the arithmetic; values
never know their field.

Extension fields are built deterministically: moduli are enumerated in base-p
coefficient order (constant coefficient fastest) and the first monic degree-e
polynomial that passes the Rabin irreducibility test wins.  Embeddings
between extensions of the same characteristic are found by root search, again
in deterministic element order, so every tower computation is reproducible.
Each GF(p^e) is built once per process.

Extension elements keep the tuple form at every boundary; only the
arithmetic behind it changes with the order.  Up to 4096 elements each
field carries log, antilog and Zech tables keyed by those tuples, so a
product, sum, negation or inverse is a lookup.  Larger fields add, negate
and multiply coefficient lists, reducing by the modulus, and invert by the
extended Euclid that also serves the irreducibility test (_fp_gcd).  That
list route also builds the tables and is the reference they are tested
against.

Primality is decided by trial division up to MAX_TRIAL_DIVISOR, so a prime
characteristic past about 10^14 is refused with BoundExceeded.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import (
    BoundExceeded,
    FieldError,
    NotIrreducible,
    NotSerializable,
    RingMismatch,
    UnsupportedField,
)


class Field:
    """Common interface; concrete fields fill in the arithmetic."""

    finite: bool
    char: int

    # -- arithmetic ---------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc = self.one
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    # -- structure ----------------------------------------------------
    def from_int(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def elements(self) -> Iterator:
        """All elements in deterministic order (finite fields only)."""
        raise UnsupportedField(f"{self} is not finite")

    def format(self, a) -> str:
        """Best-effort display form; see format_strict for grammar-safe output."""
        return str(a)

    def format_strict(self, a) -> str:
        """Grammar-parseable form; raises NotSerializable when none exists."""
        return self.format(a)


class PrimeField(Field):
    """GF(p), elements are ints reduced to [0, p).  e = 1 is its degree
    over GF(p), as ExtensionField.e is for an extension."""

    finite = True
    e = 1

    def __init__(self, p: int):
        if p < 2 or _smallest_factor(p) != p:
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def elements(self):
        return iter(range(self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField(Field):
    """QQ via fractions.Fraction."""

    finite = False
    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def from_int(self, n: int):
        return Fraction(n)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


# ---------------------------------------------------------------------------
# GF(p) polynomial helpers (coefficient lists, low degree first).  Used for
# extension-field arithmetic and the irreducibility certification.
# ---------------------------------------------------------------------------

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_add(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _fp_trim(out)


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % p
    return _fp_trim(out)


def _fp_divmod(a, b, p):
    """Quotient and remainder of a by a nonzero b."""
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        coef = (a[-1] * inv_lead) % p
        if coef:
            q[shift] = coef
            for i, cb in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * cb) % p
        a.pop()
    return _fp_trim(q), _fp_trim(a)


def _fp_mod(a, b, p):
    return _fp_divmod(a, b, p)[1]


def _fp_gcd(a, b, p):
    """(g, s): g the monic gcd of a and b, and s with s*b = g mod a, by
    extended Euclid.  The irreducibility test reads g, and an extension
    field without tables inverts by s."""
    s0, s1 = [], [1]
    while b:
        q, r = _fp_divmod(a, b, p)
        a, b = b, r
        s0, s1 = s1, _fp_add(s0, [(-c) % p for c in _fp_mul(q, s1, p)], p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a, s0 = [(c * inv) % p for c in a], [(c * inv) % p for c in s0]
    return a, s0


def _fp_powmod(base, n, mod, p):
    acc = [1]
    base = _fp_mod(base, mod, p)
    while n:
        if n & 1:
            acc = _fp_mod(_fp_mul(acc, base, p), mod, p)
        base = _fp_mod(_fp_mul(base, base, p), mod, p)
        n >>= 1
    return acc


# _smallest_factor trial-divides by at most this, so it refuses a prime past
# about 10^14 (any n past MAX_TRIAL_DIVISOR^2 with no factor up to it), in
# about half a second.
MAX_TRIAL_DIVISOR = 10**7


@lru_cache(maxsize=None)
def _smallest_factor(n: int) -> int:
    """The least prime factor of n >= 2, n itself when n is prime.  Trial
    division stops at min(isqrt(n), MAX_TRIAL_DIVISOR), and BoundExceeded
    is raised when it stopped short of isqrt(n) without a factor.  The cache
    means a large prime is divided once, however many callers ask."""
    if n % 2 == 0:
        return 2
    root = math.isqrt(n)
    for q in range(3, min(root, MAX_TRIAL_DIVISOR) + 1, 2):
        if n % q == 0:
            return q
    if root > MAX_TRIAL_DIVISOR:
        raise BoundExceeded(f"{n} has no factor up to the trial-division cap of "
                            f"{MAX_TRIAL_DIVISOR}; its primality is not decided")
    return n


def _digits(n: int, p: int, e: int) -> list[int]:
    """The e base-p digits of 0 <= n < p^e, least significant first."""
    digits = []
    for _ in range(e):
        n, d = divmod(n, p)
        digits.append(d)
    return digits


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending."""
    out = []
    while n > 1:
        q = _smallest_factor(n)
        out.append(q)
        while n % q == 0:
            n //= q
    return out


def is_irreducible(coeffs: list[int], p: int) -> bool:
    """Rabin test for a monic polynomial over GF(p), low degree first.

    Certifies both halves: t^(p^e) = t mod m, and for every prime q | e,
    gcd(t^(p^(e/q)) - t, m) = 1.  The divisibility condition alone passes
    products of smaller-degree irreducibles when e is composite.
    """
    e = len(coeffs) - 1
    if e < 1 or coeffs[-1] != 1:
        return False
    t = [0, 1]
    frob = _fp_powmod(t, p**e, coeffs, p)
    if _fp_add(frob, [0, p - 1], p) != []:
        return False
    for q in _prime_factors(e):
        h = _fp_add(_fp_powmod(t, p ** (e // q), coeffs, p), [0, p - 1], p)
        if _fp_gcd(h, coeffs, p)[0] != [1]:
            return False
    return True


# Extension fields of at most this many elements do their arithmetic by
# table lookup; larger ones keep the coefficient-list route.
_TABLE_MAX = 4096


class ExtensionField(Field):
    """GF(p^e) = GF(p)[t]/(modulus); elements are length-e coefficient tuples.

    Up to _TABLE_MAX elements the arithmetic is table lookup (Lidl and
    Niederreiter, Finite Fields, ch. 9).  With g the first primitive element
    in elements() order, `_log` maps each element a = g^i to i, `_exp` is the
    antilog list, doubled so a product needs no reduction of la + lb, and
    `_zech[i]` is the log of 1 + g^i.  Zero gets the log 2(q-1), past every
    sum of two nonzero logs, and `_exp` reads zero from there on, so
    products and sums with zero need no branch.  A tuple that is not a
    reduced element has no log and raises FieldError.

    The coefficient-list route (`_add_list`, `_neg_list`, `_mul_list`)
    builds the tables, adds, negates and multiplies above the cap, and is
    the reference the tables are tested against.  Above the cap an inverse
    is the Bezout coefficient of `a` in `_fp_gcd(modulus, a)`.
    """

    finite = True

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        if e < 2:
            raise FieldError("extension degree must be at least 2")
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree e")
        self.p = p
        self.e = e
        self.char = p
        self.order = p**e
        self.modulus = tuple(c % p for c in modulus)
        self.zero = (0,) * e
        self.one = tuple([1 % p] + [0] * (e - 1))
        self._log = None
        if self.order <= _TABLE_MAX:
            self._build_tables()

    def _build_tables(self):
        # _log is still None here, so self.pow multiplies by the list route
        q1 = self.order - 1
        gen = next(
            g for g in self.elements()
            if g != self.zero and all(self.pow(g, q1 // r) != self.one for r in _prime_factors(q1))
        )
        exp = [self.one]
        for _ in range(q1 - 1):
            exp.append(self._mul_list(exp[-1], gen))
        zero_log = 2 * q1
        log = {a: i for i, a in enumerate(exp)}
        log[self.zero] = zero_log
        zech = [log[self._add_list(self.one, a)] for a in exp]
        # a difference lb - la past q - 1 means b is zero: a + 0 = g^(la + 0)
        self._zech = zech + [0] * (q1 + 1)
        self._exp = exp + exp + [self.zero] * (2 * q1 + 1)
        self._neg_shift = 0 if self.p == 2 else q1 // 2
        self._zero_log = zero_log
        self._log = log

    def _foreign(self, *values) -> FieldError:
        bad = next(v for v in values if not isinstance(v, tuple) or v not in self._log)
        return FieldError(f"{bad!r} is not an element of {self}")

    def _element(self, a):
        """a itself when it is a reduced length-e tuple; FieldError otherwise."""
        if len(a) != self.e or any(not 0 <= c < self.p for c in a):
            raise FieldError(f"{a!r} is not an element of {self}")
        return a

    def _wrap(self, coeffs: list[int]) -> tuple[int, ...]:
        return tuple(coeffs + [0] * (self.e - len(coeffs)))

    # -- table route ----------------------------------------------------
    def add(self, a, b):
        log = self._log
        if log is None:
            return self._add_list(self._element(a), self._element(b))
        try:
            la, lb = log[a], log[b]
        except (KeyError, TypeError):
            raise self._foreign(a, b) from None
        if la > lb:
            la, lb = lb, la
        return self._exp[la + self._zech[lb - la]]

    def neg(self, a):
        log = self._log
        if log is None:
            return self._neg_list(self._element(a))
        try:
            return self._exp[log[a] + self._neg_shift]
        except (KeyError, TypeError):
            raise self._foreign(a) from None

    def mul(self, a, b):
        log = self._log
        if log is None:
            return self._mul_list(self._element(a), self._element(b))
        try:
            return self._exp[log[a] + log[b]]
        except (KeyError, TypeError):
            raise self._foreign(a, b) from None

    def inv(self, a):
        log = self._log
        if log is None:
            a = _fp_trim(list(self._element(a)))
            if not a:
                raise ZeroDivisionError("inverse of 0")
            return self._wrap(_fp_gcd(list(self.modulus), a, self.p)[1])
        try:
            la = log[a]
        except (KeyError, TypeError):
            raise self._foreign(a) from None
        if la == self._zero_log:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[self.order - 1 - la]

    # -- coefficient-list route -----------------------------------------
    def _add_list(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _neg_list(self, a):
        return tuple((-x) % self.p for x in a)

    def _mul_list(self, a, b):
        prod = _fp_mul(_fp_trim(list(a)), _fp_trim(list(b)), self.p)
        return self._wrap(_fp_mod(prod, list(self.modulus), self.p))

    def from_int(self, n: int):
        return self._wrap([n % self.p])

    def generator(self):
        """The class of t, a root of the modulus."""
        return self._wrap([0, 1])

    def elements(self):
        for n in range(self.order):
            yield tuple(_digits(n, self.p, self.e))

    def in_prime_subfield(self, a) -> bool:
        return all(c == 0 for c in a[1:])

    def format(self, a) -> str:
        if self.in_prime_subfield(a):
            return str(a[0])
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}g" if i == 1 else f"{head}g^{i}")
        return "(" + " + ".join(parts) + ")"

    def format_strict(self, a) -> str:
        if not self.in_prime_subfield(a):
            raise NotSerializable(
                f"element {self.format(a)} of {self} lies outside the prime "
                "subfield and has no expression-grammar form"
            )
        return str(a[0])

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.e == self.e
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ExtensionField", self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.e})"


QQ = RationalField()


@lru_cache(maxsize=None)
def prime_field(p: int) -> PrimeField:
    return PrimeField(p)


# make_extension refuses degrees above this: the search for a modulus and the
# arithmetic above the table cap grow with e, and GF(2^150) already takes
# seconds to build.
MAX_EXTENSION_DEGREE = 64


def make_extension(p: int, e: int) -> ExtensionField:
    """Deterministic GF(p^e): first monic irreducible modulus in base-p order.

    Degrees above MAX_EXTENSION_DEGREE raise BoundExceeded before any work.
    Each GF(p^e) is built once, so every caller gets the same object and its
    tables.
    """
    prime_field(p)  # validates primality
    if e < 2:
        raise FieldError("make_extension needs degree >= 2; use prime_field for e = 1")
    if e > MAX_EXTENSION_DEGREE:
        raise BoundExceeded(f"extension degree {e} exceeds bound {MAX_EXTENSION_DEGREE}")
    return _extension(p, e)


# embedding refuses a tower into a field of more elements than this before
# its root search, which would scan them all; a source then has at most 1000
# elements, within the table cap.  The value of variety.MAX_POINTS.
MAX_EMBEDDING_ORDER = 10**6


@lru_cache(maxsize=None)
def _extension(p: int, e: int) -> ExtensionField:
    for n in range(p**e):
        candidate = _digits(n, p, e) + [1]
        if is_irreducible(candidate, p):
            return ExtensionField(p, e, tuple(candidate))
    raise NotIrreducible(f"no irreducible modulus of degree {e} over GF({p})")  # pragma: no cover


def finite_field(q: int) -> Field:
    """GF(q) for a prime power q, prime or extension as needed."""
    p, e = _prime_power(q)
    if e == 1:
        return prime_field(p)
    return make_extension(p, e)


def _prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e, p the smallest prime factor of q."""
    if q < 2:
        raise FieldError(f"{q} is not a prime power")
    p = _smallest_factor(q)
    e, m = 0, q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise FieldError(f"{q} is not a prime power")
    return p, e


# GF(q) or GF(p^e), each number ASCII decimal digits
_GF = re.compile(r"GF\(([0-9]+)(?:\^([0-9]+))?\)")


def parse_field(text: str) -> Field:
    """Parse "QQ", "GF(q)" or "GF(p^e)" with q, p and e >= 1 written in
    ASCII decimal digits; anything else is an unrecognized field."""
    s = text.strip()
    if s in ("QQ", "Q"):
        return QQ
    m = _GF.fullmatch(s)
    if m is not None:
        try:
            q, e = int(m[1]), int(m[2] or "1")
        except ValueError:  # more digits than int() converts
            e = 0
        if e >= 1:
            if m[2] is None:
                return finite_field(q)
            return prime_field(q) if e == 1 else make_extension(q, e)
    raise FieldError(f"unrecognized field {text!r}; expected QQ or GF(q)")


def field_name(field: Field) -> str:
    return f"GF({field.order})" if field.finite else "QQ"


@lru_cache(maxsize=None)
def embedding(src: Field, dst: Field):
    """A field homomorphism src -> dst as a callable, or RingMismatch.

    Identity for equal fields; from_int for a prime field into anything of the
    same characteristic; for extension towers GF(p^m) -> GF(p^(mj)) the image
    of the generator is the first root of src's modulus in dst's element
    order, which pins the embedding deterministically.  Each pair of fields
    gets one embedding.  Degrees that do not divide raise RingMismatch, and
    a destination of more than MAX_EMBEDDING_ORDER elements BoundExceeded,
    before the root search; a source is mapped by a table of the images of
    all its elements, built here by Horner's rule.
    """
    if src == dst:
        return lambda a: a
    if isinstance(src, RationalField) or isinstance(dst, RationalField):
        raise RingMismatch(f"no embedding {src} -> {dst}")
    if src.char != dst.char:
        raise RingMismatch(f"characteristic mismatch: {src} vs {dst}")
    if isinstance(src, PrimeField):
        return dst.from_int
    if isinstance(src, ExtensionField) and isinstance(dst, ExtensionField):
        return _Images(src, _horner_embedding(src, dst)).__getitem__
    raise RingMismatch(f"no embedding {src} -> {dst}")


class _Images(dict):
    """The image of every element of `src` under `embed`; a value that is
    not an element of `src` raises FieldError."""

    def __init__(self, src: Field, embed):
        super().__init__((a, embed(a)) for a in src.elements())
        self.src = src

    def __missing__(self, a):
        raise FieldError(f"{a!r} is not an element of {self.src}")


def _horner_embedding(src: ExtensionField, dst: ExtensionField):
    """GF(p^m) -> GF(p^(mj)) sending the generator to the first root of
    src's modulus in dst's element order; each element is mapped by
    Horner's rule in that root."""
    if dst.e % src.e != 0:
        raise RingMismatch(f"{src} does not embed in {dst}")
    if dst.order > MAX_EMBEDDING_ORDER:
        raise BoundExceeded(f"embedding {src} -> {dst} searches more than the cap of "
                            f"{MAX_EMBEDDING_ORDER} elements")

    def horner(coeffs, x):
        acc = dst.zero
        for c in reversed(coeffs):
            acc = dst.add(dst.mul(acc, x), dst.from_int(c))
        return acc

    # src's degree divides dst's, so dst holds every root of src's modulus
    root = next(x for x in dst.elements() if horner(src.modulus, x) == dst.zero)
    return lambda a: horner(a, root)
