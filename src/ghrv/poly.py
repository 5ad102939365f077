"""Sparse multivariate polynomials over an exact coefficient field.

The ambient ring is k[x_1..x_c, y_1..y_d] with the internal grading
deg x_i = 1, deg y_j = 0 (the x-degree).  A monomial is an exponent tuple
indexed by (x_1, .., x_c, y_1, .., y_d); a polynomial is a dict mapping
monomials to nonzero coefficients.  Monomials are ordered by graded reverse
lexicographic order with x_1 > .. > x_c > y_1 > .. > y_d, which every
leading-term computation and the canonical printed form use.
"""

from __future__ import annotations

from operator import add as _mono_add, sub as _mono_sub
from typing import Callable, Iterable, Mapping

from .errors import RingMismatch
from .fields import Field, embedding


def order_key(mono: tuple[int, ...]):
    """Sort key realizing grevlex: compare total degree, then reversed
    negated exponents lexicographically.  Larger key = larger monomial."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def monomial_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(b: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(_mono_sub, b, a))


def monomial_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(_mono_add, a, b))


class PolyRing:
    """k[x_1..x_c, y_1..y_d]; owns variable names and the coefficient field."""

    __slots__ = ("field", "xvars", "yvars", "vars", "_index", "_zero")

    def __init__(self, field: Field, xvars: Iterable[str], yvars: Iterable[str]):
        self.field = field
        self.xvars = tuple(xvars)
        self.yvars = tuple(yvars)
        self.vars = self.xvars + self.yvars
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"duplicate variable names in {self.vars}")
        for name in self.vars:
            if not name.isidentifier():
                raise ValueError(f"bad variable name {name!r}")
        self._index = {name: i for i, name in enumerate(self.vars)}
        self._zero = Poly(self, {})

    # -- basic data -----------------------------------------------------
    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def c(self) -> int:
        return len(self.xvars)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"{name!r} is not a variable of {self}") from None

    def x_degree_of(self, mono: tuple[int, ...]) -> int:
        return sum(mono[: self.c])

    # -- element constructors --------------------------------------------
    def zero(self) -> "Poly":
        """The ring's one zero polynomial, shared: a Poly is immutable, and a
        zero never gets a power table."""
        return self._zero

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: self.field.one})

    def const(self, c) -> "Poly":
        if self.field.is_zero(c):
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def from_int(self, n: int) -> "Poly":
        return self.const(self.field.from_int(n))

    def variable(self, name: str) -> "Poly":
        i = self.var_index(name)
        return self.monomial(tuple(1 if j == i else 0 for j in range(self.nvars)))

    def monomial(self, mono: tuple[int, ...], coeff=None) -> "Poly":
        if coeff is None:
            coeff = self.field.one
        if self.field.is_zero(coeff):
            return self.zero()
        return Poly(self, {tuple(mono): coeff})

    def coerce(self, value) -> "Poly":
        """value itself, a polynomial of this ring: RingMismatch for a
        polynomial of another ring, TypeError for anything else."""
        if not isinstance(value, Poly):
            raise TypeError(f"{value!r} is not a polynomial of {self}")
        if value.ring is not self and value.ring != self:
            raise RingMismatch(f"{value!r} lives in {value.ring}, not {self}")
        return value

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.field == self.field
            and other.xvars == self.xvars
            and other.yvars == self.yvars
        )

    def __hash__(self):
        return hash((self.field, self.xvars, self.yvars))

    def __repr__(self):
        return f"{self.field}[{', '.join(self.vars)}]"


class Poly:
    """Immutable sparse polynomial; arithmetic goes through the ring's field.

    `_powers`, set on the first power of a polynomial with two or more
    terms, holds p^0, p^1, .. as far as they have been computed.  `_lm`,
    set on the first call of leading_monomial (or carried over by monic
    and by variety._canonical_gens, which scale without moving it),
    keeps the leading monomial, so the divisor w of every normal form and a
    monic generator are not searched again.  Both are
    derived data and never change `terms`."""

    __slots__ = ("ring", "terms", "_powers", "_lm")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], object]):
        self.ring = ring
        fld = ring.field
        self.terms = {m: c for m, c in terms.items() if not fld.is_zero(c)}

    @classmethod
    def _of_nonzero(cls, ring: PolyRing, terms: dict) -> "Poly":
        """The polynomial on `terms` itself, with no zero filter: for a dict
        whose coefficients are all nonzero and that nothing writes
        afterwards, since the Poly keeps it as its terms."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    # -- predicates and degree data ---------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def x_degrees(self) -> set[int]:
        """The x-degrees of the terms; empty for zero, one for an
        x-homogeneous nonzero polynomial."""
        xd = self.ring.x_degree_of
        return {xd(m) for m in self.terms}

    def leading_monomial(self) -> tuple[int, ...]:
        try:
            return self._lm
        except AttributeError:
            if not self.terms:
                raise ValueError("zero polynomial has no leading monomial") from None
            lm = self._lm = max(self.terms, key=order_key)
            return lm

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def constant_term(self):
        zero_mono = (0,) * self.ring.nvars
        return self.terms.get(zero_mono, self.ring.field.zero)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    # -- arithmetic -------------------------------------------------------
    def _check(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is self.ring or other.ring == self.ring:
                return other
            raise RingMismatch(f"operands in different rings: {self.ring} vs {other.ring}")
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                out[m] = fld.add(out[m], c)
            else:
                out[m] = c
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Poly._of_nonzero(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        fld = self.ring.field
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                c = fld.mul(c1, c2)
                if m in out:
                    out[m] = fld.add(out[m], c)
                else:
                    out[m] = c
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """p^n for n >= 0.  A polynomial of at most one term is raised
        directly, by exponents times n and one field power, so a large n
        costs no table.  Any other keeps every power it has computed, built
        as p^k = p^(k-1) * p, so later powers of the same polynomial reuse
        them: specialize raises each preimage once per point, not once per
        entry.  For a sparse p that chain also costs fewer monomial products
        than repeated squaring, whose squares of large powers dominate."""
        if n < 0:
            raise ValueError("negative exponent")
        if len(self.terms) <= 1:
            if n == 0:
                return self.ring.one()
            pw = self.ring.field.pow
            return Poly(self.ring, {tuple(e * n for e in m): pw(c, n) for m, c in self.terms.items()})
        try:
            table = self._powers
        except AttributeError:
            table = self._powers = [self.ring.one(), self]
        while len(table) <= n:
            table.append(table[-1] * self)
        return table[n]

    def scale(self, c) -> "Poly":
        fld = self.ring.field
        return Poly(self.ring, {m: fld.mul(coef, c) for m, coef in self.terms.items()})

    def monic(self, inverses: dict | None = None) -> "Poly":
        """This polynomial scaled to leading coefficient one; the zero
        polynomial, and one already monic, come back as they are.  Scaling
        keeps every monomial, so the copy keeps the leading monomial.  A
        caller scaling many polynomials may pass `inverses`, a dict from
        leading coefficient to its inverse kept across its calls, so each
        distinct coefficient is inverted once."""
        if not self.terms:
            return self
        lm = self.leading_monomial()
        lc = self.terms[lm]
        fld = self.ring.field
        if lc == fld.one:
            return self
        if inverses is None:
            s = fld.inv(lc)
        else:
            s = inverses.get(lc)
            if s is None:
                s = inverses[lc] = fld.inv(lc)
        mul = fld.mul
        out = Poly._of_nonzero(self.ring, {m: mul(c, s) for m, c in self.terms.items()})
        out._lm = lm
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.from_int(other)
        return (
            isinstance(other, Poly)
            and (other.ring is self.ring or other.ring == self.ring)
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- substitution and base change ---------------------------------------
    def substitute(self, bindings: Mapping[str, object]) -> "Poly":
        """Simultaneous substitution; each value must be a polynomial of this
        ring (PolyRing.coerce).

        For each term, the bound variables' powers come from each value's
        own power table (see __pow__), so substituting the same values into
        many polynomials, as specialize does for every entry of a pair at
        one point, computes each power once.  A Poly product is formed only
        when two bound variables occur in one term.  That product's terms are
        shifted by the term's unbound exponents, scaled by its coefficient
        and summed straight into one result dict, so no Poly is built per
        term and the cost is linear in the number of result terms."""
        ring = self.ring
        bound: dict[int, Poly] = {}
        for name, value in bindings.items():
            bound[ring.var_index(name)] = ring.coerce(value)
        if not bound:
            return self
        fld = ring.field
        add, mul = fld.add, fld.mul
        total: dict = {}
        for m, c in self.terms.items():
            image = None
            for i, value in bound.items():
                e = m[i]
                if e:
                    power = value**e
                    image = power if image is None else image * power
            if image is None:
                total[m] = add(total[m], c) if m in total else c
                continue
            residual = tuple(0 if i in bound else e for i, e in enumerate(m))
            shift = any(residual)
            for mm, cc in image.terms.items():
                if shift:
                    mm = tuple(map(_mono_add, mm, residual))
                cc = mul(cc, c)
                total[mm] = add(total[mm], cc) if mm in total else cc
        return Poly(ring, total)

    def map_coefficients(self, target: PolyRing) -> "Poly":
        """Move to a ring with the same variables over another field, through
        the field embedding."""
        if target.vars != self.ring.vars:
            raise RingMismatch(f"variable mismatch: {self.ring} vs {target}")
        fn = embedding(self.ring.field, target.field)
        return Poly(target, {m: fn(c) for m, c in self.terms.items()})

    def evaluate(self, assignment: Mapping[str, object], target: Field | None = None):
        """Full evaluation to a scalar; assignment must cover every mentioned
        variable.  With `target`, coefficients go through the field embedding."""
        return evaluator(self.ring, assignment, target)(self)

    # -- printing -----------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: order_key(kv[0]), reverse=True)

    def to_string(self, strict: bool = True) -> str:
        """Canonical form: terms in descending monomial order, grammar-valid.

        Strict mode insists every coefficient has a grammar representation
        (always true for data built from expressions); non-strict falls back
        to a display form for extension elements outside the prime subfield.
        """
        if not self.terms:
            return "0"
        fld = self.ring.field
        fmt = fld.format_strict if strict else fld.format
        chunks: list[str] = []
        for m, c in self.sorted_terms():
            text = fmt(c)
            negative = text.startswith("-")
            if negative:
                text = text[1:]
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(self.ring.vars[i])
                elif e > 1:
                    factors.append(f"{self.ring.vars[i]}^{e}")
            if factors:
                body = "*".join(factors)
                if text != "1":
                    body = f"{text}*{body}"
            else:
                body = text
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(chunks)

    def __str__(self):
        return self.to_string(strict=False)

    def __repr__(self):
        return f"<{self.to_string(strict=False)}>"


def evaluator(ring: PolyRing, assignment: Mapping[str, object],
              target: Field | None = None) -> Callable[[Poly], object]:
    """p -> p(assignment) for polynomials of `ring`, as a scalar of `target`
    (default: the ring's field).  The embedding is looked up once and each
    variable's powers are kept in one table, so evaluating many polynomials
    at one point shares that work.  A mentioned variable without a value
    raises ValueError when a polynomial needs it."""
    fld = target if target is not None else ring.field
    emb = embedding(ring.field, fld)
    mul, add = fld.mul, fld.add
    powers: list = [None] * ring.nvars
    for name, v in assignment.items():
        powers[ring.var_index(name)] = [fld.one, v]

    def evaluate(p: Poly):
        acc = fld.zero
        for m, c in p.terms.items():
            term = emb(c)
            for i, e in enumerate(m):
                if e:
                    table = powers[i]
                    if table is None:
                        raise ValueError(f"no value for {ring.vars[i]}")
                    while len(table) <= e:
                        table.append(mul(table[-1], table[1]))
                    term = mul(term, table[e])
            acc = add(acc, term)
        return acc

    return evaluate


def divide_single(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Division with remainder by one divisor: p = q*d + r where no term of r
    is divisible by LM(d).  Deterministic: always cancels the current leading
    term of the running dividend.

    When LM(d) divides no term of p, p is already its own remainder and
    (0, p) is returned at once, with no ordered walk over p's terms; this is
    the common case of a normal form mod w.  LM(d) comes from the divisor's
    kept leading monomial.  Each step's leading term is below the last (the
    order is multiplicative and the other terms of d are below LM(d)), so
    each quotient monomial is met once, and every coefficient kept in the
    quotient and the remainder is nonzero."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    ring = p.ring
    if d.ring is not ring and d.ring != ring:
        raise RingMismatch("divisor in a different ring")
    lm = d.leading_monomial()
    if not any(monomial_divides(lm, m) for m in p.terms):
        return ring.zero(), p
    fld = ring.field
    lc = d.leading_coeff()
    lc_inv = fld.inv(lc)
    work = dict(p.terms)
    q: dict = {}
    r: dict = {}
    while work:
        m = max(work, key=order_key)
        c = work.pop(m)
        if monomial_divides(lm, m):
            factor_mono = monomial_div(m, lm)
            factor_coeff = q[factor_mono] = fld.mul(c, lc_inv)
            for dm, dc in d.terms.items():
                if dm == lm:
                    continue
                mm = monomial_mul(dm, factor_mono)
                cc = fld.neg(fld.mul(dc, factor_coeff))
                if mm in work:
                    s = fld.add(work[mm], cc)
                    if fld.is_zero(s):
                        del work[mm]
                    else:
                        work[mm] = s
                elif not fld.is_zero(cc):
                    work[mm] = cc
        else:
            r[m] = c
    return Poly._of_nonzero(ring, q), Poly._of_nonzero(ring, r)


def exact_div(p: Poly, d: Poly) -> Poly:
    """Quotient p/d when d divides p; otherwise ArithmeticError naming the
    remainder.  This is the denominator-clearing step of fraction-free
    elimination (matrix.rank_over_domain): divide_single, and a check that
    its remainder is zero."""
    q, r = divide_single(p, d)
    if not r.is_zero():
        raise ArithmeticError(f"inexact division: remainder {r}")
    return q
