"""The generic hypersurface ring R = Q[x_1..x_c]/(w), w = f_1 x_1 + .. + f_c x_c.

Q is modeled as the polynomial ring k[y_1..y_d]; locality of Q enters only
through the residue map y -> 0 (an element is a unit iff its constant term
is nonzero), so no localized arithmetic is ever materialized.  The ambient ring P = Q[x] is
poly.PolyRing with the x-block first; R-elements are represented by their
normal form under division by w (grevlex leading term), which is a canonical
coset representative because division by a single polynomial is.

The f_i must be nonconstant (classes in the maximal ideal); when every f_i is
a monomial, the regular-sequence hypothesis is certified by pairwise
coprimality, otherwise it is recorded as unverified and trusted.

Specialization at a point alpha of K^c is the ring map x_i -> a_i along
preimages a_i in K[y] with constant terms alpha_i, a plain tuple built by
lift_point; reps land in K[y], and the residue map y -> 0 then gives their
value at (x, y) = (alpha, 0), whichever preimages were chosen.
"""

from __future__ import annotations

from .errors import (
    BadArity,
    NotInMaximalIdeal,
    NotRegularSequence,
    VariableLeak,
)
from .fields import Field, embedding
from .matrix import map_entries
from .parser import parse_poly
from .poly import Poly, PolyRing, divide_single


class RingSpec:
    """Immutable description of R plus its ambient rings."""

    def __init__(self, ambient: PolyRing, f: tuple[Poly, ...], regularity_verified: bool):
        self.field = field = ambient.field
        self.yvars = ambient.yvars
        self.xvars = xvars = ambient.xvars
        self.ambient = ambient
        self.kx = PolyRing(field, xvars, ())
        self._ambients = {field: ambient}
        self.f = f
        self.regularity_verified = regularity_verified
        w = self.ambient.zero()
        for name, fi in zip(xvars, f):
            w = w + self.ambient.variable(name) * fi
        self.w = w
        # derived data: (t, top) -> terms of u^t f_1^(top - t), u = f_1 x_1 - w,
        # filled by variety._eliminate_x1 as it meets each pair
        self._x1_multipliers: dict[tuple[int, int], list] = {}

    @property
    def c(self) -> int:
        return len(self.xvars)

    @property
    def d(self) -> int:
        return len(self.yvars)

    def parse(self, text: str) -> Poly:
        return parse_poly(self.ambient, text)

    def coerce(self, value) -> Poly:
        if isinstance(value, str):
            return self.parse(value)
        return self.ambient.coerce(value)

    def normal_form(self, p) -> Poly:
        """Canonical representative of p mod w."""
        p = self.coerce(p)
        return divide_single(p, self.w)[1]

    def image_in_kx(self, p) -> Poly:
        """The map R -> k[x] killing every y; well defined on classes since
        each term of w has positive y-degree."""
        c = self.c
        terms = self.coerce(p).terms.items()
        return Poly(self.kx, {m[:c]: coef for m, coef in terms if not any(m[c:])})

    def image_grid(self, rows) -> tuple[tuple[Poly, ...], ...]:
        """image_in_kx entry by entry: a grid over P as a grid over k[x],
        mapping each distinct entry object once (map_entries)."""
        (grid,) = map_entries(self.image_in_kx, rows)
        return grid

    def ambient_over(self, field: Field) -> PolyRing:
        """Same variables over an extension coefficient field; one ring per
        field, so polynomials moved to a field share it."""
        ambient = self._ambients.get(field)
        if ambient is None:
            embedding(self.field, field)  # raises RingMismatch if incompatible
            ambient = self._ambients[field] = PolyRing(field, self.xvars, self.yvars)
        return ambient

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and other.field == self.field
            and other.xvars == self.xvars
            and other.yvars == self.yvars
            and other.f == self.f
        )

    def __hash__(self):
        return hash((self.field, self.xvars, self.yvars, self.f))

    def __repr__(self):
        fs = ", ".join(str(fi) for fi in self.f)
        return f"{self.field}[{', '.join(self.yvars)}][{', '.join(self.xvars)}] / (w), f = ({fs})"


def make_ring(field: Field, yvars, xvars, f) -> RingSpec:
    """Validate and build the hypersurface data.

    f entries may be Poly (in a ring equal to the ambient ring) or expression
    strings, read into the ring's own ambient, which w is built in too; they
    must involve only y-variables and have zero constant term.  Monomial
    coefficient sequences are certified regular via pairwise coprimality;
    anything else is recorded as unverified.
    """
    xvars = tuple(xvars)
    yvars = tuple(yvars)
    if len(xvars) < 2:
        raise BadArity(f"need at least two x-variables, got {len(xvars)}")
    ambient = PolyRing(field, xvars, yvars)  # validates names
    if len(f) != len(xvars):
        raise ValueError(f"expected {len(xvars)} coefficients f_i, got {len(f)}")

    polys = [parse_poly(ambient, fi) if isinstance(fi, str) else Poly(ambient, ambient.coerce(fi).terms)
             for fi in f]

    c = len(xvars)
    for name, p in zip(xvars, polys):
        if p.is_zero():
            raise NotRegularSequence("a zero coefficient is never a regular element")
        for m in p.terms:
            if any(m[:c]):
                raise VariableLeak(f"coefficient for {name} mentions an x-variable")
        if not field.is_zero(p.constant_term()):
            raise NotInMaximalIdeal(f"coefficient for {name} has nonzero constant term")

    verified = all(len(p.terms) == 1 for p in polys)
    if verified:
        supports = []
        for p in polys:
            (mono,) = p.terms
            supports.append({i for i, e in enumerate(mono) if e})
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                if supports[i] & supports[j]:
                    raise NotRegularSequence(
                        f"monomial coefficients {polys[i]} and {polys[j]} share a variable"
                    )
    return RingSpec(ambient, tuple(polys), verified)


def point_coords(ring: RingSpec, coords, field: Field | None = None) -> tuple:
    """Validate point data against the ring: `field` (default the ring's)
    must contain the ring's field, and there must be c coordinates, not all
    zero.  Coordinates may be ints (mapped through the field) or scalars of
    `field`; the result holds scalars only."""
    fld = field if field is not None else ring.field
    embedding(ring.field, fld)  # compatibility check
    if len(coords) != ring.c:
        raise ValueError(f"expected {ring.c} coordinates, got {len(coords)}")
    point = tuple(fld.from_int(a) if isinstance(a, int) else a for a in coords)
    if all(fld.is_zero(a) for a in point):
        raise ValueError("the zero tuple is not a point")
    return point


def lift_point(ring: RingSpec, coords, preimages=None, field: Field | None = None) -> tuple[Poly, ...]:
    """Validate point data against the ring (see point_coords) and lift it
    to preimages in K[y], the constants by default; given preimages, Polys
    or strings, must be y-only with the coordinates as constant terms."""
    fld = field if field is not None else ring.field
    point = point_coords(ring, coords, fld)
    ambient = ring.ambient_over(fld)
    if preimages is None:
        return tuple(ambient.const(a) for a in point)
    if len(preimages) != ring.c:
        raise ValueError(f"expected {ring.c} preimages, got {len(preimages)}")
    lifted = []
    for a, pre in zip(point, preimages):
        p = parse_poly(ambient, pre) if isinstance(pre, str) else ambient.coerce(pre)
        if any(any(m[:ring.c]) for m in p.terms):
            raise VariableLeak(f"preimage {p} mentions an x-variable")
        if p.constant_term() != a:
            raise ValueError(
                f"preimage {p} has constant term {fld.format(p.constant_term())}, "
                f"expected {fld.format(a)}"
            )
        lifted.append(p)
    return tuple(lifted)


def specialize(value, preimages: tuple[Poly, ...], ring: RingSpec) -> Poly:
    """Apply x_i -> preimages[i] to a representative, over the preimages'
    field; any tuple may be passed, so an x-variable left raises VariableLeak."""
    p = ring.coerce(value)
    ambient = ring.ambient_over(preimages[0].ring.field)
    if ambient is not ring.ambient:
        p = p.map_coefficients(ambient)
    out = p.substitute(dict(zip(ring.xvars, preimages)))
    if any(any(m[: ring.c]) for m in out.terms):
        raise VariableLeak("specialization left an x-variable behind")
    return out


def residue(q: Poly, ring: RingSpec):
    """Evaluate a specialized (y-only) polynomial at y = 0, landing in the
    residue field of the local base."""
    cdx = ring.c
    for m in q.terms:
        if any(m[:cdx]):
            raise VariableLeak(f"{q} still mentions an x-variable")
    return q.constant_term()
