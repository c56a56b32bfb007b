"""Orbifold cones over polarized toric varieties and Cox-degree monoids.

Two constructions meet here.  Going one way, a complete fan with an ample
invariant Q-divisor determines an affine cone: the section ring of the
polarization is the monoid algebra of the divisor polytope placed at
height one, and ``cone_over`` returns the (pointed, full-dimensional)
cone whose dual cuts out exactly that monoid.

Going the other way, a pointed full-dimensional cone together with an
interior primitive vector determines a star subdivision Y -> X with an
exceptional divisor E.  ``cox_degrees`` records the classes of the
invariant divisors of Y in Cl(Y_x), ``degree_zero_monoid`` computes the
minimal generators of the degree-zero monomial monoid in those divisors
(graded by the exponent of E), and ``verify_cone_iso`` checks, through
an explicit unimodular witness, that the original cone is the cone over
E polarized by -E restricted to E -- divisor by divisor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .lattice import (
    AbelianGroupPresentation,
    ClaimFailedError,
    InvalidInputError,
    _check,
    _det,
    cone_hform,
    cone_vform,
    extremal_rays,
    hilbert_basis,
    identity_matrix,
    is_primitive,
    kernel_basis,
    mat_vec,
    primitive_vector,
    snf,
    vec_dot,
)
from .fan import (Fan, as_int, is_complete, make_fan, require_valid,
                  star_subdivision)
from .divisor import as_coeffs, is_ample


class NotAmpleError(ClaimFailedError):
    """The divisor is not ample on the given complete fan."""


class NotInteriorError(InvalidInputError):
    """The chosen vector does not lie in the interior of the cone."""


class TorsionObstructionError(ClaimFailedError):
    """Cl(Y_x) has torsion, so the degree-zero monoid is not taken as is."""


# ---------------------------------------------------------------------------
# cones over polarized varieties
# ---------------------------------------------------------------------------

class PolarizedToric(NamedTuple):
    """A complete fan with an ample invariant Q-divisor on it."""

    fan: Fan
    coeffs: tuple


def polarize(fan, coeffs):
    """Validated :class:`PolarizedToric`; raises NotAmpleError otherwise."""
    require_valid(fan)
    coeffs = as_coeffs(coeffs, len(fan.rays))
    if not is_complete(fan):
        raise NotAmpleError("ampleness here is asked on a complete fan")
    if not is_ample(fan, coeffs):
        raise NotAmpleError("divisor is not ample (support function not "
                            "strictly convex)")
    return PolarizedToric(fan, coeffs)


def cone_over(p):
    """The affine cone over a polarized toric variety, as a one-cone fan.

    The ray over the fan ray u with coefficient a is the primitive vector
    on (u, a) in N x Z; the dual cone's height-k slices are exactly the
    monomial sections of the k-th multiple of the polarization.
    """
    rays = []
    for u, a in zip(p.fan.rays, p.coeffs):
        den = a.denominator
        rays.append(primitive_vector(tuple(c * den for c in u) + (a.numerator,)))
    if extremal_rays(rays, cone_hform(rays, p.fan.rank + 1)) is None:
        raise NotAmpleError("cone over the polytope is not pointed")
    return make_fan(p.fan.rank + 1, rays, [tuple(range(len(rays)))])


# ---------------------------------------------------------------------------
# star subdivisions of a single cone and their Cox degrees
# ---------------------------------------------------------------------------

def _single_cone(fan):
    """Check that the fan is one full-dimensional cone over all its rays.

    Validation has already checked that the cone is pointed and that its
    generators are its extremal rays.
    """
    require_valid(fan)
    if len(fan.max_cones) != 1:
        raise ValueError("expected a fan with a single maximal cone")
    if len(fan.max_cones[0]) != len(fan.rays):
        raise ValueError("every ray must belong to the maximal cone")
    if fan.hforms[0][0]:
        raise ValueError("the cone must be full-dimensional")


def _require_interior(fan, v):
    rank = fan.rank
    v = tuple(as_int(c, "an interior vector entry") for c in v)
    if len(v) != rank:
        raise ValueError(f"expected a rank-{rank} vector")
    if not any(v):
        raise NotInteriorError("the origin is not interior")
    if not is_primitive(v):
        raise ValueError("interior vector must be primitive")
    _, ineqs = fan.hforms[0]
    if any(vec_dot(phi, v) <= 0 for phi in ineqs):
        raise NotInteriorError(f"{v} is not in the interior of the cone")
    if v in fan.rays:  # rank one, where the cone's interior is its ray
        raise NotInteriorError(
            f"{v} is the ray of the cone: subdividing there adds no divisor")
    return v


class CoxDegrees(NamedTuple):
    """Class-group data of the star subdivision Y -> X at an interior ray.

    ray_classes[i] is the integral class of the i-th invariant divisor of
    Y (the strict transform of the i-th wall of the input cone) and
    e_class the class of the exceptional divisor, both in the
    presentation cl_y of Cl(Y_x).  cl_x presents Cl(X_x).
    """

    x_fan: Fan
    y_fan: Fan
    v_e: tuple
    cl_y: AbelianGroupPresentation
    cl_x: AbelianGroupPresentation
    ray_classes: tuple
    e_class: tuple


def cox_degrees(x_fan, v_e):
    """Degrees [E_1], ..., [E_r], [E] in Cl(Y_x) for the subdivision at v_e."""
    _single_cone(x_fan)
    v_e = _require_interior(x_fan, v_e)
    y_fan = star_subdivision(x_fan, v_e)
    r = len(x_fan.rays)
    cl_y = y_fan.class_group
    cl_x = x_fan.local_class_group(x_fan.max_cones[0])
    # Adding the interior ray raises the number of divisors by one while
    # the relation lattice (the character lattice) stays the same.
    _check(cl_y.free_rank == cl_x.free_rank + 1,
           "rank of Cl must step by exactly one")
    units = []
    for i in range(r + 1):
        unit = [0] * (r + 1)
        unit[i] = 1
        units.append(cl_y.class_of(unit))
    e_class = units[r]
    _check(any(e_class[0]) or any(e_class[1]),
           "the exceptional class cannot vanish")
    return CoxDegrees(x_fan, y_fan, v_e, cl_y, cl_x, tuple(units[:r]), e_class)


# ---------------------------------------------------------------------------
# the degree-zero monoid
# ---------------------------------------------------------------------------

class CoverStep(NamedTuple):
    """One index-one-cover descent killing a torsion class.

    divisor: coefficient vector of the torsion divisor W on the rays of Y;
    order: the order k of [W]; character: m with <m, u> = k * W-coefficient
    on every ray, so the refined lattice is {x : <m, x> = 0 mod k}.
    """

    divisor: tuple
    order: int
    character: tuple


class GradedMonoid(NamedTuple):
    """Minimal generators of the degree-zero monoid, with the E-grading.

    generators[j] lives in N^(r+1): exponents of x_1, ..., x_r, e.  tau[j]
    is its e-exponent, the distinguished N-grading.  degrees is the
    CoxDegrees the monoid was computed from (after any cover steps).
    """

    generators: tuple
    tau: tuple
    degrees: CoxDegrees
    cover_steps: tuple


def _torsion_witness(y_fan, pres):
    """A divisor whose class is the canonical generator of the largest
    invariant factor, with the order and the character trivializing its
    multiple.  The generator is the matching column of left^-1 for the
    ray matrix M, that is M * m / order with m the matching column of
    right (see SmithForm), so m trivializes order times it.  pres is
    the class group of y_fan, read off the same Smith form."""
    j = len(pres.torsion) - 1
    s = y_fan.smith_form
    row = [i for i in range(s.rank) if s.diag[i][i] >= 2][j]
    order = s.diag[row][row]
    m = tuple(r[row] for r in s.right)
    values = [vec_dot(u, m) for u in y_fan.rays]
    _check(all(x % order == 0 for x in values),
           "a torsion multiple must be principal")
    return tuple(x // order for x in values), order, m


def _refine_by_character(x_fan, v_e, m, order):
    """Rewrite the cone and center in the sublattice <m, x> = 0 mod order.

    One Smith form left * mat * right = D of the basis matrix answers
    every vector: mat z = u is solved by z = right * D^-1 * left * u,
    integral exactly when each d_i divides (left * u)_i.
    """
    aug = kernel_basis([list(m) + [order]])
    basis = [v[:-1] for v in aug]
    mat = [[basis[j][i] for j in range(len(basis))] for i in range(x_fan.rank)]
    s = snf(mat)
    diag = [s.diag[i][i] for i in range(s.rank)]

    def coords(u):
        c = mat_vec(s.left, list(u))
        _check(not any(c[len(diag):])
               and all(x % d == 0 for x, d in zip(c, diag)),
               "cone rays must lie in the refined lattice")
        y = [x // d for x, d in zip(c, diag)]
        return tuple(mat_vec(s.right, y + [0] * (len(basis) - len(y))))

    rays = [primitive_vector(coords(u)) for u in x_fan.rays]
    fan = make_fan(x_fan.rank, rays, list(x_fan.max_cones))
    return fan, coords(v_e)


def degree_zero_monoid(g, torsion_cover=False):
    """Hilbert basis of the monoid of degree-zero monomials in x_1..x_r, e.

    A monomial has degree zero when its exponent vector pairs to zero with
    (ray_classes, e_class) in Cl(Y_x), torsion included.  With a free
    class group the e-exponent is determined by the x-exponents, which
    makes the last coordinate a well-defined N-grading (tau), and the
    degree-zero exponents are the points of Z^n in the cone
    {x >= 0 : free_map * x = 0}, whose Hilbert basis is taken in Z^n
    itself: the kernel of free_map is saturated, so no lattice basis of
    it is needed.

    Torsion in Cl(Y_x) obstructs that reading; by default it raises
    TorsionObstructionError.  With torsion_cover=True the computation
    descends to the index-one cover of a canonical torsion divisor
    (lattice refinement by its character) and repeats until the class
    group is free, recording each step.
    """
    steps = []
    for _ in range(8):
        if not g.cl_y.torsion:
            break
        if not torsion_cover:
            raise TorsionObstructionError(
                f"Cl(Y_x) has torsion {tuple(g.cl_y.torsion)}; pass "
                "torsion_cover=True to descend to the index-one cover")
        divisor, order, m = _torsion_witness(g.y_fan, g.cl_y)
        steps.append(CoverStep(divisor, order, m))
        x_fan, v_e = _refine_by_character(g.x_fan, g.v_e, m, order)
        g = cox_degrees(x_fan, v_e)
    else:
        raise TorsionObstructionError("torsion persists after descent")
    n = len(g.y_fan.rays)
    rays = cone_vform(g.cl_y.free_map, identity_matrix(n), n)
    _check(rays is not None, "the non-negative orthant is pointed")
    gens = hilbert_basis(rays, n)
    for x in gens:
        _check(g.cl_y.is_zero_class(list(x)),
               "every generator must have degree zero")
        _check(x[-1] >= 0, "e-exponents are non-negative on the monoid")
    return GradedMonoid(tuple(gens), tuple(x[-1] for x in gens), g,
                        tuple(steps))


# ---------------------------------------------------------------------------
# the cone isomorphism
# ---------------------------------------------------------------------------

def _star_polarization(x_fan, v_e):
    """The exceptional divisor's fan and the restriction of minus itself.

    Returns (e_fan, coeffs, q_rows, m): e_fan is the star fan of v_e in
    the subdivision (one ray per wall through v_e, i.e. per input ray),
    coeffs are the coefficients of -E restricted to E, q_rows the
    projection to N/Zv_e and m an integral form with <m, v_e> = -1.
    """
    _single_cone(x_fan)
    v_e = _require_interior(x_fan, v_e)
    # v_e * right = left^-1 * (1, 0, ..., 0) = (left[0][0], 0, ..., 0),
    # and left[0][0] = +-1: columns 1.. of right span the kernel of v_e
    s = snf([list(v_e)])
    q_rows = [tuple(r[i] for r in s.right) for i in range(1, x_fan.rank)]
    m = tuple(-s.left[0][0] * r[0] for r in s.right)
    _check(vec_dot(v_e, m) == -1, "a primitive vector admits a dual form")
    e_rays = []
    coeffs = []
    for u in x_fan.rays:
        img = tuple(vec_dot(row, u) for row in q_rows)
        w = primitive_vector(img)
        j = next(i for i in range(len(img)) if w[i])
        ell = img[j] // w[j]
        e_rays.append(w)
        # On the wall spanned by v_e and u the divisor -E has linear data
        # m, so the restricted coefficient at the image ray is -<m, u>
        # spread over the wall multiplicity.
        coeffs.append(Fraction(-vec_dot(m, u), ell))
    _check(len(set(e_rays)) == len(e_rays),
           "walls through the center are distinct")
    _, ineqs = x_fan.hforms[0]
    cones = []
    for phi in ineqs:
        facet = tuple(i for i, u in enumerate(x_fan.rays)
                      if vec_dot(phi, u) == 0)
        cones.append(facet)
    e_fan = make_fan(x_fan.rank - 1, e_rays, cones)
    _check(is_complete(e_fan), "the star of an interior ray is complete")
    return e_fan, tuple(coeffs), q_rows, m, v_e


class ConeIsoReport(NamedTuple):
    """Outcome of the cone-over-the-exceptional-divisor comparison.

    witness is the unimodular matrix x |-> (x mod v_e, -<m, x>) carrying
    the input cone onto cone_over(e_fan, polarization); ray_map[i] is the
    target ray index of the i-th input ray (divisors match divisors).
    """

    ok: bool
    witness: tuple
    e_fan: Fan
    polarization: tuple
    target: Fan
    ray_map: tuple


def verify_cone_iso(x_fan, v_e):
    """Check X = Cone(E, -E|_E) for the star subdivision at v_e.

    Both sides are computed independently: the right-hand cone from the
    star fan of v_e and the wall-wise restriction of -E, the witness map
    from a dual form of v_e.  Returns a report whose ok field records
    whether the witness carries ray to ray, matching divisors.
    """
    e_fan, coeffs, q_rows, m, v_e = _star_polarization(x_fan, v_e)
    target = cone_over(polarize(e_fan, coeffs))
    witness = [tuple(row) for row in q_rows] + [tuple(-c for c in m)]
    _check(abs(_det(witness)) == 1, "the witness map must be unimodular")
    apex = tuple(vec_dot(row, v_e) for row in witness)
    _check(apex == (0,) * (x_fan.rank - 1) + (1,),
           "the center must map to the height axis")
    ray_map = []
    ok = True
    for u in x_fan.rays:
        image = primitive_vector(tuple(vec_dot(row, u) for row in witness))
        if image in target.rays:
            ray_map.append(target.rays.index(image))
        else:
            ray_map.append(None)
            ok = False
    if len(set(ray_map)) != len(target.rays):
        ok = False
    return ConeIsoReport(ok, tuple(witness), e_fan, coeffs, target,
                         tuple(ray_map))
