"""Small functions that only the tests call, kept out of the library.

They check results of the library (a matrix product, a fan's rays as
rows, the order of a class, a Cartier index, Q-Cartier and principal
divisors, the face lattice of a cone and of a fan, the cones of one
dimension, cone multiplicities, smoothness, the different, a wall's
restriction multiplier, an integral solve) and are built from its
public pieces;
the Cartier index and the integral solve go through ``cartier_scale``,
the Smith-form solve kept in ``bruteforce``.
"""

from fractions import Fraction
from math import gcd, lcm

from toricomplex.adjunction import (NotDivisorialCenterError,
                                    _checked_star, _different_coeffs)
from toricomplex.divisor import NotQCartierError, cartier_data
from toricomplex.fan import cone_dim, is_simplicial_cone
from toricomplex.lattice import snf, solve_rational, vec_dot

from bruteforce import cartier_scale


def ray_matrix(fan, cone=None):
    """Rays as rows; restricted to a cone's rays (in cone order) if given."""
    idx = cone if cone is not None else range(len(fan.rays))
    return [list(fan.rays[i]) for i in idx]


def solve_integral(a, b):
    """One integer solution x of a x = b, or None."""
    res = cartier_scale(a, b)
    if res is None:
        return None
    k, x = res
    return x if k == 1 else None


def mat_mul(a, b):
    nr, nm, nc = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * nc for _ in range(nr)]
    for i in range(nr):
        for k in range(nm):
            if a[i][k]:
                for j in range(nc):
                    out[i][j] += a[i][k] * b[k][j]
    return out


def order_of_class(pres, v):
    """Order of the class of v in a presentation (0 means infinite)."""
    free, tors = pres.class_of(v)
    if any(free):
        return 0
    k = 1
    for t, d in zip(tors, pres.torsion):
        if t:
            step = d // gcd(t, d)
            k = k * step // gcd(k, step)
    return k


def divisor_class(pres, coeffs):
    """Integral class (free, torsion) of an integer divisor."""
    v = [int(c) for c in coeffs]
    if any(Fraction(c) != iv for c, iv in zip(coeffs, v)):
        raise ValueError("integral class requires integer coefficients")
    return pres.class_of(v)


def q_class(pres, coeffs):
    """Class in Cl tensor Q (free coordinates only; torsion dies over Q)."""
    v = [Fraction(x) for x in coeffs]
    den = lcm(*(x.denominator for x in v))
    w = [(x * den).numerator for x in v]
    return tuple(Fraction(vec_dot(row, w), den) for row in pres.free_map)


def cartier_index(fan, coeffs):
    """Smallest k >= 1 such that k * divisor is Cartier.

    Raises NotQCartierError if no multiple is Cartier.
    """
    k_total = 1
    for ci, cone in enumerate(fan.max_cones):
        denom = 1
        for i in cone:
            d = coeffs[i].denominator
            denom = denom * d // gcd(denom, d)
        a = ray_matrix(fan, cone)
        b = [int(-coeffs[i] * denom) for i in cone]
        res = cartier_scale(a, b)
        if res is None:
            raise NotQCartierError(ci)
        k_cone = res[0] * denom
        k_total = k_total * k_cone // gcd(k_total, k_cone)
    return k_total


def is_q_cartier(fan, coeffs):
    try:
        cartier_data(fan, coeffs)
        return True
    except NotQCartierError:
        return False


def principal_witness(fan, coeffs):
    """Rational m with div(chi^m) = divisor (i.e. <m, u_rho> = coeff_rho for
    every ray), or None when the divisor is not principal over Q."""
    return solve_rational(ray_matrix(fan), list(coeffs))


def is_q_principal(fan, coeffs):
    return principal_witness(fan, coeffs) is not None


def faces_of_cone(gens, hform):
    """All faces of a pointed cone as frozensets of generator indices.

    gens must be the extremal rays of the cone (no redundant generators);
    hform is the cone's H-form (see cone_hform).  A face is the
    intersection of the facets containing it, so the faces are the
    cone itself, the intersections of facets and, for pointed cones,
    the empty face.
    """
    idx_all = frozenset(range(len(gens)))
    if not gens:
        return [idx_all]
    _, ineqs = hform
    faces = {idx_all}
    frontier = {idx_all}
    facet_sets = [frozenset(i for i in idx_all if vec_dot(phi, gens[i]) == 0)
                  for phi in ineqs]
    while frontier:
        nxt = set()
        for f in frontier:
            for fs in facet_sets:
                g = f & fs
                if g not in faces:
                    faces.add(g)
                    nxt.add(g)
        frontier = nxt
    faces.add(frozenset())
    return sorted(faces, key=lambda f: (len(f), sorted(f)))


def fan_faces(fan):
    """Faces of each maximal cone as frozensets of global ray indices."""
    return tuple(tuple(frozenset(cone[i] for i in f)
                       for f in faces_of_cone(fan.cone_rays(cone), hform))
                 for cone, hform in zip(fan.max_cones, fan.hforms))


def face_lattice_partners(fan, ci, ray_idx):
    """wall_partners read off the face lattice: the rays sharing a face
    with exactly two rays with ray_idx in max cone ci."""
    return {j for f in fan_faces(fan)[ci] if len(f) == 2 and ray_idx in f
            for j in f} - {ray_idx}


def cones_of_dim(fan, d):
    """All d-dimensional cones of the fan, as sorted ray-index tuples."""
    return sorted({tuple(sorted(f)) for faces in fan_faces(fan) for f in faces
                   if f and cone_dim(fan, f) == d})


def cone_multiplicity(fan, cone):
    """Index of the sublattice spanned by the cone's rays in the saturated
    lattice of its span (1 iff the cone is smooth).  Simplicial cones only."""
    if not is_simplicial_cone(fan, cone):
        raise ValueError("multiplicity is defined for simplicial cones")
    if not cone:
        return 1
    s = snf([list(fan.rays[i]) for i in cone])
    out = 1
    for d in s.invariants:
        out *= d
    return out


def is_smooth(fan):
    return all(is_simplicial_cone(fan, c) and cone_multiplicity(fan, c) == 1
               for c in fan.max_cones)


def different(pair, ray_e):
    """The boundary induced on E by (X, B): per-wall coefficients
    ``1 - 1/i_Q + coeff_partner(B - E) / i_Q``.

    Returns (coefficients on the star fan, star).
    """
    if pair.boundary[ray_e] != 1:
        raise NotDivisorialCenterError(
            f"ray {ray_e} has boundary coefficient {pair.boundary[ray_e]}, "
            "adjunction needs coefficient one")
    star = _checked_star(pair.fan, ray_e)
    return _different_coeffs(pair, star), star


def wall_gamma(fan, star, partner):
    """Restriction numerator gamma of the wall of a partner by two
    integral solves: the functional mu vanishing on the center ray with
    mu(u_p) = l, the wall's lattice index, evaluated on a lattice lift
    of the partner's primitive star ray through the projection
    N -> N / Z u_center that star_fan takes, recomputed from the same
    Smith form.  adjunction._checked_star proves it is always 1.
    """
    u_e = list(fan.rays[star.center])
    u_p = list(fan.rays[partner])
    mu = solve_integral([u_e, u_p], [0, star.multiplicity[partner]])
    # left * u_e = e_1 for this Smith form, so rows 1.. of left realize
    # N -> N / Z u_e
    proj = snf([[x] for x in u_e]).left[1:]
    w = star.fan.rays[star.partner_star[partner]]
    lift = solve_integral(proj, list(w))
    return vec_dot(mu, lift)
