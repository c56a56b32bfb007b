"""Invariant Q-divisors on a toric variety: class groups, Q-Cartier data,
nef/ample tests and support functions.

A divisor is a tuple of Fractions, one coefficient per fan ray; the divisor
of the ray rho_i is the i-th standard vector.  The class group is the
cokernel of the character lattice mapping m -> (<m, u_rho>)_rho, presented
by its Smith normal form.
"""

from fractions import Fraction
from math import lcm

from .lattice import (
    InvalidInputError,
    cokernel,
    rank_q,
    solve_rational,
    vec_dot,
)
from .fan import locate_max_cone


class NotQCartierError(InvalidInputError):
    def __init__(self, cone_idx):
        self.cone_idx = cone_idx
        super().__init__(f"divisor is not Q-Cartier on maximal cone {cone_idx}")


def as_coeffs(values, nrays):
    coeffs = tuple(Fraction(v) for v in values)
    if len(coeffs) != nrays:
        raise ValueError(f"expected {nrays} coefficients, got {len(coeffs)}")
    return coeffs


def ray_matrix(fan, cone=None):
    """Rays as rows; restricted to a cone's rays (in cone order) if given."""
    idx = cone if cone is not None else range(len(fan.rays))
    return [list(fan.rays[i]) for i in idx]


def class_group(fan):
    """Presentation of the divisor class group Z^rays / M."""
    return cokernel(ray_matrix(fan))


def local_class_group(fan, cone):
    """Class group of the affine germ at the cone's distinguished point.

    Only the rays of the cone carry divisors through the point; the
    presentation's coordinates follow the cone's ray order.
    """
    return cokernel(ray_matrix(fan, cone))


def q_span_dim(pres, divisors):
    """Dimension over Q of the span of the divisor classes in Cl tensor Q.

    The class of a divisor is the sum of c_k times the k-th column of
    the free map over its non-zero coefficients c_k.  Scaled by the lcm
    of their denominators it is one integer row with the same span, so
    zero coefficients cost nothing and no Fraction is formed.
    """
    if not pres.free_map:
        return 0
    columns = list(zip(*pres.free_map))
    rows = []
    for d in divisors:
        support = [(k, c) for k, c in enumerate(d) if c]
        if not support:
            continue
        den = lcm(*(c.denominator for _, c in support))
        row = [0] * len(pres.free_map)
        for k, c in support:
            m = c.numerator * (den // c.denominator)
            row = [a + m * b for a, b in zip(row, columns[k])]
        rows.append(row)
    return rank_q(rows)


def canonical_coeffs(fan):
    """The invariant canonical divisor: coefficient -1 at every ray."""
    return tuple(Fraction(-1) for _ in fan.rays)


def cartier_data(fan, coeffs):
    """Per-maximal-cone linear data of a Q-Cartier divisor.

    Returns a list of rational vectors m_sigma with <m_sigma, u_rho> =
    -coeff_rho for every ray of sigma.

    Raises:
        NotQCartierError: on the first cone where no such m exists.
    """
    out = []
    for ci, cone in enumerate(fan.max_cones):
        m = solve_rational(ray_matrix(fan, cone), [-coeffs[i] for i in cone])
        if m is None:
            raise NotQCartierError(ci)
        out.append(m)
    return out


def support_value(fan, coeffs, v):
    """Value at v of the support function of a divisor that is Q-Cartier
    on the maximal cone containing v.

    The support function is linear on each cone with value -coeff_rho at
    u_rho.  v must lie in the support of the fan.  Only the first
    maximal cone containing v is solved: NotQCartierError names it when
    the divisor has no linear data there.
    """
    ci = locate_max_cone(fan, v)
    if ci is None:
        raise ValueError(f"{tuple(v)} is not in the support of the fan")
    cone = fan.max_cones[ci]
    m = solve_rational(ray_matrix(fan, cone), [-coeffs[i] for i in cone])
    if m is None:
        raise NotQCartierError(ci)
    return sum(x * y for x, y in zip(m, v))


def is_nef(fan, coeffs):
    """Nef test (relative over the affine base for non-complete fans):
    the support function of the divisor is convex across every wall.

    Raises NotQCartierError when the divisor is not Q-Cartier.
    """
    data = cartier_data(fan, coeffs)
    for m in data:
        for i, u in enumerate(fan.rays):
            if vec_dot(m, u) < -coeffs[i]:
                return False
    return True


def is_ample(fan, coeffs):
    """Strict convexity: nef and the linear data of distinct maximal cones
    differ on every ray outside the cone.  On a complete fan this is
    ampleness; on a fan over an affine base it is relative ampleness."""
    data = cartier_data(fan, coeffs)
    for ci, cone in enumerate(fan.max_cones):
        m = data[ci]
        for i, u in enumerate(fan.rays):
            val = vec_dot(m, u)
            if i in cone:
                continue
            if val <= -coeffs[i]:
                return False
    return True
