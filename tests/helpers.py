"""Small functions that only the tests call, kept out of the library.

They check results of the library (a matrix product, the order of a
class, a Cartier index, the cones of one dimension, smoothness) and are
built from its public pieces.
"""

from fractions import Fraction
from math import gcd

from toricomplex.divisor import NotQCartierError, ray_matrix
from toricomplex.fan import cone_dim, cone_multiplicity, is_simplicial_cone
from toricomplex.lattice import cartier_scale


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
    """Class in Cl tensor Q (free coordinates only)."""
    return pres.q_class_of(list(coeffs))


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


def cones_of_dim(fan, d):
    """All d-dimensional cones of the fan, as sorted ray-index tuples."""
    return sorted({tuple(sorted(f)) for faces in fan.faces for f in faces
                   if f and cone_dim(fan, f) == d})


def is_smooth(fan):
    return all(is_simplicial_cone(fan, c) and cone_multiplicity(fan, c) == 1
               for c in fan.max_cones)
