"""Adjunction of an invariant log pair along an invariant prime divisor.

Given a pair ``(X, B)`` and a boundary prime ``E`` with coefficient one,
restriction to ``E`` produces: the different (the boundary the pair
induces on ``E``), an orbifold structure on ``E`` read off wall by wall,
and — when a decomposition of ``B`` singles out ``E`` as a weight-one
part — an induced decomposition on ``E`` whose orbifold complexity
never exceeds the one upstairs.

Everything is read off the star fan of ``E``.  Each of its rays is the
image of a two-dimensional cone ("wall") containing the ray of ``E``.
The wall determines a codimension-one point ``Q`` of ``E``, its lattice
index is the Cartier index ``i_Q`` of ``E`` there, and the partner prime
restricts to ``E`` with multiplier ``1 / i_Q`` (proved in
:func:`_checked_star`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .complexity import (
    _ZERO,
    Decomposition,
    Part,
    _self_validate,
    _values,
    decomposition_total,
    validate_decomposition,
)
from .fan import StarFan, is_complete, star_fan
from .lattice import ClaimFailedError, InvalidInputError, _check
from .pairmodel import ToricPair, build_pair


class NotDivisorialCenterError(InvalidInputError):
    """The chosen ray does not carry boundary coefficient one."""


class LcViolationError(ClaimFailedError):
    """Wall data inconsistent with a log canonical source pair.

    No invariant input raises it: each codimension-one point of E lies
    on one invariant prime besides E (see :func:`induced_decomposition`),
    so the configurations it would report cannot occur.  It stays
    exported for callers that catch it with the other adjunction errors.
    """


class HypothesisViolationError(ClaimFailedError):
    """The decomposition does not single out the center as required."""


def _wall_index(u_e, u_p) -> int:
    """gcd of the 2 x 2 minors of the rows u_e, u_p (0 when dependent)."""
    g = 0
    for a in range(len(u_e)):
        for b in range(a + 1, len(u_e)):
            g = gcd(g, u_e[a] * u_p[b] - u_e[b] * u_p[a])
    return g


def _checked_star(fan, ray_e: int) -> StarFan:
    """The star fan of the center, after checking wall by wall that the
    Cartier index i_Q of E along the wall is the wall's lattice index.

    The Cartier index is the smallest k >= 1 with a monomial witness m
    for k E on the wall cone(u_E, u_p): <m, u_E> = -k and <m, u_p> = 0,
    so (-k, 0) lies in the image L of m -> (<m, u_E>, <m, u_p>), which
    is the row lattice of the 2 x n matrix A with rows u_E and u_p.  L
    meets Z x 0 in kZ x 0, and its projection to the second coordinate
    is all of Z, as u_p is primitive.  So [Z^2 : L] = k * 1, and the
    index of L is the gcd of the 2 x 2 minors of A (the product of its
    two Smith invariants).  Dependent rays make every minor 0, and no k
    exists.  :func:`_wall_index` reads that gcd in integers, and it is
    checked against ``star.multiplicity``, the index l that star_fan
    reads off the projection, with no Smith form per wall.

    Let P be the projection N -> N / Z u_E = Z^(n-1) of the star fan and
    P(u_p) = l * w, with w the primitive star ray and l the wall's
    lattice index.  A partner prime D_p restricts to E as
    (gamma / i_Q) Q, where gamma = <mu, lift> for an integral mu with
    mu(u_E) = 0 and mu(u_p) = l, and a lattice point lift with
    P(lift) = w.  gamma is always 1: P maps N onto Z^(n-1) with kernel
    Z u_E, u_E being primitive, and mu vanishes on u_E, so mu = mu' o P
    for an integral mu'.  Then l = mu(u_p) = l * mu'(w) gives
    mu'(w) = 1, and gamma = mu'(P(lift)) = mu'(w) = 1.  So the
    restriction is (1 / i_Q) Q and no wall solves for gamma.
    """
    star = star_fan(fan, ray_e)
    u_e = fan.rays[ray_e]
    for partner in star.partners:
        index = _wall_index(u_e, fan.rays[partner])
        _check(index != 0, "wall rays are linearly independent")
        _check(index == star.multiplicity[partner],
               "the Cartier index is the wall's lattice index")
    return star


def _restrict_coeffs(star: StarFan, coeffs) -> tuple:
    """Restrict an invariant divisor to E: partner p contributes
    coeffs[p] / i_Q at its star ray, the only one it meets.  Zero
    coefficients are skipped, and the center's own is not read."""
    out = [_ZERO] * len(star.fan.rays)
    for p in star.partners:
        c = coeffs[p]
        if c.numerator:
            out[star.partner_star[p]] = Fraction(
                c.numerator, c.denominator * star.multiplicity[p])
    return tuple(out)


def _different_coeffs(pair: ToricPair, star: StarFan):
    """The different's coefficients on the star fan of the center:
    b_p / i_Q + 1 - 1 / i_Q = (b_p + i_Q - 1) / i_Q at the star ray of
    partner p."""
    out = [_ZERO] * len(star.fan.rays)
    for p in star.partners:
        b, i_q = pair.boundary[p], star.multiplicity[p]
        out[star.partner_star[p]] = Fraction(
            b.numerator + (i_q - 1) * b.denominator, b.denominator * i_q)
    return tuple(out)


class AdjunctionResult(NamedTuple):
    """Everything adjunction along the center produces."""

    star: StarFan
    e_pair: ToricPair  # (E, B_E + M_E) in the induced mode
    sigma: Decomposition  # induced decomposition on E
    # With a nonzero nef trace the computed boundary is only a lower
    # bound for the one general adjunction would induce.
    boundary_is_lower_bound: bool = False

    @property
    def boundary(self) -> tuple:
        """B_E on the star fan."""
        return self.e_pair.boundary

    @property
    def orbifold(self) -> tuple:
        """m(Q) per star ray."""
        return self.sigma.orbifold


def normalize_center(dec: Decomposition, ray_e: int) -> Decomposition:
    """Rewrite a decomposition so the center is untwisted with a plain
    coefficient-one part; never increases the orbifold complexity."""
    n_e = dec.orbifold[ray_e]
    if n_e == 1:
        return dec
    orb = list(dec.orbifold)
    orb[ray_e] = 1
    parts = []
    for p in dec.parts:
        if p.coeffs[ray_e].numerator > 0:
            coeffs = list(p.coeffs)
            coeffs[ray_e] = coeffs[ray_e] * n_e
            parts.append(Part(p.weight, tuple(coeffs)))
        else:
            parts.append(p)
    return Decomposition(parts=tuple(parts), orbifold=tuple(orb))


def _induced_mode(pair: ToricPair, star: StarFan):
    """Mode and cone of the pair E inherits from X.

    In local mode the germ's cone sigma maps to the star cone spanned by
    the star rays of the partners in sigma.  Each of them spans a wall
    with the center inside sigma: let j be in sigma and the wall
    cone(u_E, u_j) a face of some maximal cone tau.  The fan is valid,
    so sigma & tau is a face of tau; it contains the wall, so the wall
    is a face of sigma & tau, hence of sigma.
    """
    if pair.mode == "local":
        image = tuple(sorted(star.partner_star[j] for j in pair.cone
                             if j in star.partner_star))
        return "local", image
    if pair.mode == "projective" or is_complete(star.fan):
        return "projective", None
    return "birational", None


def induced_decomposition(pair: ToricPair, dec: Decomposition,
                          ray_e: int) -> AdjunctionResult:
    """Adjunction of a decomposition along a weight-one prime part.

    Requires: boundary coefficient one at the center; the decomposition
    has exactly one part carrying the center, that part is the center
    prime alone with weight one (after :func:`normalize_center`), and
    every other part meets E along some wall.  Produces the induced
    decomposition ``Sigma_E = sum (1 - 1/m_Q) Q + sum b_j B_j|_E`` on
    the pair ``(E, B_E)``.

    Each codimension-one point Q of E is the orbit of one wall
    cone(u_E, u_p), and D_p is the only invariant prime through Q
    besides E (orbit-cone correspondence; Cox-Little-Schenck, Toric
    Varieties, 3.2).  So one marked prime at most meets Q, and
    m(Q) = n_p * i_Q, with n_p the orbifold index of D_p and i_Q the
    Cartier index of E along the wall.  A center that is not an int
    indexing a ray (a bool is not) raises ValueError.

    Sigma_E is valid whenever the input is, so a failed validation of it
    is a library fault (InternalInvariantError).  At the star ray of Q,
    the parts other than the center's carry at most b_p - 1 + 1/n_p on
    D_p, by the budget upstairs, and restrict with multiplier 1/i_Q, so
    Sigma_E's total there is at most
    (1 - 1/(n_p i_Q)) + (b_p - 1 + 1/n_p)/i_Q = (b_p + i_Q - 1)/i_Q,
    the different; the tax fits as 1 - 1/n_p <= b_p; and c/i_Q has a
    denominator dividing n_p i_Q when c's divides n_p.
    """
    validate_decomposition(pair, dec)
    if not isinstance(ray_e, int) or isinstance(ray_e, bool) \
            or not 0 <= ray_e < len(pair.fan.rays):
        raise ValueError(f"the center {ray_e!r} is not a ray index")
    dec = normalize_center(dec, ray_e)
    if pair.boundary[ray_e] != 1:
        raise NotDivisorialCenterError(
            f"ray {ray_e} has boundary coefficient {pair.boundary[ray_e]}, "
            "adjunction needs coefficient one")
    carriers = [j for j, p in enumerate(dec.parts)
                if p.coeffs[ray_e].numerator > 0]
    if len(carriers) != 1:
        raise HypothesisViolationError(
            f"{len(carriers)} parts carry the center; exactly one must")
    center_part = dec.parts[carriers[0]]
    if center_part.weight != 1 or any(
            c.numerator for i, c in enumerate(center_part.coeffs) if i != ray_e
    ) or center_part.coeffs[ray_e] != 1:
        raise HypothesisViolationError(
            "the center part must be the center prime alone with weight one")

    if pair.mode == "local" and ray_e not in pair.cone:
        raise HypothesisViolationError(
            "the center prime does not pass through the germ's point")
    star = _checked_star(pair.fan, ray_e)
    mode, cone = _induced_mode(pair, star)
    visible = set(star.partners)
    if mode == "local":
        visible &= set(pair.cone)
    for j, p in enumerate(dec.parts):
        if j == carriers[0]:
            continue
        if not any(p.coeffs[i].numerator > 0 for i in visible):
            raise HypothesisViolationError(
                f"part {j} does not meet the center divisor along a wall "
                "through the working locus")

    # boundary and nef trace on E
    b_e = _different_coeffs(pair, star)
    m_e = None
    if pair.nef_part is not None:
        m_e = _restrict_coeffs(star, pair.nef_part)
        if not any(x.numerator for x in m_e):
            m_e = None
    e_pair = build_pair(star.fan, b_e, mode=mode, cone=cone, nef_part=m_e)

    # induced orbifold structure and decomposition
    orb = [1] * len(star.fan.rays)
    for p in star.partners:
        orb[star.partner_star[p]] = dec.orbifold[p] * star.multiplicity[p]
    parts = []
    for j, p in enumerate(dec.parts):
        if j == carriers[0]:
            continue
        coeffs = _restrict_coeffs(star, p.coeffs)
        parts.append(Part(p.weight, coeffs))
    sigma = Decomposition(parts=tuple(parts), orbifold=tuple(orb))
    _self_validate(e_pair, sigma, "induced")
    return AdjunctionResult(star=star, e_pair=e_pair, sigma=sigma,
                            boundary_is_lower_bound=pair.nef_part is not None)


class AdjunctionCheck(NamedTuple):
    """Monotonicity verdict for one adjunction instance."""

    result: AdjunctionResult
    value_e: Fraction  # orbifold complexity of Sigma_E on E
    value_x: Fraction  # orbifold complexity of Sigma on X
    monotone: bool  # value_e <= value_x (the claimed inequality)
    equality: bool
    span_full: bool  # span of Sigma_E fills Cl_Q(E)
    sigma_is_boundary: bool  # Sigma_E = B_E as divisors


def check_adjunction(pair: ToricPair, dec: Decomposition,
                     ray_e: int) -> AdjunctionCheck:
    """Run adjunction and compare orbifold complexities on both sides.

    :func:`induced_decomposition` has validated both decompositions, so
    each is evaluated once, from one span.
    """
    res = induced_decomposition(pair, dec, ray_e)
    value_x = _values(pair, dec)[2]
    value_e = _values(res.e_pair, res.sigma)[2]
    # value_e = dim E + span - |Sigma_E|, so the span fills Cl_Q(E)
    # exactly when value_e is dim E + rank Cl_Q(E) - |Sigma_E|
    full = res.e_pair.dim + res.e_pair.class_group.free_rank
    total = decomposition_total(res.sigma)
    return AdjunctionCheck(
        result=res,
        value_e=value_e,
        value_x=value_x,
        monotone=value_e <= value_x,
        equality=value_e == value_x,
        span_full=value_e == full - res.sigma.norm,
        sigma_is_boundary=total == res.e_pair.boundary,
    )
