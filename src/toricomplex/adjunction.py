"""Adjunction of an invariant log pair along an invariant prime divisor.

Given a pair ``(X, B)`` and a boundary prime ``E`` with coefficient one,
restriction to ``E`` produces: the different (the boundary the pair
induces on ``E``), an orbifold structure on ``E`` read off wall by wall,
and — when a decomposition of ``B`` singles out ``E`` as a weight-one
part — an induced decomposition on ``E`` whose orbifold complexity
never exceeds the one upstairs.

Everything is computed from two-dimensional cones ("walls") containing
the ray of ``E``: each wall carries the codimension-one point ``Q`` of
``E`` it determines and the Cartier index ``i_Q`` of ``E`` there; the
partner prime restricts to ``E`` with multiplier ``1 / i_Q`` (proved in
:func:`wall_ledger`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexity import (
    Decomposition,
    Part,
    _values,
    decomposition_total,
    validate_decomposition,
)
from .fan import StarFan, is_complete, star_fan, wall_partners
from .lattice import ToricomplexError, _check, cartier_scale
from .pairmodel import ToricPair, build_pair, pair_class_group


class NotDivisorialCenterError(ToricomplexError):
    """The chosen ray does not carry boundary coefficient one."""


class LcViolationError(ToricomplexError):
    """Wall data inconsistent with a log canonical source pair."""


class HypothesisViolationError(ToricomplexError):
    """The decomposition does not single out the center as required."""


@dataclass(frozen=True)
class WallData:
    """Exact restriction data of one wall through the center ray."""

    partner: int  # source-fan ray index
    star_ray: int  # ray index on the star fan
    index: int  # i_Q: Cartier index of E along the wall
    orb_index: int  # m(Q): induced orbifold index
    case: str  # "plain" | "a" | "b"


def classify_wall(i_q: int, partner_indices) -> tuple:
    """Induced orbifold index at a wall point from the upstream indices.

    partner_indices lists the orbifold indices (> 1) of the marked
    primes cutting the point.  Returns (m, in_s, case): no marked prime
    gives m = i_Q, one gives m = n * i_Q, and the separate two-prime
    configuration forces indices (2, 2) with m = 1.  Anything else is
    impossible over a log canonical pair and raises LcViolationError.
    """
    marked = sorted(n for n in partner_indices if n > 1)
    if not marked:
        return i_q, False, "plain"
    if len(marked) == 1:
        return marked[0] * i_q, False, "a"
    if marked == [2, 2]:
        return 1, True, "b"
    raise LcViolationError(
        f"{len(marked)} marked primes with indices {marked} meet one "
        "codimension-one point; a log canonical pair allows at most "
        "one, or exactly two with index (2, 2)")


def wall_ledger(pair: ToricPair, ray_e: int, orbifold=None):
    """The star fan of the center with per-wall restriction data.

    orbifold: per-ray indices of the source (defaults to all 1).  The
    center itself must be unmarked; normalize first if it is not.

    Let P = star.proj and P(u_p) = l * w, with w the primitive star ray
    and l the wall's lattice index.  A partner prime D_p restricts to E
    as (gamma / i_Q) Q, where gamma = <mu, lift> for an integral mu with
    mu(u_E) = 0 and mu(u_p) = l, and a lattice point lift with
    P(lift) = w.  gamma is always 1: P maps N onto Z^(n-1) with kernel
    Z u_E, u_E being primitive, and mu vanishes on u_E, so mu = mu' o P
    for an integral mu'.  Then l = mu(u_p) = l * mu'(w) gives
    mu'(w) = 1, and gamma = mu'(P(lift)) = mu'(w) = 1.  So the
    restriction is (1 / i_Q) Q and no wall solves for gamma.
    """
    fan = pair.fan
    if orbifold is None:
        orbifold = (1,) * len(fan.rays)
    if orbifold[ray_e] != 1:
        raise HypothesisViolationError(
            "the center ray carries an orbifold index > 1; rewrite the "
            "decomposition with normalize_center first")
    star = star_fan(fan, ray_e)
    u_e = list(fan.rays[ray_e])
    walls = []
    for partner in star.partners:
        u_p = list(fan.rays[partner])
        ell = star.multiplicity[partner]
        # Cartier index of E along the wall: smallest k with a monomial
        # witness for k*E on the two-dimensional cone
        scaled = cartier_scale([u_e, u_p], [-1, 0])
        _check(scaled is not None, "wall rays are linearly independent")
        i_q, _ = scaled
        _check(i_q == ell, "the Cartier index is the wall's lattice index")
        m_q, in_s, case = classify_wall(i_q, [orbifold[partner]])
        walls.append(WallData(partner=partner,
                              star_ray=star.partner_star[partner],
                              index=i_q, orb_index=m_q, case=case))
    return star, walls


def _restrict_coeffs(star: StarFan, walls, coeffs) -> tuple:
    """Restrict an invariant divisor without center component to E."""
    out = [Fraction(0)] * len(star.fan.rays)
    for w in walls:
        out[w.star_ray] += Fraction(coeffs[w.partner], w.index)
    return tuple(out)


def _different_coeffs(pair: ToricPair, ray_e: int, star: StarFan, walls):
    """The different's coefficients from a wall ledger of the center.

    Reads only each wall's partner, star ray and index, which do not
    depend on the orbifold the ledger was built with.
    """
    rest = list(pair.boundary)
    rest[ray_e] = Fraction(0)
    coeffs = list(_restrict_coeffs(star, walls, rest))
    for w in walls:
        coeffs[w.star_ray] += 1 - Fraction(1, w.index)
    return tuple(coeffs)


@dataclass(frozen=True)
class AdjunctionResult:
    """Everything adjunction along the center produces."""

    star: StarFan
    walls: tuple
    e_pair: ToricPair  # (E, B_E + M_E) in the induced mode
    boundary: tuple  # B_E on the star fan
    orbifold: tuple  # m(Q) per star ray
    sigma: Decomposition  # induced decomposition on E
    s_rays: tuple  # star rays in the exceptional two-prime set
    # With a nonzero nef trace the computed boundary is only a lower
    # bound for the one general adjunction would induce.
    boundary_is_lower_bound: bool = False


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
        if p.coeffs[ray_e] > 0:
            coeffs = list(p.coeffs)
            coeffs[ray_e] = coeffs[ray_e] * n_e
            parts.append(Part(p.weight, tuple(coeffs)))
        else:
            parts.append(p)
    return Decomposition(parts=tuple(parts), orbifold=tuple(orb))


def _induced_mode(pair: ToricPair, star: StarFan):
    """Mode and cone of the pair E inherits from X.

    In local mode the germ's cone maps to the star cone spanned by the
    partners sharing a two-dimensional face with the center inside it.
    """
    if pair.mode == "local":
        ci = pair.fan.max_cones.index(pair.cone)
        members = wall_partners(pair.fan, ci, star.center)
        image = tuple(sorted(star.partner_star[j] for j in members))
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
    the pair ``(E, B_E)``.  A center that is not an int indexing a ray
    (a bool is not) raises ValueError.
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
    carriers = [j for j, p in enumerate(dec.parts) if p.coeffs[ray_e] > 0]
    if len(carriers) != 1:
        raise HypothesisViolationError(
            f"{len(carriers)} parts carry the center; exactly one must")
    center_part = dec.parts[carriers[0]]
    if center_part.weight != 1 or any(
            c != 0 for i, c in enumerate(center_part.coeffs) if i != ray_e
    ) or center_part.coeffs[ray_e] != 1:
        raise HypothesisViolationError(
            "the center part must be the center prime alone with weight one")

    if pair.mode == "local" and ray_e not in pair.cone:
        raise HypothesisViolationError(
            "the center prime does not pass through the germ's point")
    star, walls = wall_ledger(pair, ray_e, dec.orbifold)
    mode, cone = _induced_mode(pair, star)
    if mode == "local":
        visible = {w.partner for w in walls if w.star_ray in cone}
    else:
        visible = {w.partner for w in walls}
    for j, p in enumerate(dec.parts):
        if j == carriers[0]:
            continue
        if not any(p.coeffs[i] > 0 for i in visible):
            raise HypothesisViolationError(
                f"part {j} does not meet the center divisor along a wall "
                "through the working locus")

    # boundary and nef trace on E
    b_e = _different_coeffs(pair, ray_e, star, walls)
    m_e = None
    if pair.nef_part is not None:
        m_e = _restrict_coeffs(star, walls, pair.nef_part)
        if all(x == 0 for x in m_e):
            m_e = None
    e_pair = build_pair(star.fan, b_e, mode=mode, cone=cone, nef_part=m_e)

    # induced orbifold structure and decomposition
    orb = [1] * len(star.fan.rays)
    s_rays = []
    for w in walls:
        orb[w.star_ray] = w.orb_index
        if w.case == "b":
            s_rays.append(w.star_ray)
    parts = []
    for j, p in enumerate(dec.parts):
        if j == carriers[0]:
            continue
        coeffs = _restrict_coeffs(star, walls, p.coeffs)
        parts.append(Part(p.weight, coeffs))
    sigma = Decomposition(parts=tuple(parts), orbifold=tuple(orb))
    validate_decomposition(e_pair, sigma)
    return AdjunctionResult(star=star, walls=tuple(walls), e_pair=e_pair,
                            boundary=b_e, orbifold=tuple(orb), sigma=sigma,
                            s_rays=tuple(s_rays),
                            boundary_is_lower_bound=pair.nef_part is not None)


@dataclass(frozen=True)
class AdjunctionCheck:
    """Monotonicity verdict for one adjunction instance."""

    result: AdjunctionResult
    value_e: Fraction  # orbifold complexity of Sigma_E on E
    value_x: Fraction  # orbifold complexity of Sigma on X
    monotone: bool  # value_e <= value_x (the claimed inequality)
    equality: bool
    span_full: bool  # span of Sigma_E fills Cl_Q(E)
    s_empty: bool
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
    full = res.e_pair.dim + pair_class_group(res.e_pair).free_rank
    total = decomposition_total(res.sigma)
    return AdjunctionCheck(
        result=res,
        value_e=value_e,
        value_x=value_x,
        monotone=value_e <= value_x,
        equality=value_e == value_x,
        span_full=value_e == full - res.sigma.norm,
        s_empty=not res.s_rays,
        sigma_is_boundary=total == res.e_pair.boundary,
    )
