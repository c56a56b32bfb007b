"""Complexity checkers for toric birational surgeries.

Three kinds of surgery between fans are supported, each as data the
caller supplies rather than something we search for:

* contraction -- one ray is removed and the cones coarsen (a divisorial
  contraction of the invariant prime divisor at that ray);
* small modification -- the rays are kept and only the maximal cones
  change (an isomorphism in codimension one);
* extraction -- star subdivisions insert new rays whose valuations have
  log discrepancy zero (a crepant divisorial extraction).

For each kind there is a checker that transports a decomposition across
the surgery and verifies how the three complexity measures move:
contractions never increase them and are exact in a controlled way,
small modifications preserve all of them, extractions never increase
the plain and fine measures.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .lattice import (
    ClaimFailedError,
    InvalidInputError,
    _check,
    cone_intersection,
    in_hform,
    is_primitive,
    primitive_vector,
    vec_dot,
)
from .fan import (Fan, as_int, is_complete, is_simplicial, require_valid,
                  star_subdivision)
from .divisor import NotQCartierError, support_value
from .complexity import (
    Decomposition,
    NotLogCanonicalError,
    complexity_values,
    decomposition_total,
    make_decomposition,
)
from .pairmodel import (
    ToricPair,
    build_pair,
    is_log_canonical,
    is_log_cy,
    log_canonical_coeffs,
)

__all__ = [
    "SurgeryMismatchError",
    "SurgeryPreconditionError",
    "NotLcPlaceError",
    "CrepancyError",
    "FanSurgery",
    "contraction",
    "small_modification",
    "extraction",
    "log_discrepancy",
    "pushforward",
    "ContractionReport",
    "SmallModificationReport",
    "ExtractionReport",
    "check_contraction",
    "check_small",
    "check_extraction",
]


class SurgeryMismatchError(InvalidInputError):
    """Source and target fans do not fit the claimed surgery."""


class SurgeryPreconditionError(ClaimFailedError):
    """The pair fails a hypothesis of the statement being checked."""


class NotLcPlaceError(ClaimFailedError):
    """A subdivision vector whose log discrepancy is not zero."""

    def __init__(self, vector, discrepancy):
        self.vector = tuple(vector)
        self.discrepancy = discrepancy
        super().__init__(
            f"valuation at {self.vector} has log discrepancy {discrepancy}")


class CrepancyError(ClaimFailedError):
    """The surgery is not trivial for the log divisor."""


class FanSurgery(NamedTuple):
    """A fan-level birational surgery with its ray correspondence.

    ray_map[i] is the target index of source ray i, or None when the
    ray has no image divisor (it is contracted / exceptional).
    new_rays lists the source indices with ray_map None.
    """

    kind: str
    source: Fan
    target: Fan
    ray_map: tuple
    new_rays: tuple


def _match_rays(rays):
    return {u: i for i, u in enumerate(rays)}


def contraction(source: Fan, target: Fan, ray_e: int) -> FanSurgery:
    """Divisorial contraction removing source ray ``ray_e``.

    Validates that the target rays are exactly the source rays minus the
    contracted one and that every source cone lands inside a target cone.
    """
    require_valid(source)
    require_valid(target)
    if not 0 <= ray_e < len(source.rays):
        raise SurgeryMismatchError(f"no source ray {ray_e}")
    where = _match_rays(target.rays)
    if len(target.rays) != len(source.rays) - 1:
        raise SurgeryMismatchError(
            "a contraction removes exactly one ray "
            f"({len(source.rays)} -> {len(target.rays)})")
    if source.rays[ray_e] in where:
        raise SurgeryMismatchError("the contracted ray persists in the target")
    ray_map = []
    for i, u in enumerate(source.rays):
        if i == ray_e:
            ray_map.append(None)
            continue
        if u not in where:
            raise SurgeryMismatchError(f"source ray {u} is missing downstairs")
        ray_map.append(where[u])
    for cone in source.max_cones:
        gens = source.cone_rays(cone)
        if not any(all(in_hform(h, u) for u in gens) for h in target.hforms):
            raise SurgeryMismatchError(
                f"source cone {cone} is not contained in any target cone")
    return FanSurgery("contraction", source, target, tuple(ray_map), (ray_e,))


def small_modification(source: Fan, target: Fan) -> FanSurgery:
    """Isomorphism in codimension one: same rays, re-assembled cones."""
    require_valid(source)
    require_valid(target)
    where = _match_rays(target.rays)
    if len(target.rays) != len(source.rays) or len(where) != len(source.rays):
        raise SurgeryMismatchError("a small modification keeps the ray set")
    ray_map = []
    for u in source.rays:
        if u not in where:
            raise SurgeryMismatchError(f"source ray {u} is missing downstairs")
        ray_map.append(where[u])
    if is_complete(source) != is_complete(target):
        raise SurgeryMismatchError(
            "one side is complete and the other is not")
    # every source generator is a target ray, and require_valid(target)
    # rejects a ray in no maximal cone, so each lies in the target support
    return FanSurgery("small", source, target, tuple(ray_map), ())


def extraction(target: Fan, vectors) -> FanSurgery:
    """Iterated star subdivision of ``target`` at the given vectors.

    The source fan gains one ray per vector, appended after the existing
    rays; it must come out simplicial (the extracted model is required
    to be Q-factorial).
    """
    require_valid(target)
    fan = target
    for v in vectors:
        v = tuple(as_int(x, "an extraction vector entry") for x in v)
        if not any(v):
            raise SurgeryMismatchError("cannot extract the origin")
        v = primitive_vector(v)
        if v in fan.rays:
            raise SurgeryMismatchError(
                f"{v} is already a ray; there is nothing to extract")
        try:
            fan = star_subdivision(fan, v)
        except ValueError as exc:
            raise SurgeryMismatchError(str(exc)) from exc
    n_old = len(target.rays)
    n_new = len(fan.rays) - n_old
    if n_new == 0:
        raise SurgeryMismatchError("an extraction needs at least one vector")
    if not is_simplicial(fan):
        raise SurgeryPreconditionError("the extracted model is not simplicial")
    ray_map = tuple(range(n_old)) + (None,) * n_new
    return FanSurgery("extraction", fan, target,
                      ray_map, tuple(range(n_old, n_old + n_new)))


def log_discrepancy(pair: ToricPair, v) -> Fraction:
    """Log discrepancy of the invariant valuation at primitive ``v``.

    Computed as the value at ``v`` of the support function of
    ``K + B + M``, solved on the first maximal cone containing ``v``
    only; raises NotQCartierError when that divisor has no linear data
    on that cone, whatever it does on the other cones.
    """
    v = tuple(as_int(x, "a valuation vector entry") for x in v)
    if not is_primitive(v):
        raise ValueError(f"{v} is not a primitive vector")
    return support_value(pair.fan, log_canonical_coeffs(pair), v)


def pushforward(surgery: FanSurgery, dec: Decomposition):
    """Transport a decomposition along the surgery's ray correspondence.

    Returns ``(pushed, dropped_norm)``, where dropped_norm is the total
    weight of the parts whose support consists of contracted rays only.
    """
    parts, dropped = [], Fraction(0)
    for part in dec.parts:
        coeffs = _transport_coeffs(surgery, part.coeffs)
        if any(coeffs):
            parts.append((part.weight, coeffs))
        else:
            dropped += part.weight
    orbifold = _transport_coeffs(surgery, dec.orbifold, fill=1)
    pushed = make_decomposition(len(surgery.target.rays), parts, orbifold)
    return pushed, dropped


def _transport_coeffs(surgery, coeffs, fill=Fraction(0)):
    """Per-ray data moved to the target's rays; ``fill`` where none lands."""
    out = [fill] * len(surgery.target.rays)
    for i, c in enumerate(coeffs):
        t = surgery.ray_map[i]
        if t is not None:
            out[t] = c
    return out


def _single_cone_germ(pair):
    return pair.mode == "local" and pair.fan.max_cones == (pair.cone,)


def _target_pair(pair: ToricPair, surgery: FanSurgery) -> ToricPair:
    """The pair carried to the surgery's target fan.

    A projective pair stays projective; any other pair becomes a
    birational-mode pair, unless the target is the pair's own fan.
    """
    if pair.mode != "projective" and surgery.target == pair.fan:
        return pair
    boundary = _transport_coeffs(surgery, pair.boundary)
    nef = (_transport_coeffs(surgery, pair.nef_part)
           if pair.nef_part is not None else None)
    mode = "projective" if pair.mode == "projective" else "birational"
    return build_pair(surgery.target, boundary, mode=mode, nef_part=nef)


def _crepancy_witness(source, target, data_s, data_t):
    """Cone pair where the two support functions differ, or None.

    data_s and data_t list the linear data of the source's and the
    target's maximal cones, in order, as divisor.cartier_data does.  For
    each pair of maximal cones, the difference of the two linear data
    is tested on the extremal rays of their intersection: the source cone
    is pointed, so the intersection is too, and a linear form vanishes on
    it exactly when it vanishes on its extremal rays.
    """
    rank = source.rank
    for si, hs in enumerate(source.hforms):
        for ti, ht in enumerate(target.hforms):
            d = [a - b for a, b in zip(data_s[si], data_t[ti])]
            if any(d) and any(vec_dot(d, r)
                              for r in cone_intersection(hs, ht, rank)):
                return (si, ti)
    return None


class ContractionReport(NamedTuple):
    surgery: FanSurgery
    target_pair: ToricPair
    pushed: Decomposition
    values_source: tuple
    values_target: tuple
    dropped_norm: Fraction
    e_total_coefficient: Fraction
    equality_plain: bool
    criterion: bool  # the parts supported on E alone carry weight one
    e_is_glc_place: bool

    @property
    def ok(self):
        return self.equality_plain == self.criterion


def check_contraction(pair: ToricPair, surgery: FanSurgery,
                      dec: Decomposition) -> ContractionReport:
    """Transport ``dec`` across a divisorial contraction and compare.

    Verifies the exact drop identity value' = value - 1 + w where w is
    the weight of the parts supported on the contracted divisor alone,
    hence the monotonicity value' <= value and the equality criterion
    w = 1.  The input pair must be log canonical and log Calabi-Yau in
    its mode, and the same must hold downstairs.
    """
    if surgery.kind != "contraction":
        raise SurgeryMismatchError(f"not a contraction: {surgery.kind}")
    if pair.fan != surgery.source:
        raise SurgeryMismatchError("the pair does not live on the source fan")
    if pair.mode == "local":
        raise SurgeryMismatchError(
            "a germ is its own base; model a germ contraction with a "
            "birational-mode pair on the subdivided fan")
    vx = complexity_values(pair, dec)
    if not is_log_canonical(pair):
        raise NotLogCanonicalError("the source pair is not log canonical")
    if not is_log_cy(pair):
        raise SurgeryPreconditionError(
            "the source log divisor is not trivial in its mode")
    target_pair = _target_pair(pair, surgery)
    if not is_log_canonical(target_pair):
        raise NotLogCanonicalError("the contracted pair is not log canonical")
    if not is_log_cy(target_pair):
        raise SurgeryPreconditionError(
            "the contracted log divisor is not trivial in its mode")

    e = surgery.new_rays[0]
    u_e = surgery.source.rays[e]
    a_e = log_discrepancy(target_pair, u_e)
    expected = -log_canonical_coeffs(pair)[e]
    if a_e != expected:
        raise CrepancyError(
            f"the contraction is not crepant at ray {e}: "
            f"discrepancy {a_e} downstairs, {expected} upstairs")

    pushed, dropped = pushforward(surgery, dec)
    vy = complexity_values(target_pair, pushed)
    for x, y in zip(vx, vy):
        if x is not None:
            _check(y <= x, "a contraction increased a complexity")
            if dropped > 0:
                # one span dimension dies with the contracted class
                _check(y == x - 1 + dropped,
                       "a contraction broke the drop identity")
            else:
                _check(y in (x, x - 1),
                       "a contraction dropped a complexity by more than one")
    if vx[0] is not None:
        # the full class-group rank always drops by exactly one
        _check(vy[0] == vx[0] - 1 + dropped,
               "the class-group rank did not drop by exactly one")

    equality = vy[-1] == vx[-1] if vx[0] is None else vy[0] == vx[0]
    return ContractionReport(
        surgery=surgery,
        target_pair=target_pair,
        pushed=pushed,
        values_source=vx,
        values_target=vy,
        dropped_norm=dropped,
        e_total_coefficient=decomposition_total(dec)[e],
        equality_plain=equality,
        criterion=dropped == 1,
        e_is_glc_place=a_e == 0,
    )


class SmallModificationReport(NamedTuple):
    surgery: FanSurgery
    target_pair: ToricPair
    pushed: Decomposition
    values_source: tuple
    values_target: tuple

    # check_small raises InternalInvariantError before it would build a
    # report whose values differ, so every report it returns holds
    ok = True


def check_small(pair: ToricPair, surgery: FanSurgery,
                dec: Decomposition) -> SmallModificationReport:
    """Transport ``dec`` across an isomorphism in codimension one.

    The surgery must be trivial for ``K + B + M`` (support functions
    agree on every overlap of maximal cones, checked on the extremal rays
    of each overlap), and then all three complexity measures agree on the
    nose.
    """
    if surgery.kind != "small":
        raise SurgeryMismatchError(f"not a small modification: {surgery.kind}")
    if pair.fan != surgery.source:
        raise SurgeryMismatchError("the pair does not live on the source fan")
    if pair.mode == "local" and not _single_cone_germ(pair):
        raise SurgeryMismatchError(
            "only a single-cone germ can be modified as a whole")
    vx = complexity_values(pair, dec)
    if not is_log_canonical(pair):
        raise NotLogCanonicalError("the source pair is not log canonical")

    target_pair = _target_pair(pair, surgery)

    # the source's data exists on every cone, as the pair is log canonical
    data_t = target_pair.log_linear_data
    for ci, m in enumerate(data_t):
        if m is None:
            raise NotQCartierError(ci)
    witness = _crepancy_witness(surgery.source, surgery.target,
                                pair.log_linear_data, data_t)
    if witness is not None:
        raise CrepancyError(
            "the log divisor's support functions disagree between source "
            f"cone {witness[0]} and target cone {witness[1]}")

    pushed, dropped = pushforward(surgery, dec)
    _check(dropped == 0, "a small modification dropped a part")
    vy = complexity_values(target_pair, pushed)
    for x, y in zip(vx, vy):
        if x is not None:
            _check(x == y, "a small modification changed a complexity")
    return SmallModificationReport(
        surgery=surgery,
        target_pair=target_pair,
        pushed=pushed,
        values_source=vx,
        values_target=vy,
    )


class ExtractionReport(NamedTuple):
    surgery: FanSurgery
    source_pair: ToricPair  # the extracted model
    lifted: Decomposition
    discrepancies: tuple
    values_source: tuple  # on the extracted model
    values_target: tuple  # on the input pair

    # check_extraction raises InternalInvariantError before it would
    # build a report where a value increased, so every report it returns
    # holds
    ok = True


def check_extraction(pair: ToricPair, surgery: FanSurgery,
                     dec: Decomposition) -> ExtractionReport:
    """Lift ``dec`` to a crepant divisorial extraction and compare.

    Every subdivision vector must be an lc place of the pair (log
    discrepancy zero); the lifted decomposition consists of one
    coefficient-one part per extracted ray plus the strict transforms,
    and no complexity measure may increase.
    """
    if surgery.kind != "extraction":
        raise SurgeryMismatchError(f"not an extraction: {surgery.kind}")
    if pair.fan != surgery.target:
        raise SurgeryMismatchError(
            "the pair does not live on the fan being subdivided")
    if pair.mode == "local" and not _single_cone_germ(pair):
        raise SurgeryMismatchError(
            "only a single-cone germ can be extracted from as a whole")
    vx = complexity_values(pair, dec)
    if not is_log_canonical(pair):
        raise NotLogCanonicalError("the pair is not log canonical")

    discrepancies = []
    for i in surgery.new_rays:
        v = surgery.source.rays[i]
        a = log_discrepancy(pair, v)
        if a != 0:
            raise NotLcPlaceError(v, a)
        discrepancies.append(a)

    n_new = len(surgery.new_rays)
    n_src = len(surgery.source.rays)
    boundary = list(pair.boundary) + [Fraction(1)] * n_new
    nef = None
    if pair.nef_part is not None:
        nef = list(pair.nef_part)
        for i in surgery.new_rays:
            nef.append(-support_value(pair.fan, pair.nef_part,
                                      surgery.source.rays[i]))
    mode = "projective" if pair.mode == "projective" else "birational"
    source_pair = build_pair(surgery.source, boundary, mode=mode,
                             nef_part=nef)

    parts = []
    for i in surgery.new_rays:
        coeffs = [Fraction(0)] * n_src
        coeffs[i] = Fraction(1)
        parts.append((Fraction(1), coeffs))
    for part in dec.parts:
        parts.append((part.weight,
                      list(part.coeffs) + [Fraction(0)] * n_new))
    orbifold = list(dec.orbifold) + [1] * n_new
    lifted = make_decomposition(n_src, parts, orbifold)
    vy = complexity_values(source_pair, lifted)
    for y, x in zip(vy, vx):
        if x is not None:
            _check(y <= x, "an extraction increased a complexity")
    return ExtractionReport(
        surgery=surgery,
        source_pair=source_pair,
        lifted=lifted,
        discrepancies=tuple(discrepancies),
        values_source=vy,
        values_target=vx,
    )
