"""Toric log pairs: a fan with a boundary divisor, in one of three modes.

A pair bundles a fan with an invariant boundary ``B`` (rational
coefficients per ray) and an optional auxiliary nef part ``M`` carried
along formally.  The mode records which geometry the numbers refer to:

* ``projective`` -- the fan is complete and global invariants are meant;
* ``local`` -- a germ at the distinguished point of one chosen maximal
  cone, where only that cone's rays pass through the point;
* ``birational`` -- the fan is affine-over-a-base (not complete) and the
  class group is taken relative to the base, i.e. every ray contributes.

Pairs serialize to a small JSON document (schema 1) with rationals as
``"p/q"`` strings so files round-trip exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .fan import Fan, as_int, is_complete, make_fan, require_valid
from .divisor import (
    NotQCartierError,
    as_coeffs,
    canonical_coeffs,
    class_group,
    is_nef,
    local_class_group,
)
from .lattice import AbelianGroupPresentation, InvalidInputError, solve_rational

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?")


class InvalidPairError(InvalidInputError):
    """Raised when pair data is malformed or inconsistent with its mode."""


def parse_rational(s) -> Fraction:
    """Parse ``"p/q"`` / ``"p"`` strings (or ints) into an exact Fraction."""
    if isinstance(s, bool):
        raise InvalidPairError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        if not _RATIONAL_RE.fullmatch(s.strip()):
            raise InvalidPairError(f"not a rational: {s!r}")
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidPairError(f"not a rational: {s!r}") from exc
    raise InvalidPairError(f"not a rational: {s!r}")


def format_rational(x: Fraction) -> str:
    """Inverse of :func:`parse_rational`: ``3/4`` -> ``"3/4"``, ``2`` -> ``"2"``."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


MODES = ("projective", "local", "birational")


class _PairFields(NamedTuple):
    fan: Fan
    boundary: tuple  # Fraction per ray
    mode: str = "projective"
    cone: tuple | None = None  # ray indices, local mode only
    nef_part: tuple | None = None  # Fraction per ray, optional


class ToricPair(_PairFields):
    """A validated toric pair ``(X, B + M)`` with a working mode.

    The cached class group and linear data live in the instance dict
    that this subclass of the fields' NamedTuple has."""

    @property
    def dim(self) -> int:
        return self.fan.rank

    @cached_property
    def class_group(self) -> AbelianGroupPresentation:
        """The divisor class group seen by the mode, presented once."""
        if self.mode == "local":
            return local_class_group(self.fan, self.cone)
        return class_group(self.fan)

    @cached_property
    def log_linear_data(self) -> tuple:
        """Linear data of ``K + B + M``, solved once: for each maximal cone
        of the working locus (the chosen cone in local mode, every maximal
        cone otherwise), a rational m with ``<m, u> = -(K + B + M)_u`` on
        the cone's rays, or None where no such m exists."""
        kb = log_canonical_coeffs(self)
        cones = (self.cone,) if self.mode == "local" else self.fan.max_cones
        return tuple(solve_rational([self.fan.rays[i] for i in cone],
                                    [-kb[i] for i in cone])
                     for cone in cones)

    def local_rays(self) -> tuple:
        """Indices of the rays meeting the working locus (all, or the cone's)."""
        if self.mode == "local":
            return self.cone
        return tuple(range(len(self.fan.rays)))

    def total_coeffs(self) -> tuple:
        """Coefficients of ``B + M`` per ray."""
        if self.nef_part is None:
            return self.boundary
        return tuple(b + m for b, m in zip(self.boundary, self.nef_part))


def build_pair(fan: Fan, boundary, mode: str = "projective", cone=None,
               nef_part=None) -> ToricPair:
    """Validate and assemble a :class:`ToricPair`.

    Checks the fan itself, coefficient ranges (``0 <= b <= 1`` for the
    boundary, ``M >= 0``), and the mode-specific shape: a complete fan
    for ``projective``, a maximal cone choice for ``local``, and a
    non-complete fan for ``birational``.
    """
    require_valid(fan)
    try:
        b = as_coeffs(boundary, len(fan.rays))
    except ValueError as exc:
        raise InvalidPairError(str(exc)) from exc
    for i, x in enumerate(b):
        if not 0 <= x <= 1:
            raise InvalidPairError(f"boundary coefficient {x} at ray {i} not in [0, 1]")
    m = None
    if nef_part is not None:
        m = as_coeffs(nef_part, len(fan.rays))
        if all(x == 0 for x in m):
            m = None
        elif any(x < 0 for x in m):
            raise InvalidPairError("nef part has a negative coefficient")
        else:
            try:
                if not is_nef(fan, m):
                    raise InvalidPairError("nef part is not nef on this fan")
            except NotQCartierError as exc:
                raise InvalidPairError(
                    "nef part is not Q-Cartier on this fan") from exc
    if mode not in MODES:
        raise InvalidPairError(f"unknown mode {mode!r}")
    if mode == "projective":
        if not is_complete(fan):
            raise InvalidPairError("projective mode needs a complete fan")
        if cone is not None:
            raise InvalidPairError("cone selection only makes sense in local mode")
    elif mode == "local":
        if cone is None:
            raise InvalidPairError("local mode needs a cone (list of ray indices)")
        cone = tuple(sorted(as_int(i, "a cone index") for i in cone))
        if cone not in fan.max_cones:
            raise InvalidPairError(f"{cone} is not a maximal cone of the fan")
    else:  # birational
        if is_complete(fan):
            raise InvalidPairError("birational mode expects a non-complete fan")
        if cone is not None:
            raise InvalidPairError("cone selection only makes sense in local mode")
    return ToricPair(fan=fan, boundary=b, mode=mode, cone=cone, nef_part=m)


def pair_class_group(pair: ToricPair) -> AbelianGroupPresentation:
    """The divisor class group seen by the pair's mode."""
    return pair.class_group


def log_canonical_coeffs(pair: ToricPair) -> tuple:
    """Coefficients of ``K + B + M`` per ray."""
    k = canonical_coeffs(pair.fan)
    return tuple(k[i] + c for i, c in enumerate(pair.total_coeffs()))


def is_log_cy(pair: ToricPair) -> bool:
    """Whether ``K + B + M`` is numerically trivial for the mode.

    Projective and birational modes ask for a global rational witness;
    the local mode only needs one on the chosen cone's rays, which is
    the pair's linear data there.
    """
    if pair.mode == "local":
        return pair.log_linear_data[0] is not None
    kb = log_canonical_coeffs(pair)
    return solve_rational(pair.fan.rays, kb) is not None


def is_log_canonical(pair: ToricPair) -> bool:
    """Whether the pair is log canonical near its working locus.

    For invariant boundaries this comes down to ``b <= 1`` on the
    relevant rays together with ``K + B + M`` being Q-Cartier there.
    """
    if any(m is None for m in pair.log_linear_data):
        return False
    total = pair.total_coeffs()
    return all(total[i] <= 1 for i in pair.local_rays())


# ---------------------------------------------------------------------------
# JSON schema (version 1)

def pair_to_dict(pair: ToricPair) -> dict:
    d = {
        "schema": 1,
        "rank": pair.fan.rank,
        "rays": [list(u) for u in pair.fan.rays],
        "max_cones": [list(c) for c in pair.fan.max_cones],
        "boundary": [format_rational(x) for x in pair.boundary],
        "mode": pair.mode,
    }
    if pair.cone is not None:
        d["cone"] = list(pair.cone)
    if pair.nef_part is not None:
        d["nef_part"] = [format_rational(x) for x in pair.nef_part]
    return d


def pair_from_dict(d: dict) -> ToricPair:
    if not isinstance(d, dict):
        raise InvalidPairError("pair document must be a JSON object")
    if d.get("schema", 1) != 1:
        raise InvalidPairError(f"unsupported schema {d.get('schema')!r}")
    for key in ("rank", "rays", "max_cones", "boundary"):
        if key not in d:
            raise InvalidPairError(f"missing field {key!r}")
    try:
        fan = make_fan(d["rank"], d["rays"], d["max_cones"])
    except (TypeError, ValueError) as exc:
        raise InvalidPairError(f"malformed fan data: {exc}") from exc
    n = len(fan.rays)
    boundary = d["boundary"]
    if not isinstance(boundary, list) or len(boundary) != n:
        raise InvalidPairError("boundary must list one coefficient per ray")
    b = [parse_rational(x) for x in boundary]
    nef = d.get("nef_part")
    if nef is not None:
        if not isinstance(nef, list) or len(nef) != n:
            raise InvalidPairError("nef_part must list one coefficient per ray")
        nef = [parse_rational(x) for x in nef]
    return build_pair(fan, b, mode=d.get("mode", "projective"),
                      cone=d.get("cone"), nef_part=nef)
