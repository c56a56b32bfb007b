"""Complexity invariants of toric log pairs and their exact minimization.

Three numbers are attached to a pair ``(X, B)`` together with a
decomposition ``Sigma = sum_j b_j B_j`` of (part of) the boundary:

* complexity      ``dim X + rank_Q Cl - |Sigma|``
* fine complexity ``dim X + dim_Q <Sigma> - |Sigma|``
* orbifold complexity: the fine formula, where the decomposition may
  additionally carry an orbifold structure ``n`` whose "tax"
  ``(1 - 1/n_rho) D_rho`` counts against the budget ``Sigma <= B`` but
  not towards the norm or the span.

``|Sigma|`` is the sum of the weights ``b_j``, and ``<Sigma>`` is the
span of the classes of the parts in the mode's rational class group.

:func:`minimize` computes the infimum of each quantity over invariant
decompositions whose parts are scaled sums of distinct prime divisors
(the search space is documented in the README); all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from typing import NamedTuple

from .divisor import as_coeffs, q_span_dim
from .fan import as_int, cone_dim
from .lattice import (
    ClaimFailedError,
    InputTooLargeError,
    InternalInvariantError,
    InvalidInputError,
    _check,
    cokernel,
)
from .pairmodel import ToricPair, is_log_canonical


class InvalidDecompositionError(InvalidInputError):
    """The proposed decomposition is not a decomposition of the boundary."""


class IncompatibleOrbifoldError(InvalidInputError):
    """The orbifold structure does not fit the pair's boundary."""


class NotLogCanonicalError(ClaimFailedError):
    """Raised by entry points that require a log canonical pair."""


class NotFullDimensionalError(InvalidInputError):
    """Raised when a fixed-point computation is asked at a small cone."""


class Part(NamedTuple):
    """One summand ``weight * divisor`` of a decomposition."""

    weight: Fraction
    coeffs: tuple  # Fraction per ray


class Decomposition(NamedTuple):
    """Weighted parts plus one orbifold index per ray (1 = untwisted)."""

    parts: tuple
    orbifold: tuple

    @property
    def norm(self) -> Fraction:
        """The sum of the weights, added over a common denominator."""
        num, den = 0, 1
        for p in self.parts:
            num, den = _add_ratio(num, den, p.weight.numerator,
                                  p.weight.denominator)
        return Fraction(num, den)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _add_ratio(num, den, a, b):
    """num/den + a/b as an unreduced integer ratio over lcm(den, b)."""
    if den == b:
        return num + a, den
    g = gcd(den, b)
    return num * (b // g) + a * (den // g), den // g * b


def trivial_orbifold(nrays: int) -> tuple:
    return (1,) * nrays


def make_decomposition(nrays: int, parts, orbifold=None) -> Decomposition:
    """Normalize raw (weight, coeffs) pairs into a :class:`Decomposition`."""
    norm_parts = []
    for weight, coeffs in parts:
        norm_parts.append(Part(Fraction(weight), as_coeffs(coeffs, nrays)))
    if orbifold is None:
        orb = trivial_orbifold(nrays)
    else:
        orb = tuple(as_int(n, "an orbifold index") for n in orbifold)
        if len(orb) != nrays:
            raise IncompatibleOrbifoldError(
                f"expected {nrays} orbifold indices, got {len(orb)}")
    return Decomposition(parts=tuple(norm_parts), orbifold=orb)


def decomposition_total(dec: Decomposition) -> tuple:
    """Per-ray coefficient of the full divisor Sigma, orbifold tax included.

    Only the non-zero coefficients of each part are added in, each ray
    over a common denominator; one Fraction is formed per ray at the end.
    """
    total = [(0, 1)] * len(dec.orbifold)
    for i, n in enumerate(dec.orbifold):
        if n != 1:
            tax = 1 - Fraction(1, n)  # raises as Fraction does on a bad n
            total[i] = tax.numerator, tax.denominator
    for p in dec.parts:
        wn, wd = p.weight.numerator, p.weight.denominator
        for i, c in enumerate(p.coeffs):
            cn = c.numerator
            if cn:
                total[i] = _add_ratio(*total[i], wn * cn, wd * c.denominator)
    return tuple(Fraction(num, den) for num, den in total)


def validate_decomposition(pair: ToricPair, dec: Decomposition) -> None:
    """Check that ``dec`` decomposes (part of) the pair's boundary.

    Raises :class:`IncompatibleOrbifoldError` for bad orbifold data and
    :class:`InvalidDecompositionError` for bad parts or budget overruns.

    Each part is read through its non-zero coefficients only, and the
    budget is checked on the rays where Sigma is non-zero: elsewhere its
    coefficient is 0, which a pair's boundary (in [0, 1]) never falls
    below.  Weights and coefficients are rationals (int or Fraction),
    read through their numerators and denominators: signs and zeros are
    those of the numerators, as denominators are positive; the tax
    (n - 1) / n and each ray's total are integer ratios compared with
    the boundary by cross-multiplication; a Fraction is formed only to
    word an error.
    """
    nrays = len(pair.fan.rays)
    orbifold = dec.orbifold
    if len(orbifold) != nrays:
        raise IncompatibleOrbifoldError(
            f"expected {nrays} orbifold indices, got {len(orbifold)}")
    boundary = pair.boundary
    total = {}  # ray -> (numerator, denominator) of Sigma, where non-zero
    for i, n in enumerate(orbifold):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise IncompatibleOrbifoldError(f"orbifold index {n!r} at ray {i}")
        if n > 1:
            b = boundary[i]
            if b.numerator * n < (n - 1) * b.denominator:
                # gcd(n - 1, n) = 1, so this is the reduced tax
                raise IncompatibleOrbifoldError(
                    f"index {n} at ray {i} needs boundary coefficient >= "
                    f"{n - 1}/{n}, found {b}")
            total[i] = (n - 1, n)
    local = set(pair.cone) if pair.mode == "local" else None
    for j, p in enumerate(dec.parts):
        wn, wd = p.weight.numerator, p.weight.denominator
        if wn <= 0:
            raise InvalidDecompositionError(f"part {j} has weight {p.weight}")
        if len(p.coeffs) != nrays:
            raise InvalidDecompositionError(
                f"part {j} has {len(p.coeffs)} coefficients, expected {nrays}")
        support = [(i, c.numerator, c.denominator)
                   for i, c in enumerate(p.coeffs) if c.numerator]
        if not support:
            raise InvalidDecompositionError(f"part {j} is the zero divisor")
        for i, cn, cd in support:
            if cn < 0:
                raise InvalidDecompositionError(
                    f"part {j} has negative coefficient at ray {i}")
            # c * n is an integer exactly when c's denominator divides n
            if orbifold[i] % cd:
                raise InvalidDecompositionError(
                    f"part {j} is not integral against orbifold index "
                    f"{orbifold[i]} at ray {i}")
        # the support is positive now, so a part meets the point exactly
        # when one of its rays is a ray of the cone
        if local is not None and not any(i in local for i, _, _ in support):
            raise InvalidDecompositionError(
                f"part {j} misses the chosen point (no ray of the cone)")
        for i, cn, cd in support:
            total[i] = _add_ratio(*total.get(i, (0, 1)), wn * cn, wd * cd)
    for i in sorted(total):
        num, den = total[i]
        b = boundary[i]
        if num * b.denominator > b.numerator * den:
            raise InvalidDecompositionError(
                f"total coefficient {Fraction(num, den)} at ray {i} exceeds "
                f"boundary {b}")


def span_dimension(pair: ToricPair, dec: Decomposition) -> int:
    """dim_Q of the span of the part classes in the mode's class group."""
    pres = pair.class_group
    rays = pair.local_rays()
    return q_span_dim(pres, [[p.coeffs[i] for i in rays] for p in dec.parts])


def _require_trivial_orbifold(dec: Decomposition) -> None:
    if any(n != 1 for n in dec.orbifold):
        raise InvalidDecompositionError(
            "this invariant is defined for untwisted decompositions; "
            "use orbifold_complexity")


def complexity(pair: ToricPair, dec: Decomposition) -> Fraction:
    """dim X + rank_Q Cl - |Sigma| for an untwisted decomposition."""
    _require_trivial_orbifold(dec)
    validate_decomposition(pair, dec)
    return pair.dim + pair.class_group.free_rank - dec.norm


def fine_complexity(pair: ToricPair, dec: Decomposition) -> Fraction:
    """dim X + dim_Q<Sigma> - |Sigma| for an untwisted decomposition."""
    _require_trivial_orbifold(dec)
    return orbifold_complexity(pair, dec)


def orbifold_complexity(pair: ToricPair, dec: Decomposition) -> Fraction:
    """dim X + dim_Q<Sigma> - |Sigma|; the orbifold tax is budget-only."""
    return complexity_values(pair, dec)[2]


def _values(pair: ToricPair, dec: Decomposition) -> tuple:
    """(c, c_fine, c_orb) of a decomposition already validated on pair.

    One span gives c_orb.  An untwisted decomposition has c_fine = c_orb,
    the same formula, and c from the class-group rank; a twisted one has
    neither, so both are None.
    """
    c_orb = pair.dim + span_dimension(pair, dec) - dec.norm
    if any(n != 1 for n in dec.orbifold):
        return None, None, c_orb
    return pair.dim + pair.class_group.free_rank - dec.norm, c_orb, c_orb


def complexity_values(pair: ToricPair, dec: Decomposition) -> tuple:
    """(c, c_fine, c_orb) of one decomposition, validated once.

    c and c_fine are None when the decomposition is twisted, where
    :func:`complexity` and :func:`fine_complexity` raise.
    """
    validate_decomposition(pair, dec)
    return _values(pair, dec)


# ---------------------------------------------------------------------------
# Minimization


class MinimizeReport(NamedTuple):
    """The three minimized values with their realizing decompositions."""

    c: Fraction
    c_fine: Fraction
    c_orb: Fraction
    dec_c: Decomposition
    dec_fine: Decomposition
    dec_orb: Decomposition
    cl_rank: int
    span_fine: int
    span_orb: int


def _orbifold_options(a: Fraction, cap: int):
    """Orbifold indices worth trying for a prime with boundary coefficient a.

    Divisors of the denominator only, capped, and only those leaving a
    positive weight budget ``n(a - 1) + 1`` once the tax is paid.  With
    a = p/q that budget is (q - n(q - p))/q, so an index n qualifies when
    it divides q and n(q - p) < q.
    """
    p, q = a.numerator, a.denominator
    return [(n, Fraction(q - n * (q - p), q))
            for n in range(1, min(q, cap) + 1)
            if q % n == 0 and n * (q - p) < q]


def _fractional_elems(pair: ToricPair, fracs) -> tuple:
    """(fixed_rank, elems): the rank of the span of the coefficient-one
    classes in the mode's Cl_Q, and (ray, coefficient, class modulo that
    span) per ray of ``fracs``.  The quotient is Q^rays / (M_Q + Q^ones)
    = Q^rest / M_Q, rest the other working rays: the cokernel of their
    rays, and a class is its ray's column of the cokernel's free map."""
    pres = pair.class_group
    rest = [i for i in pair.local_rays() if pair.boundary[i] != 1]
    quot = pres if len(rest) == len(pair.local_rays()) else cokernel(
        [pair.fan.rays[i] for i in rest])
    return pres.free_rank - quot.free_rank, [
        (i, pair.boundary[i], [row[rest.index(i)] for row in quot.free_map])
        for i in fracs]


# Groups the grouping search of one minimize call, which finds c_fine
# and c_orb together, may close before it raises InputTooLargeError.
# The polygon ladder of the README closes 0.52 M groups at t = 12 in
# about 4 s and the 11/12 polygon 1.69 M at t = 8 in about 8 s; at the
# ladder's rate this budget is under a minute.
_CLOSE_BUDGET = 4_000_000


def _echelon_insert(basis, row):
    """Reduce an integer row against an echelon basis; keep it if non-zero.

    ``basis`` is a list of (pivot column, integer row), each row zero at
    the pivot columns of the rows before it, so one pass in order clears
    every pivot column of ``row``.  Each step is fraction-free: with
    g = gcd(p, f) for the pivot p and the entry f, row becomes
    (p / g) row - (f / g) basis row, all in ints.  A non-zero remainder,
    divided by its content, joins the basis at its first non-zero
    column.  Returns whether it joined, that is, the rank it adds.
    """
    for col, b in basis:
        f = row[col]
        if f:
            p = b[col]
            g = gcd(p, f)
            p, f = p // g, f // g
            row = [p * x - f * y for x, y in zip(row, b)]
    content = gcd(*row)
    if not content:
        return False
    if content != 1:
        row = [x // content for x in row]
    basis.append((row.index(next(filter(None, row))), row))
    return True


def _rank_added(basis, rows):
    """The rank that ``rows`` add to the span of an echelon basis.

    They are inserted one at a time into a copy of ``basis`` (see
    :func:`_echelon_insert`), which stays unchanged, until the copy
    spans the whole space.
    """
    basis = list(basis)
    added = 0
    for row in rows:
        if len(basis) == len(row):
            break  # the basis spans everything
        added += _echelon_insert(basis, row)
    return added


def _search_fine(fixed_rank, fixed_norm, elems, options):
    """Exhaustive search for the best groupings of the fractional primes.

    ``elems`` is a list of (ray, coefficient, projected class) with the
    classes given modulo the span of the ``fixed_rank``-dimensional
    coefficient-one classes, in any coordinates (:func:`_fractional_elems`);
    ``fixed_norm`` is the number of coefficient-one primes.  ``options``
    gives the (index, weight-budget) choices per element, index 1 among
    them, every budget in (0, 1].  Maximizes F = |Sigma| - rank over the
    groupings of a subset of the elements: a singleton group takes
    index 1, a larger group any index per member, and a group weighs
    the smallest budget of its members.  Returns two optima, each
    (best F, groups): the fine one over the groupings whose members all
    take index 1, then the orbifold one over all of them.  groups is a
    list of ([(element, index)...], weight), groups ordered by their
    first member and members by element.  Raises InputTooLargeError
    once it has closed more than ``_CLOSE_BUDGET`` groups.

    The search takes the smallest remaining element p and either drops
    it or closes its group: p plus a subset of the remaining elements,
    with their indices.  p alone closes with index 1 only, but each of
    its indices leads larger groups.  A group's row r_g is the class of
    sum(D_e / n_e); the closed rows span a space S, and their rank is
    exact.  At a node let cur be F with every remaining element dropped,
    nu the nullity of the remaining classes modulo S (their number less
    the rank they add to S), and top(k) the sum of the k largest budgets
    among them.  No completion exceeds cur + top(nu):

    * New groups G change F by sum_g w_g - rank(rows mod S)
      = k - sum_g (1 - w_g), where k = |G| - rank(rows mod S) is the
      nullity of their rows modulo S.
    * The groups are disjoint and each r_g is a positive combination of
      its members' classes, so a relation sum c_g r_g in S gives the
      relation sum_g sum_{e in g} c_g (L_g / n_e) v_e in S among the
      member classes, non-zero when c is.  Hence k <= nu.
    * Every w_g <= 1, so the change is at most the sum of the k largest
      w_g.  A group weighs at most the budget of each member and the
      groups are disjoint, so that sum is at most top(k) <= top(nu).

    One walk keeps both optima.  A node or group is plain when every
    member closed along its path takes index 1; the plain leaves are
    exactly the groupings the fine optimum ranges over.  A plain leaf
    is offered to both incumbents, any other leaf to the orbifold one
    only, so the fine incumbent never exceeds the orbifold one: every
    plain leaf is an orbifold leaf too.  A plain node is pruned only
    when its bound is below the fine incumbent, strictly; then it is
    below the orbifold one as well, and no completion of either kind can
    reach its incumbent.  Every completion of any other node is
    non-plain, so that node is pruned below the orbifold incumbent.
    The bound uses the largest budget of each element over all its
    indices, which bounds the index-1 budget too.  So no node is pruned
    that holds an optimal grouping of either kind, and the key (-F,
    labels, orbifold) picks the same optimum of each kind in any
    visiting order.

    Dropping an element never raises nu.  Closing a group g whose row
    adds delta (0 or 1) to the rank leaves nullity at most
    nu - 1 + delta: one member of g lies in the span of r_g and the
    other members, so rank(S + r_g + left) >= rank(S + rem) - |g| + 1,
    where left is what g leaves of rem.  So g of weight w is worth
    closing only if cur + w + top'(nu - 1) reaches the incumbent of its
    kind, top' over left (a delta of 1 costs 1 and frees one more budget
    of at most 1); when nu = 0, delta is 1 and the bound is
    cur + w - 1.  Both shrink as g grows, and a group that stops being
    plain never becomes plain again while its incumbent can only rise,
    so a failed check skips every larger group too, before any rank is
    taken.  That holds for the singleton {p} too, with any index: p
    alone with an index above 1 is checked but never closed (nor
    counted against the budget), and when the check of (p, n) fails, no
    larger group led by (p, n) is tried.  A node ranks for its exact nu
    only when its inherited bound does not prune it.  Nothing is ranked
    once nu = 0, where every row leaves S, or once nu is the number of
    remaining elements, which then all lie in S.  Rank and nullity as in
    Oxley, Matroid Theory (2011), ch. 1.  Ranks are taken against an
    echelon basis of the rows closed along the path
    (:func:`_echelon_insert`); a row joins it only where something below
    may still rank.
    """
    t = len(elems)
    # weights and F are counted in units of 1/den, so the search compares
    # ints; den is the lcm of the budget denominators
    den = lcm(*(b.denominator for opts in options for _, b in opts))
    budgets = [{n: (b * den).numerator for n, b in opts} for opts in options]
    top = [max(b.values()) for b in budgets]
    order = sorted(range(t), key=lambda e: -top[e])  # by budget, once
    classes = [v for _, _, v in elems]
    zero = [0] * len(classes[0]) if t else []  # the row of the empty group

    # the fine and the orbifold incumbent: best F, its key, its groups
    fine_F = orb_F = -inf  # no grouping reached yet
    fine_key = orb_key = fine_groups = orb_groups = None
    groups = []  # closed groups: (members, weight)
    basis = []  # echelon basis of their rows, where they are ranked
    closes = 0

    def leaf(F, plain):
        nonlocal fine_F, fine_key, fine_groups, orb_F, orb_key, orb_groups
        if F < (fine_F if plain else orb_F):
            return
        labels = [(1,)] * t
        orb = [1] * t
        for members, _ in groups:
            for e, n in members:
                labels[e] = (0, tuple(sorted(elems[m][0] for m, _ in members
                                             if m != e)))
                orb[e] = n
        key = (-F, tuple(labels), tuple(orb))
        if plain and (fine_key is None or key < fine_key):
            fine_F, fine_key = F, key
            fine_groups = [(list(members), Fraction(w, den))
                           for members, w in groups]
        if orb_key is None or key < orb_key:
            # orb_key <= fine_key, so a plain leaf that beats orb_key
            # was just taken as the fine incumbent
            orb_F, orb_key = F, key
            orb_groups = fine_groups if plain else [
                (list(members), Fraction(w, den)) for members, w in groups]

    def gain(elements, k):
        # the sum of the k largest budgets among the elements
        total = 0
        for e in order:
            if not k:
                break
            if e in elements:
                total += top[e]
                k -= 1
        return total

    def node(rem, cur, nu, exact, plain):
        # nu is the nullity of rem modulo span(basis) when exact, else an
        # upper bound on it; plain: every member closed so far has index 1
        if not rem:
            leaf(cur, plain)
            return
        if nu and not exact:
            if cur + gain(rem, nu) < (fine_F if plain else orb_F):
                return
            nu = len(rem) - _rank_added(basis, [classes[e] for e in rem])
        if cur + gain(rem, nu) < (fine_F if plain else orb_F):
            return
        # nu = len(rem): every remaining class lies in span(rows), and so
        # does every row closed below; nu = 0: every row leaves it.  Only
        # in between are rows ranked, so only there are they carried.
        inside = nu == len(rem)
        ranked = nu and not inside
        p, rest = rem[0], rem[1:]
        node(rest, cur, nu - inside, inside, plain)  # drop p
        ctx = (rest, cur, nu, inside, ranked)
        for n, b in budgets[p].items():
            group(ctx, [(p, n)], b, 0, zero, 1, [], plain and n == 1)

    def group(ctx, members, w, start, row, scale, skipped, plain):
        # When the group members, of weight w, passes its bound check,
        # closes it, unless it is the node's element p alone with an
        # index above 1, and then extends it by each later element of
        # rest, with each of that element's indices.  members holds p and
        # then elements of rest before start; skipped holds the others
        # among those, in order; plain: so is the node the group leads
        # to.  members and skipped are as given again when this returns.
        # When ranked, row is the class of the group without its last
        # member (e, n), scaled by scale; the group's row, scaled by
        # lcm(scale, n) so it stays integral (scaling a row does not
        # change the rank), is built only once the check passes.
        nonlocal closes
        rest, cur, nu, inside, ranked = ctx
        e, n = members[-1]
        closing = n == 1 or len(members) > 1
        if closing:
            closes += 1
            if closes > _CLOSE_BUDGET:
                raise InputTooLargeError(
                    f"the grouping search closed more than {_CLOSE_BUDGET} "
                    "groups; the input has too many fractional primes or "
                    "orbifold options")
        left = skipped + rest[start:]
        if ((cur + w + gain(left, nu - 1) if nu else cur + w - den)
                < (fine_F if plain else orb_F)):
            return
        if ranked:
            scale_e = lcm(scale, n)
            a, c = scale_e // scale, scale_e // n
            row = [a * x + c * y for x, y in zip(row, classes[e])]
            scale = scale_e
        if closing:
            # the rank the row adds: 1 when nu = 0, 0 when inside
            delta = _echelon_insert(basis, row) if ranked else not nu
            groups.append((members, w))
            node(left, cur + w - delta * den,
                 len(left) if inside else nu - 1 + delta, inside, plain)
            groups.pop()
            if ranked and delta:
                basis.pop()
        mark = len(skipped)
        for j in range(start, len(rest)):
            e = rest[j]
            for n, b in budgets[e].items():
                members.append((e, n))
                group(ctx, members, min(w, b), j + 1, row, scale, skipped,
                      plain and n == 1)
                members.pop()
            skipped.append(e)
        del skipped[mark:]

    try:
        node(list(range(t)), (fixed_norm - fixed_rank) * den, t, False, True)
    finally:
        node = group = None  # they call themselves and each other
    return (Fraction(fine_F, den), fine_groups), (Fraction(orb_F, den),
                                                   orb_groups)


def _prime_part(zeros, ray, weight):
    """The untwisted part weight * D_ray, its coeffs built from zeros."""
    coeffs = list(zeros)
    coeffs[ray] = _ONE
    return Part(weight, tuple(coeffs))


def _realizing_decomposition(pair, ones, elems, groups):
    """Assemble the Decomposition realizing a search result."""
    zeros = (_ZERO,) * len(pair.fan.rays)
    parts = [(ray, _prime_part(zeros, ray, _ONE)) for ray in ones]
    orb = [1] * len(zeros)
    for members, weight in groups:
        coeffs = list(zeros)
        first = min(elems[e][0] for e, _ in members)
        for e, n in members:
            ray = elems[e][0]
            coeffs[ray] = Fraction(1, n)
            orb[ray] = n
        parts.append((first, Part(weight, tuple(coeffs))))
    parts.sort(key=lambda item: item[0])
    return Decomposition(parts=tuple(p for _, p in parts), orbifold=tuple(orb))


def _self_validate(pair: ToricPair, dec: Decomposition, name: str) -> None:
    """Validate a decomposition minimize built: a failure is a bug here."""
    try:
        validate_decomposition(pair, dec)
    except (InvalidDecompositionError, IncompatibleOrbifoldError) as exc:
        raise InternalInvariantError(
            f"the {name} decomposition is invalid: {exc}") from exc


def minimize(pair: ToricPair, orbifold_cap: int = 12,
             partition_limit: int = 12) -> MinimizeReport:
    """Minimize the three complexities over invariant decompositions.

    The plain complexity is minimized by the prime decomposition of the
    boundary (restricted to the rays through the working locus).  The
    fine and orbifold complexities are minimized by one exhaustive
    search over groupings of the boundary primes into parts, with drops
    allowed, which keeps the best untwisted grouping beside the best
    one overall; a part built from a group carries weight equal to the
    smallest remaining budget among its members, and orbifold indices
    range over divisors of the coefficient denominators up to
    ``orbifold_cap``.  Coefficient-one primes always enter as their own
    untwisted parts (grouping or twisting them never improves any of
    the three values, so the search only branches on fractional primes).

    Each decomposition is validated and spanned once to re-derive its
    value; when the orbifold optimum is the fine one, that is once for
    both, since validation and span depend only on the pair and the
    decomposition.

    Raises NotLogCanonicalError for non-lc pairs and InputTooLargeError
    when more than ``partition_limit`` fractional primes would have to
    be grouped exhaustively, or when the search closes more than
    ``_CLOSE_BUDGET`` groups.  That budget is a count of work, set so
    that the slowest inputs measured stop within about a minute; the
    README's notes on the search space give the table.
    """
    if not 1 <= partition_limit <= 64:
        raise ValueError("partition_limit must be between 1 and 64")
    if orbifold_cap < 1:
        raise ValueError("orbifold_cap must be at least 1")
    if not is_log_canonical(pair):
        raise NotLogCanonicalError(
            "pair is not log canonical near its working locus")
    nrays = len(pair.fan.rays)
    pres = pair.class_group
    rays = pair.local_rays()
    support = [i for i in rays if pair.boundary[i].numerator]  # b > 0

    # plain complexity: prime decomposition over the working rays
    zeros = (_ZERO,) * nrays
    dec_c = Decomposition(
        parts=tuple(_prime_part(zeros, i, pair.boundary[i]) for i in support),
        orbifold=trivial_orbifold(nrays))
    _self_validate(pair, dec_c, "plain")
    c = pair.dim + pres.free_rank - dec_c.norm

    ones = [i for i in support if pair.boundary[i] == 1]
    fracs = [i for i in support if pair.boundary[i] != 1]
    if len(fracs) > partition_limit:
        raise InputTooLargeError(
            f"{len(fracs)} fractional boundary primes exceed the partition "
            f"limit of {partition_limit}")
    fixed_rank, elems = _fractional_elems(pair, fracs)
    (f_fine, groups_fine), (f_orb, groups_orb) = _search_fine(
        fixed_rank, len(ones), elems,
        [_orbifold_options(a, orbifold_cap) for _, a, _ in elems])
    c_fine = pair.dim - f_fine
    c_orb = pair.dim - f_orb

    # self-check: re-derive both values from the decompositions, as
    # fine_complexity and orbifold_complexity would, validating and
    # spanning each distinct decomposition once
    dec_fine = _realizing_decomposition(pair, ones, elems, groups_fine)
    _self_validate(pair, dec_fine, "fine")
    span_fine = span_dimension(pair, dec_fine)
    if groups_orb == groups_fine:
        dec_orb, span_orb = dec_fine, span_fine
    else:
        dec_orb = _realizing_decomposition(pair, ones, elems, groups_orb)
        _self_validate(pair, dec_orb, "orbifold")
        span_orb = span_dimension(pair, dec_orb)
    _check(dec_fine.orbifold == trivial_orbifold(nrays),
           "the fine decomposition carries an orbifold structure")
    _check(pair.dim + span_fine - dec_fine.norm == c_fine,
           "the fine decomposition does not realize c_fine")
    _check(pair.dim + span_orb - dec_orb.norm == c_orb,
           "the orbifold decomposition does not realize c_orb")
    _check(c >= c_fine >= c_orb, "c >= c_fine >= c_orb fails")
    return MinimizeReport(
        c=c, c_fine=c_fine, c_orb=c_orb,
        dec_c=dec_c, dec_fine=dec_fine, dec_orb=dec_orb,
        cl_rank=pres.free_rank, span_fine=span_fine, span_orb=span_orb,
    )


# ---------------------------------------------------------------------------
# Local complexity of a fixed point


class LocalComplexityReport(NamedTuple):
    value: Fraction
    boundary: tuple  # Fraction per cone ray, in cone order
    witness: tuple  # the linear functional certifying K + B linearly trivial
    components: int  # number of coefficient-one entries


def local_complexity_cloc(fan, cone) -> LocalComplexityReport:
    """Infimum of dim + rank Cl(germ) - sum(coefficients) over invariant
    boundaries that are log canonical at the cone's fixed point.

    Such a boundary has coefficients a_i = 1 - <m, u_i> in [0, 1] for a
    linear witness m of K + B on the cone's rays u_1, ..., u_r.  The sum
    of the a_i is at most r, and the full invariant boundary (every
    a_i = 1, m = 0) attains it.  It is the only optimum: every a_i = 1
    forces <m, u_i> = 0, and the rays of a full-dimensional cone span
    N_R, so m = 0.  The value is n + rank Cl(U_sigma) - r, which is 0
    since rank Cl(U_sigma) = r - n; the rank still comes from the Smith
    form of the germ's class group.
    """
    cone = tuple(sorted(as_int(i, "a cone index") for i in cone))
    if cone not in fan.max_cones:
        raise ValueError(f"{cone} is not a maximal cone of the fan")
    if cone_dim(fan, cone) != fan.rank:
        raise NotFullDimensionalError(
            "local complexity is computed at the fixed point of a "
            "full-dimensional cone")
    n = fan.rank
    r = len(cone)
    pres = fan.local_class_group(cone)
    return LocalComplexityReport(
        value=Fraction(n + pres.free_rank - r),
        boundary=(Fraction(1),) * r,
        witness=(Fraction(0),) * n,
        components=r,
    )
