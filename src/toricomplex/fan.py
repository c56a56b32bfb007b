"""Fans: rank, primitive rays, maximal cones as ray-index sets.

A fan is purely combinatorial data; geometric questions (validity,
completeness, smoothness, subdivision) are answered exactly through the
cone machinery in lattice.py.
"""

from functools import cached_property, lru_cache
from typing import NamedTuple

from .lattice import (
    InvalidInputError,
    cokernel,
    cokernel_from_snf,
    cone_hform,
    cone_intersection,
    extremal_rays,
    in_hform,
    is_primitive,
    mat_vec,
    primitive_vector,
    rank_q,
    smallest_face_containing,
    snf,
    vec_dot,
    vec_gcd,
)


class InvalidFanError(InvalidInputError):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__("; ".join(f"{c}: {d}" for c, d in diagnostics))


class _FanFields(NamedTuple):
    rank: int
    rays: tuple
    max_cones: tuple


class Fan(_FanFields):
    """rank: ambient lattice rank; rays: tuple of primitive integer tuples;
    max_cones: tuple of sorted ray-index tuples.

    Derived data (the validation verdict, the H-form of each maximal
    cone, the Smith form of the ray matrix and the class groups) is
    computed on first use and kept on the object, in the instance dict
    that this subclass of the fields' NamedTuple has.  make_fan returns
    one object per content, so that data is shared by every caller that
    builds the same fan: it is read, never changed.  The H-form is the
    one per-cone structure: pointedness, extremal rays, facets, walls
    and containment are all read from it.
    """

    def cone_rays(self, cone):
        return [self.rays[i] for i in cone]

    @cached_property
    def _verdict(self):
        """(diagnostics, complete): the verdict of _diagnose, and whether
        its proof of completeness (_covers_once) passed."""
        diags, complete = _diagnose(self)
        return tuple(diags), complete

    @property
    def diagnostics(self):
        """Tuple of (code, detail) pairs, empty exactly for a valid fan."""
        return self._verdict[0]

    @cached_property
    def hforms(self):
        """(equalities, inequalities) of each maximal cone, in order, as
        tuples."""
        hforms = (cone_hform(self.cone_rays(c), self.rank)
                  for c in self.max_cones)
        return tuple((tuple(eqs), tuple(ineqs)) for eqs, ineqs in hforms)

    @cached_property
    def smith_form(self):
        """Smith form of the ray matrix (rays as rows)."""
        return snf([list(u) for u in self.rays])

    @cached_property
    def class_group(self):
        """Presentation of the divisor class group Z^rays / M, the
        cokernel of the ray matrix, read off smith_form."""
        return cokernel_from_snf(self.smith_form)

    @cached_property
    def _local_class_groups(self):
        return {}

    def local_class_group(self, cone):
        """Presentation of the class group of the germ at a cone: the
        cokernel of the matrix of the cone's rays, in cone order."""
        cone = tuple(cone)
        groups = self._local_class_groups
        pres = groups.get(cone)
        if pres is None:
            pres = groups[cone] = cokernel([list(self.rays[i]) for i in cone])
        return pres


def as_int(x, what):
    """x itself if it is an int.  Anything else, bools and integral
    floats such as 2.0 included, raises TypeError rather than being
    truncated."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return x


# The number of distinct fans make_fan keeps, least recently used out
# first.  It is bounded because a kept fan holds about 3 KB (up to 9 KB)
# with what it derives, and a 30-s run of the benchmark's sweep builds
# 9-14 k distinct fans: kept for good, they would grow the process by
# tens of MB.  A sweep that varies the boundary over a few fans finds
# them all in a table this size.
_FAN_TABLE_SIZE = 64


@lru_cache(maxsize=_FAN_TABLE_SIZE)
def _interned(rank, rays, max_cones):
    return Fan(rank, rays, max_cones)


def make_fan(rank, rays, max_cones):
    """Normalize raw data into a Fan (no validation; see validate_fan).

    Equal data gives the same object while it stays among the
    _FAN_TABLE_SIZE fans most recently asked for, so what a Fan derives
    is derived once per content."""
    return _interned(as_int(rank, "rank"),
                     tuple(tuple(as_int(x, "a ray coordinate") for x in r)
                           for r in rays),
                     tuple(tuple(sorted(as_int(i, "a cone index") for i in c))
                           for c in max_cones))


def validate_fan(fan):
    """Diagnose structural defects.  Returns a fresh list of (code, detail)
    pairs, empty exactly when the data is a valid fan."""
    return list(fan.diagnostics)


def _diagnose(fan):
    """(diagnostics, complete).  The per-ray and per-cone checks run
    first; a fan that passes them and _covers_once is valid and complete.
    Every other fan goes through the pairwise check of all cone pairs."""
    diags = []
    n = fan.rank
    if n < 1:
        diags.append(("bad-rank", f"rank must be >= 1, got {n}"))
        return diags, False
    for i, r in enumerate(fan.rays):
        if len(r) != n:
            diags.append(("bad-ray", f"ray {i} has length {len(r)}, want {n}"))
            return diags, False
        if not any(r):
            diags.append(("bad-ray", f"ray {i} is zero"))
        elif not is_primitive(r):
            diags.append(("nonprimitive-ray", f"ray {i} = {r}"))
    seen = {}
    for i, r in enumerate(fan.rays):
        if r in seen:
            diags.append(("duplicate-ray", f"rays {seen[r]} and {i} coincide"))
        else:
            seen[r] = i
    if diags:
        return diags, False
    used = set()
    pointed_ok = []
    missing = [any(i < 0 or i >= len(fan.rays) for i in cone)
               for cone in fan.max_cones]
    # a cone naming a missing ray has no H-form: then form them per cone
    per_cone = any(missing)
    hforms = {} if per_cone else fan.hforms
    for ci, cone in enumerate(fan.max_cones):
        if missing[ci]:
            diags.append(("bad-ray-index", f"cone {ci} references a missing ray"))
            continue
        if len(set(cone)) != len(cone):
            diags.append(("duplicate-cone-entry", f"cone {ci} repeats a ray"))
            continue
        used.update(cone)
        gens = fan.cone_rays(cone)
        if per_cone:
            hforms[ci] = cone_hform(gens, n)
        rays = extremal_rays(gens, hforms[ci])
        if rays is None:
            diags.append(("nonpointed-cone", f"cone {ci} has a lineality space"))
            continue
        if rays != sorted(set(gens)):
            diags.append(("nonextremal-generator",
                          f"cone {ci} lists a non-extremal ray"))
            continue
        pointed_ok.append(ci)
    for i in range(len(fan.rays)):
        if i not in used:
            diags.append(("stray-ray", f"ray {i} appears in no maximal cone"))
    if not diags and _covers_once(fan):
        return diags, True
    for a in range(len(pointed_ok)):
        for b in range(a + 1, len(pointed_ok)):
            ci, cj = pointed_ok[a], pointed_ok[b]
            si, sj = set(fan.max_cones[ci]), set(fan.max_cones[cj])
            if si <= sj or sj <= si:
                diags.append(("nested-max-cones", f"cones {ci} and {cj}"))
                continue
            meet = cone_intersection(hforms[ci], hforms[cj], n)
            common = si & sj
            if set(meet) != {fan.rays[i] for i in common}:
                diags.append(("overlapping-cones",
                              f"cones {ci} and {cj} meet outside a common face"))
                continue
            # the common rays must span a face of each cone
            for ck in (ci, cj):
                cone = fan.max_cones[ck]
                sub = [k for k, i in enumerate(cone) if i in common]
                face = smallest_face_containing(fan.cone_rays(cone),
                                                hforms[ck], sub)
                if face != frozenset(sub):
                    diags.append(("overlapping-cones",
                                  f"cones {ci} and {cj} meet outside a common face"))
                    break
    return diags, False


def _covers_once(fan):
    """Do the maximal cones, each pointed and listing exactly its
    extremal rays, form a complete fan?  True when

    (a) every maximal cone is full-dimensional;
    (b) every facet, as the set of the cone's rays on it, is a facet of
        exactly two maximal cones, and a ray of the second one off the
        facet is negative on the first one's facet normal, so the two
        lie on opposite sides of the facet's hyperplane;
    (c) p, the sum of the rays of cone 0, lies in no other maximal cone.

    By is_complete's docstring every valid complete fan passes, so False
    means the fan is invalid or not complete; the caller then runs the
    pairwise check, which tells the two apart.  Ray sets name geometric
    facets: a facet of a pointed cone is the cone over the extremal rays
    on it, and rays are distinct.

    Proof that (a)-(c) give a complete fan.  (1) Degree one.  Call x
    generic if it lies on no facet hyperplane, and let d(x) count the
    cones containing x.  Join two generic points by a path that avoids
    the faces of codimension >= 2 (their complement is connected; for
    n = 1 there are none) and crosses the hyperplanes one at a time.  A
    cone with a crossing point y on its boundary holds y in the relative
    interior of one facet F, and by (b) so does exactly one other cone,
    on the other side: one is entered as the other is left, so d is
    constant.  p is interior to cone 0 and, by (c), outside every other
    (closed) cone, so d = 1 near p.  (2) Hence the interiors are
    disjoint (two that met would share a generic point), and the union,
    closed and containing every generic point, is R^n.  A relative
    interior point f of a facet F lies only in the two cones of F: a
    small ball around f lies in them, so a third cone containing f would
    meet their interiors.  Partners across a facet F share their
    lineality space, which is that of F; as a generic path passes from
    any cone to any other through partners, all cones share one.
    (3) Common faces, by induction on n, for any finite set of
    full-dimensional polyhedral cones in R^n with disjoint interiors,
    union R^n and the facet pairing of (b); by (2) modulo the common
    lineality space they are pointed.  Let C = s & r for two cones s, r,
    and take c != 0 relatively interior to C (C = 0 is a face of both),
    G the smallest face of s containing c, so C lies in G.  At a point
    w != 0 of s & r, the tangent cones T_w of the cones containing w
    again cover, have disjoint interiors, and pair their facets T_w F as
    the F are paired (a relative interior point of F lies in no third
    cone).  Their common lineality contains the line of w, so by
    induction in lower dimension T_w s & T_w r = T_w C is a face of
    T_w s and contains its lineality space, the span of the smallest
    face of s containing w: C contains a neighbourhood of w in that
    face.  On a segment from c to a point g of the relative interior of
    G (it stays there, and misses 0), the points in r therefore form a
    set that is closed, open and contains c: g is in r.  So G lies in r,
    C = G is a face of s, and likewise of r.  Faces that are common in
    this sense are exactly what the pairwise check asks for.
    """
    rays = fan.rays
    # facet -> normal of the first cone on it, None once a second is found
    first = {}
    for cone, (eqs, ineqs) in zip(fan.max_cones, fan.hforms):
        if eqs:
            return False
        for phi in ineqs:
            facet = frozenset(i for i in cone if vec_dot(phi, rays[i]) == 0)
            if facet not in first:
                first[facet] = phi
                continue
            off = next(i for i in cone if i not in facet)
            if first[facet] is None or vec_dot(first[facet], rays[off]) >= 0:
                return False
            first[facet] = None
    if not fan.max_cones or any(phi is not None for phi in first.values()):
        return False
    p = [sum(xs) for xs in zip(*fan.cone_rays(fan.max_cones[0]))]
    return not any(in_hform(hf, p) for hf in fan.hforms[1:])


def require_valid(fan):
    diags = validate_fan(fan)
    if diags:
        raise InvalidFanError(diags)
    return fan


def locate_max_cone(fan, v):
    """Index of the first maximal cone containing v, or None."""
    for ci, hf in enumerate(fan.hforms):
        if in_hform(hf, v):
            return ci
    return None


def wall_partners(fan, ci, ray_idx):
    """Rays spanning a two-dimensional face with ray_idx in max cone ci
    of a valid fan: every other ray of a simplicial full-dimensional
    cone, otherwise the rays j for which the equalities and the facet
    normals vanishing on u_i and u_j (i = ray_idx) have rank n - 2.

    Proof.  Let S be those facet normals and T the smallest face
    containing u_i and u_j.  Each normal is >= 0 on the cone, so it
    vanishes on T exactly when it is in S, and T is the cone cut by the
    zero sets of S (a face is the intersection of the facets containing
    it; Cox-Little-Schenck, Toric Varieties, 1.2).  At a point of T
    where every normal off S is positive, T fills a neighbourhood in the
    zero set of the equalities and S, so that set is T's span.  The
    cone is pointed and lists its extremal rays, so T has dimension 2
    exactly when it is the face spanned by u_i and u_j alone.
    """
    cone = fan.max_cones[ci]
    eqs, ineqs = fan.hforms[ci]
    if not eqs and len(cone) == fan.rank:
        return set(cone) - {ray_idx}
    on_u = [phi for phi in ineqs if vec_dot(phi, fan.rays[ray_idx]) == 0]
    return {j for j in cone if j != ray_idx and rank_q(
        list(eqs) + [phi for phi in on_u if vec_dot(phi, fan.rays[j]) == 0])
        == fan.rank - 2}


def cone_dim(fan, cone):
    return rank_q(fan.cone_rays(cone))


def is_simplicial_cone(fan, cone):
    return cone_dim(fan, cone) == len(cone)


def is_simplicial(fan):
    return all(is_simplicial_cone(fan, c) for c in fan.max_cones)


def is_complete(fan):
    """Exact completeness test: the fan is valid and its validation
    passed the test of _covers_once, whose docstring proves that a fan
    passing it is valid and complete.  Invalid fans are never complete.

    Conversely a valid complete fan always passes.  (a) A maximal cone s
    of lower dimension would hold a relative interior point x in some
    other cone t, as points near x off the span of s are covered by the
    other (closed) cones; the face s & t of s then contains x, so s lies
    in t, and validity forbids nested maximal cones.  (b) Near a relative
    interior point f of a facet F of s, the points beyond F lie in other
    cones, so f lies in some t != s on the far side; the face s & t of s
    contains f and is not s, so it is F, a face of t of codimension one:
    a facet of t, with the same rays since rays are distinct.  A third
    cone with the facet F would share an interior point with s or t near
    f, and a face of s (or t) holding an interior point is all of it:
    nested again.  (c) p is interior to cone 0, so a cone containing it
    would contain cone 0.
    """
    return fan._verdict[1]


def star_subdivision(fan, v):
    """Star subdivision at a primitive vector v in the fan's support.

    Cones containing v are replaced by joins of v with their facets not
    containing v; the new ray is appended after the existing ones.  If v
    already is a ray, the fan is returned unchanged.
    """
    v = tuple(as_int(x, "a subdivision vector entry") for x in v)
    if not any(v):
        raise ValueError("cannot subdivide at the origin")
    if not is_primitive(v):
        raise ValueError(f"subdivision vector {v} is not primitive")
    if v in fan.rays:
        return fan
    hit = [ci for ci, hf in enumerate(fan.hforms) if in_hform(hf, v)]
    if not hit:
        raise ValueError(f"{v} is not in the support of the fan")
    vi = len(fan.rays)
    new_cones = []
    for ci, cone in enumerate(fan.max_cones):
        if ci not in hit:
            new_cones.append(cone)
            continue
        # each facet normal cuts out one facet; v lies in the facet
        # exactly when the normal vanishes on it
        for phi in fan.hforms[ci][1]:
            if vec_dot(phi, v) != 0:
                new_cones.append(tuple(i for i in cone
                                       if vec_dot(phi, fan.rays[i]) == 0)
                                 + (vi,))
    return make_fan(fan.rank, fan.rays + (v,), sorted(set(new_cones)))


class StarFan(NamedTuple):
    """Fan of the orbit closure of a ray (an invariant prime divisor).

    fan: the quotient fan in N / Z u_center (rank drops by one).
    center: index of the distinguished ray of the source fan.
    partners: global indices of source rays spanning a two-dimensional cone
      with the center; partner i maps to star ray partner_star[i].
    multiplicity: for each partner, the lattice index of the wall
      cone(center, partner) — the Cartier index of the divisor along that
      codimension-one orbit.
    """

    fan: Fan
    center: int
    partners: tuple
    partner_star: dict
    multiplicity: dict


def star_fan(fan, ray_idx):
    """Quotient fan seen by the invariant divisor at ray_idx.

    A fan of rank one has none: that is an input error (exit 1 in the
    CLI), whichever step of a computation meets it.
    """
    n = fan.rank
    if n < 2:
        raise InvalidInputError("star fan needs ambient rank >= 2")
    u = list(fan.rays[ray_idx])
    s = snf([[x] for x in u])
    if s.diag[0][0] != 1:
        raise ValueError("fan rays must be primitive")
    # s.left * u = e_1, so rows 1.. of s.left realize N / Z u
    proj = [list(s.left[i]) for i in range(1, n)]
    members = [wall_partners(fan, ci, ray_idx)
               for ci, cone in enumerate(fan.max_cones) if ray_idx in cone]
    partners = sorted(set().union(*members))
    star_rays = []
    partner_star = {}
    multiplicity = {}
    for p in partners:
        img = mat_vec(proj, list(fan.rays[p]))
        ell = vec_gcd(img)
        w = primitive_vector(img)
        partner_star[p] = len(star_rays)
        multiplicity[p] = ell
        star_rays.append(w)
    star_cones = {tuple(sorted(partner_star[j] for j in m)) for m in members}
    sf = make_fan(n - 1, star_rays, sorted(star_cones))
    return StarFan(fan=sf, center=ray_idx, partners=tuple(partners),
                   partner_star=partner_star, multiplicity=multiplicity)
