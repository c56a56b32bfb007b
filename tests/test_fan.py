import json
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import toricomplex.fan
import toricomplex.lattice
from toricomplex.fan import (
    _FAN_TABLE_SIZE,
    InvalidFanError,
    _interned,
    cone_dim,
    is_complete,
    is_simplicial,
    locate_max_cone,
    make_fan,
    require_valid,
    star_fan,
    star_subdivision,
    validate_fan,
    wall_partners,
)
from toricomplex.lattice import (
    cone_hform,
    extremal_rays,
    is_primitive,
    primitive_vector,
    rank_q,
    vec_dot,
)
from toricomplex.pairmodel import build_pair, pair_from_dict

from bruteforce import sampled_is_complete
from fans import (A1_SING, A2, A3, CONIFOLD, P1, P2, P3, SUITE, fan_product,
                  projective_space)
from helpers import (cone_multiplicity, cones_of_dim, face_lattice_partners,
                     is_smooth)

# Full-dimensional cones with every facet in exactly two of them, yet not
# fans: three overlapping quadrants, and five cones winding twice around
# the origin (which every sample point sees covered).
CYCLE = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])
PENTAGRAM = make_fan(2, [(1, 0), (1, 3), (-4, 3), (-4, -3), (1, -3)],
                     [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)])
# Every facet in exactly two cones and (1, 1) in cone 0 only, but the
# cones fold back at the rays (1, -2) and (-1, -2), where both cones of
# a facet lie on the same side of it.
FOLD = make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -2), (-1, -2)],
                [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def test_suite_fans_valid_and_complete():
    for name, f in SUITE.items():
        assert validate_fan(f) == [], name
        assert is_complete(f), name
        assert is_smooth(f), name


def test_affine_fans():
    assert validate_fan(A2) == []
    assert not is_complete(A2)
    assert validate_fan(A1_SING) == []
    assert is_simplicial(A1_SING)
    assert not is_smooth(A1_SING)
    assert cone_multiplicity(A1_SING, (0, 1)) == 2
    assert validate_fan(CONIFOLD) == []
    assert not is_simplicial(CONIFOLD)


def test_multiplicity_needs_simplicial():
    with pytest.raises(ValueError):
        cone_multiplicity(CONIFOLD, (0, 1, 2, 3))


def test_validate_overlapping():
    bad = make_fan(2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)])
    assert any(c == "overlapping-cones" for c, _ in validate_fan(bad))


def test_validate_nonprimitive():
    bad = make_fan(2, [(2, 0), (0, 1)], [(0, 1)])
    assert any(c == "nonprimitive-ray" for c, _ in validate_fan(bad))


def test_validate_duplicate_ray():
    bad = make_fan(2, [(1, 0), (1, 0)], [(0, 1)])
    codes = {c for c, _ in validate_fan(bad)}
    assert "duplicate-ray" in codes


def test_validate_nested():
    bad = make_fan(2, [(1, 0), (0, 1)], [(0, 1), (0,)])
    assert any(c == "nested-max-cones" for c, _ in validate_fan(bad))


def test_validate_stray_ray():
    bad = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1)])
    assert any(c == "stray-ray" for c, _ in validate_fan(bad))


def test_validate_nonpointed():
    bad = make_fan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)])
    assert any(c == "nonpointed-cone" for c, _ in validate_fan(bad))


def test_validate_nonextremal():
    bad = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])
    assert any(c == "nonextremal-generator" for c, _ in validate_fan(bad))


def test_star_subdivision_p2():
    b = star_subdivision(P2, (1, 1))
    assert b.rays == ((1, 0), (0, 1), (-1, -1), (1, 1))
    assert validate_fan(b) == []
    assert is_complete(b) and is_smooth(b)
    assert len(b.max_cones) == 4


def test_star_subdivision_noop_on_ray():
    assert star_subdivision(P2, (1, 0)) == P2


def test_star_subdivision_errors():
    with pytest.raises(ValueError):
        star_subdivision(P2, (2, 2))
    with pytest.raises(ValueError):
        star_subdivision(A2, (-1, 0))


@pytest.mark.parametrize("v", [(1.9, 1.2), (1.0, 1), (True, 1)])
def test_star_subdivision_rejects_non_integers(v):
    # truncating (1.9, 1.2) would subdivide P2 at (1, 1)
    with pytest.raises(TypeError):
        star_subdivision(P2, v)


def test_conifold_small_resolution_fan():
    y = star_subdivision(CONIFOLD, (1, 1, 2))
    assert validate_fan(y) == []
    assert is_smooth(y)
    assert len(y.max_cones) == 4


def test_star_fan_of_exceptional_is_p1xp1():
    y = star_subdivision(CONIFOLD, (1, 1, 2))
    sf = star_fan(y, 4)
    assert validate_fan(sf.fan) == []
    assert is_complete(sf.fan) and is_smooth(sf.fan)
    assert len(sf.fan.rays) == 4
    # two pairs of opposite rays: the quadric surface
    rays = set(sf.fan.rays)
    assert all(tuple(-x for x in r) in rays for r in rays)
    assert all(m == 1 for m in sf.multiplicity.values())


def test_star_fan_of_p2_line():
    sf = star_fan(P2, 0)
    assert is_complete(sf.fan)
    assert sf.fan.rank == 1
    assert len(sf.fan.rays) == 2


def test_star_fan_multiplicity():
    # wall cone((0,1),(2,1)) has index 2; seen from the divisor at (0,1)
    sf = star_fan(A1_SING, 0)
    assert sf.multiplicity[1] == 2


def test_star_fan_rejects_a_nonprimitive_ray():
    # the check stays on under python -O, as the rank check does
    fan = make_fan(2, [(2, 0), (0, 1)], [(0, 1)])
    with pytest.raises(ValueError, match="primitive"):
        star_fan(fan, 0)


def test_cones_of_dim():
    assert len(cones_of_dim(P2, 1)) == 3
    assert len(cones_of_dim(P2, 2)) == 3
    assert len(cones_of_dim(P3, 2)) == 6
    assert len(cones_of_dim(CONIFOLD, 2)) == 4


def test_locate_max_cone():
    assert locate_max_cone(P2, (1, 1)) == 0
    assert locate_max_cone(A2, (-1, 0)) is None


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SUITE)), st.tuples(
    st.integers(-3, 3), st.integers(-3, 3)))
def test_subdivision_preserves_validity(name, v):
    f = SUITE[name]
    if f.rank != 2 or not any(v):
        return
    v = primitive_vector(v)
    g = star_subdivision(f, v)
    assert validate_fan(g) == []
    assert is_complete(g)
    if v not in f.rays:
        assert len(g.rays) == len(f.rays) + 1


def _unimodular_image(fan, rng):
    """The fan under a random product of elementary integer matrices."""
    n = fan.rank
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    rays = [tuple(sum(a * x for a, x in zip(row, u)) for row in m)
            for u in fan.rays]
    return make_fan(n, rays, fan.max_cones)


def _random_fans(rng):
    """Complete fans, the same with one maximal cone dropped, and unions
    of two images of one fan (mostly overlapping, so invalid)."""
    out = [A2, A3, A1_SING, CONIFOLD, CYCLE, PENTAGRAM]
    for fan in SUITE.values():
        for _ in range(3):
            f = _unimodular_image(fan, rng)
            for _ in range(rng.randint(0, 3)):
                cone = f.max_cones[rng.randrange(len(f.max_cones))]
                gens = f.cone_rays(cone)
                v = primitive_vector(tuple(
                    sum(rng.randint(1, 3) * g[i] for g in gens)
                    for i in range(f.rank)))
                f = star_subdivision(f, v)
            out.append(f)
            drop = rng.randrange(len(f.max_cones))
            out.append(make_fan(f.rank, f.rays, f.max_cones[:drop]
                                + f.max_cones[drop + 1:]))
            g = _unimodular_image(f, rng)
            rays = list(f.rays) + [u for u in g.rays if u not in f.rays]
            cones = list(f.max_cones) + [
                tuple(rays.index(g.rays[i]) for i in c) for c in g.max_cones]
            out.append(make_fan(f.rank, rays, cones))
    return out


def test_is_complete_matches_sampling_oracle():
    fans = _random_fans(random.Random(20211017))
    kinds = {"complete": 0, "open": 0, "invalid": 0}
    for f in fans:
        expected = sampled_is_complete(f.rank, f.rays, f.max_cones)
        if validate_fan(f):
            kinds["invalid"] += 1
            assert not is_complete(f), f
        else:
            kinds["complete" if expected else "open"] += 1
            assert is_complete(f) == expected, f
    assert min(kinds.values()) >= 10, kinds
    # the oracle alone is fooled by a double cover of the plane
    assert sampled_is_complete(2, PENTAGRAM.rays, PENTAGRAM.max_cones)
    assert validate_fan(CYCLE) and validate_fan(PENTAGRAM)


def test_fan_and_pair_geometry_is_derived_once(monkeypatch):
    calls = {"extremal_rays": 0, "cone_hform": 0}

    def counting(name):
        real = getattr(toricomplex.fan, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(toricomplex.fan, name, counting(name))
    fan = make_fan(P3.rank, P3.rays, P3.max_cones)
    pair = build_pair(fan, [1] * len(fan.rays))
    assert calls["cone_hform"] == len(fan.max_cones)
    assert calls["extremal_rays"] == len(fan.max_cones)
    calls.update(dict.fromkeys(calls, 0))
    build_pair(fan, [1] * len(fan.rays))
    require_valid(fan)
    assert is_complete(fan)
    assert calls == {"extremal_rays": 0, "cone_hform": 0}

    verdict = validate_fan(CYCLE)
    validate_fan(CYCLE).clear()
    validate_fan(fan).append(("stray-ray", "injected"))
    assert validate_fan(CYCLE) == verdict
    assert validate_fan(fan) == [] and is_complete(fan)

    assert pair.class_group is pair.class_group


# The fans of the test_validate_* tests, CYCLE, PENTAGRAM and at least
# one fan per diagnostic code, each with its full verdict (codes, details
# and order) as recorded from the LP-based pointedness and extremality
# tests that the H-form rank tests replaced.
OVERLAP = "meet outside a common face"
VERDICTS = [
    ((2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)]),
     [("overlapping-cones", f"cones 0 and 1 {OVERLAP}")]),
    ((2, [(2, 0), (0, 1)], [(0, 1)]),
     [("nonprimitive-ray", "ray 0 = (2, 0)")]),
    ((2, [(1, 0), (1, 0)], [(0, 1)]),
     [("duplicate-ray", "rays 0 and 1 coincide")]),
    ((2, [(1, 0), (0, 1)], [(0, 1), (0,)]),
     [("nested-max-cones", "cones 0 and 1")]),
    ((2, [(1, 0), (0, 1), (1, 1)], [(0, 1)]),
     [("stray-ray", "ray 2 appears in no maximal cone")]),
    ((2, [(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)]),
     [("nonpointed-cone", "cone 0 has a lineality space")]),
    ((2, [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)]),
     [("nonextremal-generator", "cone 0 lists a non-extremal ray")]),
    ((CYCLE.rank, CYCLE.rays, CYCLE.max_cones),
     [("overlapping-cones", f"cones 0 and 1 {OVERLAP}"),
      ("overlapping-cones", f"cones 0 and 2 {OVERLAP}")]),
    ((PENTAGRAM.rank, PENTAGRAM.rays, PENTAGRAM.max_cones),
     [("overlapping-cones", f"cones {i} and {j} {OVERLAP}")
      for i, j in ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))]),
    ((0, [], []),
     [("bad-rank", "rank must be >= 1, got 0")]),
    ((2, [(1, 0), (1, 0, 0)], [(0,)]),
     [("bad-ray", "ray 1 has length 3, want 2")]),
    ((2, [(0, 0), (2, 2), (1, 0), (1, 0)], [(0, 1, 2, 3)]),
     [("bad-ray", "ray 0 is zero"), ("nonprimitive-ray", "ray 1 = (2, 2)"),
      ("duplicate-ray", "rays 2 and 3 coincide")]),
    ((2, [(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3), (0, 9), (-1, 3)]),
     [("bad-ray-index", "cone 2 references a missing ray"),
      ("bad-ray-index", "cone 3 references a missing ray"),
      ("overlapping-cones", f"cones 0 and 1 {OVERLAP}")]),
    ((2, [(1, 0), (0, 1), (-1, -1)], [(0, 0, 1), (1, 2)]),
     [("duplicate-cone-entry", "cone 0 repeats a ray"),
      ("stray-ray", "ray 0 appears in no maximal cone")]),
    ((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2), (2, 3)]),
     [("nonpointed-cone", "cone 0 has a lineality space")]),
    ((2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 1, 2), (3,)]),
     [("nonpointed-cone", "cone 0 has a lineality space")]),
    ((3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2)],
      [(0, 1, 2, 3, 4)]),
     [("nonextremal-generator", "cone 0 lists a non-extremal ray")]),
    # the cones meet in rays they share, but those span no face of cone 0
    ((4, [(0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0), (1, 1, 1, 0),
          (0, 0, 0, 1)], [(0, 1, 2, 3), (0, 3, 4)]),
     [("overlapping-cones", f"cones 0 and 1 {OVERLAP}")]),
    ((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 1)],
      [(0, 1, 2), (2, 3, 4)]),
     [("overlapping-cones", f"cones 0 and 1 {OVERLAP}")]),
]


def test_validate_fan_verdicts_unchanged():
    codes = set()
    for (rank, rays, cones), expected in VERDICTS:
        assert validate_fan(make_fan(rank, rays, cones)) == expected, rays
        codes.update(code for code, _ in expected)
    assert codes == {
        "bad-rank", "bad-ray", "nonprimitive-ray", "duplicate-ray",
        "bad-ray-index", "duplicate-cone-entry", "stray-ray",
        "nonpointed-cone", "nonextremal-generator", "nested-max-cones",
        "overlapping-cones"}


def _facet_count_complete(fan):
    """is_complete as it stood before the pseudomanifold test: a valid
    fan is complete exactly when every maximal cone is full-dimensional
    and every facet lies in exactly two of them."""
    count = Counter()
    for cone, (eqs, ineqs) in zip(fan.max_cones, fan.hforms):
        if eqs:
            return False
        for phi in ineqs:
            count[frozenset(i for i in cone
                            if vec_dot(phi, fan.rays[i]) == 0)] += 1
    return bool(fan.max_cones) and all(k == 2 for k in count.values())


def _pairwise_diagnose(fan, monkeypatch):
    """_diagnose with the pseudomanifold test switched off."""
    with monkeypatch.context() as m:
        m.setattr(toricomplex.fan, "_covers_once", lambda fan: False)
        return toricomplex.fan._diagnose(fan)[0]


def _swap_cone(fan, k, rng):
    """The fan with cone k swapped for a pointed full-dimensional cone
    listing its extremal rays: cone k with one ray traded for another
    ray of the fan.  None when no trade gives such a cone."""
    cone = fan.max_cones[k]
    trades = [tuple(sorted(set(cone) - {r} | {t}))
              for r in cone for t in range(len(fan.rays)) if t not in cone]
    rng.shuffle(trades)
    for new in trades:
        gens = fan.cone_rays(new)
        hform = cone_hform(gens, fan.rank)
        if not hform[0] and extremal_rays(gens, hform) == sorted(gens):
            return make_fan(fan.rank, fan.rays, fan.max_cones[:k] + (new,)
                            + fan.max_cones[k + 1:])
    return None


def _differential_fans(rng):
    """Random star subdivisions of complete fans in ranks 2-5 under
    unimodular maps, each also with one cone dropped, swapped for one
    that overlaps others, or duplicated; products of FOLD and of a
    double cover of the plane with P1 and P2, which pair every facet but
    are not fans; and P2 with two opposite rays as extra cones, whose
    one facet, the origin, is paired too."""
    bases = [f for f in SUITE.values() if f.rank >= 2] + [
        projective_space(4), projective_space(5), fan_product(P1, P3),
        fan_product(P2, P2), fan_product(P1, projective_space(4))]
    out = [fan_product(f, g) for f in (FOLD, PENTAGRAM) for g in (P1, P2)]
    out.append(make_fan(2, P2.rays + ((1, 2), (-1, -2)),
                        P2.max_cones + ((3,), (4,))))
    for base in bases:
        for _ in range(2):
            f = _unimodular_image(base, rng)
            # the pairwise check is quadratic in the cones: keep the
            # higher ranks small
            for _ in range(rng.randint(1, 3 if f.rank <= 3 else 1)):
                cone = f.max_cones[rng.randrange(len(f.max_cones))]
                v = primitive_vector(tuple(
                    sum(rng.randint(1, 3) * g[i] for g in f.cone_rays(cone))
                    for i in range(f.rank)))
                f = star_subdivision(f, v)
            out.append(f)
            k = rng.randrange(len(f.max_cones))
            kind = rng.choice(("drop", "swap", "duplicate"))
            swapped = _swap_cone(f, k, rng) if kind == "swap" else None
            if swapped is not None:
                out.append(swapped)
            elif kind == "drop":
                out.append(make_fan(f.rank, f.rays, f.max_cones[:k]
                                    + f.max_cones[k + 1:]))
            else:
                out.append(make_fan(f.rank, f.rays,
                                    f.max_cones + (f.max_cones[k],)))
    return out


def test_fast_path_matches_pairwise_check(monkeypatch):
    """validate_fan and is_complete against the pairwise check forced on
    the same Fan, with the facet count that is_complete used before as
    the completeness reference for valid fans."""
    kinds = Counter()
    for f in _differential_fans(random.Random(20261018)):
        pairwise = _pairwise_diagnose(f, monkeypatch)
        assert validate_fan(f) == pairwise, f
        assert is_complete(f) == (not pairwise and _facet_count_complete(f)), f
        if is_complete(f):
            kinds["complete"] += 1
        elif any(code == "overlapping-cones" for code, _ in pairwise):
            kinds["overlapping"] += 1
        else:
            kinds["invalid" if pairwise else "open"] += 1
    assert min(kinds.values()) >= 4, kinds
    assert kinds["complete"] >= 20, kinds


def test_complete_fans_skip_the_pairwise_check(monkeypatch):
    """P^7 and (P^1)^6 are proved complete without intersecting a single
    pair of cones; a fan that is not complete still takes the pairwise
    check."""
    calls = []
    real = toricomplex.fan.cone_intersection

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(toricomplex.fan, "cone_intersection", counting)
    p1_6 = P1
    for _ in range(5):
        p1_6 = fan_product(p1_6, P1)
    for fan in (projective_space(7), p1_6):
        assert validate_fan(fan) == [] and is_complete(fan)
    assert (len(p1_6.max_cones), len(calls)) == (64, 0)

    germ = star_subdivision(A3, (1, 1, 1))
    assert validate_fan(germ) == [] and not is_complete(germ)
    assert len(calls) > 0
    calls.clear()
    fold = make_fan(FOLD.rank, FOLD.rays, FOLD.max_cones)
    assert validate_fan(fold) and not is_complete(fold)
    assert len(calls) > 0


def test_validation_and_cone_dim_need_no_smith_form(monkeypatch):
    """Validating a complete fan and the dimension of a cone are ranks
    by elimination: neither computes a Smith normal form."""
    calls = []
    real = toricomplex.lattice.snf

    def counting(m):
        calls.append(m)
        return real(m)

    for module in (toricomplex.lattice, toricomplex.fan):
        monkeypatch.setattr(module, "snf", counting)
    p1_3 = fan_product(P1, fan_product(P1, P1))
    for fan in (make_fan(P2.rank, P2.rays, P2.max_cones), p1_3,
                star_subdivision(projective_space(3), (1, 1, 1))):
        assert validate_fan(fan) == [] and is_complete(fan)
    assert [cone_dim(p1_3, c) for c in ((), (0,), (0, 2), (0, 2, 4))] == \
        [0, 1, 2, 3]
    assert calls == []


def _cube_cone(d):
    """The one-cone fan over the (d - 1)-cube: rays (e, 1), e in {0, 1}^(d-1)."""
    rays = [tuple((k >> b) & 1 for b in range(d - 1)) + (1,)
            for k in range(2 ** (d - 1))]
    return make_fan(d, rays, [tuple(range(len(rays)))])


def _random_subdivisions(fan, rng, times):
    """fan star-subdivided at `times` random interior points of cones."""
    for _ in range(times):
        cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
        v = [sum(xs) for xs in zip(*(
            [rng.randint(1, 3) * x for x in fan.rays[i]] for i in cone))]
        fan = star_subdivision(fan, primitive_vector(v))
    return fan


def _wall_cases():
    """Valid fans with simplicial, non-simplicial and lower-dimensional
    maximal cones."""
    rng = random.Random(16)
    fans = list(SUITE.values())
    fans += [_random_subdivisions(f, rng, 2) for f in SUITE.values()
             for _ in range(2)]
    fans += [A1_SING, A2, A3, CONIFOLD, make_fan(3, [(1, 0, 1), (0, 1, 1),
                                                      (-1, 0, 1), (0, -1, 1)],
                                                  [(0, 1, 2, 3)])]
    while len(fans) < 60:
        rays = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        if all(is_primitive(r) for r in rays) and rank_q(rays) == 3:
            fans.append(make_fan(3, rays, [(0, 1, 2)]))
    fans += [_cube_cone(d) for d in (3, 4, 5)]
    # the complete fan over the faces of the cube, a star subdivision of
    # it, and (P^1)^3, the fan over the faces of the octahedron
    cube = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    cube_fan = make_fan(3, cube, [
        tuple(i for i, r in enumerate(cube) if r[k] == s)
        for k in range(3) for s in (1, -1)])
    fans += [cube_fan, _random_subdivisions(cube_fan, rng, 2),
             fan_product(P1, fan_product(P1, P1))]
    # lower-dimensional maximal cones: a plane cone next to the orthant,
    # and the cone over a square and a triangle in rank 4
    fans.append(make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                         [(0, 1, 2), (0, 3)]))
    fans.append(make_fan(4, [(0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0),
                             (1, 1, 1, 0)], [(0, 1, 2, 3)]))
    fans.append(make_fan(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)],
                         [(0, 1, 2)]))
    return fans


def test_wall_partners_match_face_lattice():
    kinds = Counter()
    for fan in _wall_cases():
        assert validate_fan(fan) == [], fan
        for ci, cone in enumerate(fan.max_cones):
            eqs, _ = fan.hforms[ci]
            kinds["simplicial" if not eqs and len(cone) == fan.rank
                  else "lower-dimensional" if eqs else "non-simplicial"] += 1
            for i in cone:
                assert wall_partners(fan, ci, i) == \
                    face_lattice_partners(fan, ci, i), (fan, ci, i)
    assert min(kinds.values()) >= 3 and len(kinds) == 3, kinds


def test_simplicial_validation_takes_one_rank_per_cone(monkeypatch):
    """Pointedness and extremality of a simplicial cone need no rank,
    and cone_hform ranks nothing: validating a simplicial fan takes no
    rank at all."""
    calls = []
    real = toricomplex.lattice.rank_q

    def counting(vectors):
        calls.append(vectors)
        return real(vectors)

    for module in (toricomplex.lattice, toricomplex.fan):
        monkeypatch.setattr(module, "rank_q", counting)
    for fan in (projective_space(4), fan_product(P1, fan_product(P2, P1))):
        fan = make_fan(fan.rank, fan.rays, fan.max_cones)
        calls.clear()
        assert validate_fan(fan) == [] and is_complete(fan)
        assert len(calls) == 0


def test_projective_space_minus_one_cone_at_rank_seven():
    """P^7 with one maximal cone dropped is a valid fan that is not
    complete; its pairwise check meets 21 cone pairs in rank 7."""
    p7 = projective_space(7)
    fan = make_fan(7, p7.rays, p7.max_cones[1:])
    assert validate_fan(fan) == []
    assert not is_complete(fan)


# ---------------------------------------------------------------------------
# one Fan per content


def test_spellings_of_one_fan_are_one_object():
    """Lists or tuples, cone indices in any order: make_fan normalizes
    them to one content and returns one object for it."""
    a = make_fan(2, [[1, 0], [0, 1], [-1, -1]], [[1, 0], [2, 1], [0, 2]])
    b = make_fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))
    assert a is b
    assert a == P2 and a.max_cones == ((0, 1), (1, 2), (0, 2))
    assert make_fan(2, a.rays, a.max_cones[::-1]) is not a


@pytest.mark.parametrize("rank, rays", [
    (2, [(1, 0), (0, True), (-1, -1)]),
    (2, [(1, 0), (0, 1.0), (-1, -1)]),
    (2, [(1, 0), (0, 1), (-1, -2.0)]),
    (True, [(1,), (-1,)]),
    (2.0, [(1, 0), (0, 1), (-1, -1)]),
])
def test_make_fan_rejects_non_integers_of_a_known_fan(rank, rays):
    """True == 1 and 2.0 == 2, so the table would take them for a fan it
    holds; they are rejected before it is asked."""
    cones = [(0, 1), (1, 2), (0, 2)] if len(rays) == 3 else [(0,), (1,)]
    make_fan(2, [(1, 0), (0, 1), (-1, -1)], cones)
    make_fan(1, [(1,), (-1,)], [(0,), (1,)])
    with pytest.raises(TypeError):
        make_fan(rank, rays, cones)
    with pytest.raises(TypeError):
        make_fan(1, [(1,), (-1,)], [(0,), (True,)])


def test_an_invalid_fan_fails_the_same_way_twice():
    """The verdict is kept on the shared object, and what validate_fan
    hands out is the caller's own list."""
    doc = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
           "max_cones": [[0, 1], [1, 2], [0, 2]], "boundary": [1, 1, 1]}
    errors = []
    for _ in range(2):
        with pytest.raises(InvalidFanError) as info:
            pair_from_dict(doc)
        errors.append(info.value)
        validate_fan(CYCLE).append(("spoiled", "by a caller"))
    assert errors[0].diagnostics == errors[1].diagnostics
    assert str(errors[0]) == str(errors[1])
    assert ("spoiled", "by a caller") not in errors[1].diagnostics
    assert validate_fan(CYCLE) == list(CYCLE.diagnostics) == errors[0].diagnostics


def test_shared_derived_data_is_immutable():
    """Every caller of make_fan with this content shares these values,
    so the H-forms are tuples all the way down."""
    fan = make_fan(3, CONIFOLD.rays, CONIFOLD.max_cones)
    assert fan.diagnostics == ()
    for eqs, ineqs in fan.hforms:
        assert type(eqs) is tuple and type(ineqs) is tuple
        assert all(type(phi) is tuple for phi in eqs + ineqs)


@pytest.mark.parametrize("fan", [P2, P3, A1_SING, CONIFOLD,
                                 star_subdivision(A3, (1, 1, 1))])
def test_every_derived_fan_value_hashes(fan):
    """The verdict, the H-forms, the Smith form and the class groups an
    interned fan hands out are built of tuples only, so no holder of the
    fan can change them under another: each of them hashes."""
    fan = make_fan(fan.rank, fan.rays, fan.max_cones)
    values = [fan.diagnostics, fan.hforms, fan.smith_form, fan.class_group,
              is_complete(fan)]
    values += [fan.local_class_group(c) for c in fan.max_cones]
    for value in values:
        hash(value)


def test_a_second_reading_derives_nothing(monkeypatch):
    """A second document over the same fan finds the fan's verdict,
    H-forms and class groups already derived: no _diagnose, cone_hform
    or Smith form."""
    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for module, name in [(toricomplex.fan, "_diagnose"),
                         (toricomplex.fan, "cone_hform"),
                         (toricomplex.fan, "snf"),
                         (toricomplex.fan, "cokernel"),
                         (toricomplex.lattice, "snf")]:
        if hasattr(module, name):
            monkeypatch.setattr(module, name,
                                counting(name, getattr(module, name)))
    docs = [{"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
             "max_cones": [[0, 1], [1, 2], [0, 2]],
             "boundary": ["1/2", "1/3", "1"]},
            {"rank": 2, "rays": [[0, 1], [2, 1]], "max_cones": [[1, 0]],
             "boundary": ["1", "1/2"], "mode": "local", "cone": [0, 1]}]
    for doc in docs:
        calls.clear()
        first = pair_from_dict(doc)
        first.class_group
        assert calls["_diagnose"] == 1 and calls["snf"] + calls["cokernel"]
        calls.clear()
        second = pair_from_dict(json.loads(json.dumps(doc)))
        assert second.fan is first.fan
        assert second.class_group is first.class_group
        assert not calls, calls


def test_the_class_group_lives_on_the_fan():
    pair = build_pair(P2, [1, 1, 1])
    assert pair.class_group is P2.class_group
    local = build_pair(A1_SING, [1, 1], mode="local", cone=(0, 1))
    assert local.class_group is A1_SING.local_class_group([0, 1])
    assert A1_SING.local_class_group((0, 1)).torsion == (2,)


def test_the_fan_table_is_bounded():
    """The table keeps the _FAN_TABLE_SIZE fans last asked for: the
    first fan is rebuilt once that many others have been made since."""
    def other(k):
        return make_fan(1, [(1,), (-1,)], [(0,), (1,)] * (k + 1))

    first = make_fan(2, P2.rays, P2.max_cones)
    for k in range(_FAN_TABLE_SIZE - 1):
        other(k)
    assert make_fan(2, P2.rays, P2.max_cones) is first
    for k in range(_FAN_TABLE_SIZE):
        other(k)
    again = make_fan(2, P2.rays, P2.max_cones)
    assert again is not first and again == first


def test_threads_share_one_fan_and_its_derived_data():
    """Threads that empty the table, build one fan and read it at once
    all get its verdict and class group: what a race may do is derive a
    value twice, never change one."""
    p5 = projective_space(5)
    expected = (validate_fan(p5), p5.class_group.free_rank,
                p5.class_group.torsion)
    seen = []

    def work():
        for _ in range(20):
            _interned.cache_clear()
            fan = make_fan(5, p5.rays, p5.max_cones)
            seen.append((validate_fan(fan), fan.class_group.free_rank,
                         fan.class_group.torsion))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 20
    assert all(values == expected for values in seen)
