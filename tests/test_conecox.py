import itertools
import random
from fractions import Fraction as F

import pytest

from toricomplex.conecox import (
    NotAmpleError,
    NotInteriorError,
    TorsionObstructionError,
    _torsion_witness,
    cone_over,
    cox_degrees,
    degree_zero_monoid,
    polarize,
    verify_cone_iso,
)
from toricomplex.fan import make_fan
from toricomplex.lattice import (cokernel, cone_hform, extremal_rays,
                                 primitive_vector, vec_dot)

from bruteforce import unimodular_cone_map
from fans import A1_SING, A2, CONIFOLD, P1, P1XP1

# index-4 cyclic germ whose blow-up class group keeps 2-torsion
TORSION_CONE = make_fan(2, [(1, 2), (1, -2)], [(0, 1)])


def brute_zero_monoid(pres, n, bound=6):
    """Minimal generators of the degree-zero orthant slice, by enumeration."""
    members = set()
    for x in itertools.product(range(bound + 1), repeat=n):
        if any(x) and pres.is_zero_class(list(x)):
            members.add(x)
    hb = []
    for x in members:
        parts = ((tuple(a - b for a, b in zip(x, y)), y) for y in members)
        if not any(z in members for z, y in parts if y != x):
            hb.append(x)
    return sorted(hb)


# ---------------------------------------------------------------------------
# cones over polarized varieties
# ---------------------------------------------------------------------------

def test_cone_over_p1_degree_one_is_smooth_plane():
    cone = cone_over(polarize(P1, [1, 0]))
    assert cone.rank == 2
    assert cone.rays == ((1, 1), (-1, 0))
    assert unimodular_cone_map(cone.rays, [(1, 0), (0, 1)]) is not None


def test_cone_over_p1_degree_two_is_a1():
    cone = cone_over(polarize(P1, [2, 0]))
    assert cone.rays == ((1, 2), (-1, 0))
    assert unimodular_cone_map(cone.rays, [(0, 1), (2, 1)]) is not None
    # not the smooth cone: the dual has three minimal monomial sections
    assert unimodular_cone_map(cone.rays, [(1, 0), (0, 1)]) is None


def test_cone_over_p1xp1_bidegree_one_is_conifold():
    cone = cone_over(polarize(P1XP1, [1, 1, 0, 0]))
    assert cone.rank == 3
    assert unimodular_cone_map(cone.rays, CONIFOLD.rays) is not None


def test_cone_over_linearly_equivalent_polarizations_agree():
    # (1,0) and (0,1) on P1 differ by a character, so give isomorphic cones
    a = cone_over(polarize(P1, [1, 0]))
    b = cone_over(polarize(P1, [0, 1]))
    assert unimodular_cone_map(a.rays, b.rays) is not None


def test_cone_over_fractional_polarization():
    # restricting -E of the subdivision of cone((1,0),(1,2)) at (2,1)
    # gives coefficient 2/3 at one ray; the cone stays integral
    cone = cone_over(polarize(P1, [F(2, 3), 0]))
    assert cone.rays == ((3, 2), (-1, 0))


def test_cone_over_rejects_non_ample():
    with pytest.raises(NotAmpleError):
        polarize(P1XP1, [1, 0, 0, 0])  # nef but not strictly convex
    with pytest.raises(NotAmpleError):
        polarize(P1, [-1, 0])
    with pytest.raises(NotAmpleError):
        polarize(A2, [1, 1])  # not complete


# ---------------------------------------------------------------------------
# cox degrees
# ---------------------------------------------------------------------------

def test_cox_degrees_blowup_of_plane():
    g = cox_degrees(A2, (1, 1))
    assert g.cl_y.free_rank == 1 and not g.cl_y.torsion
    assert g.cl_x.free_rank == 0 and not g.cl_x.torsion
    assert g.y_fan.rays == ((1, 0), (0, 1), (1, 1))
    # [E1] = [E2] = -[E] under any choice of generator
    (f1, t1), (f2, t2) = g.ray_classes
    fe, te = g.e_class
    assert (f1, t1) == (f2, t2)
    assert abs(f1[0]) == 1 and not t1
    assert fe == (-f1[0],)


def test_cox_degrees_a1_cone():
    g = cox_degrees(A1_SING, (1, 1))
    assert g.cl_y.free_rank == 1 and not g.cl_y.torsion
    (f1, _), (f2, _) = g.ray_classes
    assert f1 == f2 and abs(f1[0]) == 1
    assert g.e_class[0] == (-2 * f1[0],)


def test_cox_degrees_conifold_cone():
    g = cox_degrees(CONIFOLD, (1, 1, 2))
    assert g.cl_y.free_rank == 2 and not g.cl_y.torsion
    assert g.cl_x.free_rank == 1
    c = [cls for cls, _ in g.ray_classes]
    # opposite corners of the square agree; a corner pair sums to -[E]
    assert c[0] == c[3] and c[1] == c[2]
    summed = tuple(a + b + e for a, b, e in zip(c[0], c[1], g.e_class[0]))
    assert summed == (0, 0)


def test_cox_degrees_rank_steps_by_one():
    for fan, v in [(A2, (1, 1)), (A1_SING, (1, 1)),
                   (CONIFOLD, (1, 1, 2)), (TORSION_CONE, (1, 0))]:
        g = cox_degrees(fan, v)
        assert g.cl_y.free_rank == g.cl_x.free_rank + 1


def test_cox_degrees_interior_guards():
    with pytest.raises(NotInteriorError):
        cox_degrees(A2, (1, 0))  # an existing ray: no new divisor
    with pytest.raises(NotInteriorError):
        cox_degrees(A2, (0, 0))
    with pytest.raises(NotInteriorError):
        cox_degrees(A2, (-1, 2))
    with pytest.raises(ValueError):
        cox_degrees(A2, (2, 2))  # interior but not primitive
    with pytest.raises(ValueError):
        cox_degrees(P1XP1, (1, 1))  # not a single cone


@pytest.mark.parametrize("v", [(1.5, 1.2), (1.0, 1), (True, 1)])
def test_cox_degrees_rejects_non_integers(v):
    with pytest.raises(TypeError):
        cox_degrees(A2, v)


# ---------------------------------------------------------------------------
# the degree-zero monoid
# ---------------------------------------------------------------------------

def test_monoid_blowup_of_plane():
    mon = degree_zero_monoid(cox_degrees(A2, (1, 1)))
    assert mon.generators == ((0, 1, 1), (1, 0, 1))
    assert mon.tau == (1, 1)
    assert mon.cover_steps == ()


def test_monoid_a1_matches_invariant_ring():
    # x^2, xy, y^2: the three quadrics, each using e once
    mon = degree_zero_monoid(cox_degrees(A1_SING, (1, 1)))
    assert mon.generators == ((0, 2, 1), (1, 1, 1), (2, 0, 1))
    assert mon.tau == (1, 1, 1)


def test_monoid_conifold():
    mon = degree_zero_monoid(cox_degrees(CONIFOLD, (1, 1, 2)))
    assert mon.generators == ((0, 0, 1, 1, 1), (0, 1, 0, 1, 1),
                              (1, 0, 1, 0, 1), (1, 1, 0, 0, 1))
    assert mon.tau == (1, 1, 1, 1)
    # one binomial relation: the two diagonals multiply to the same monomial
    a, b, c, d = mon.generators
    assert tuple(x + y for x, y in zip(a, d)) == tuple(x + y for x, y in zip(b, c))


@pytest.mark.parametrize("fan,v", [
    (A2, (1, 1)), (A1_SING, (1, 1)), (CONIFOLD, (1, 1, 2)),
])
def test_monoid_matches_bruteforce(fan, v):
    g = cox_degrees(fan, v)
    mon = degree_zero_monoid(g)
    assert list(mon.generators) == brute_zero_monoid(g.cl_y, len(g.y_fan.rays))


def test_monoid_degrees_vanish_and_tau_adds():
    g = cox_degrees(CONIFOLD, (1, 1, 2))
    mon = degree_zero_monoid(g)
    for x in mon.generators:
        assert g.cl_y.is_zero_class(list(x))
    for x, y in itertools.combinations(mon.generators, 2):
        s = [a + b for a, b in zip(x, y)]
        assert g.cl_y.is_zero_class(s)
        assert s[-1] == x[-1] + y[-1]


def test_monoid_torsion_obstruction_and_cover():
    g = cox_degrees(TORSION_CONE, (1, 0))
    assert g.cl_y.torsion == (2,)
    assert g.cl_x.torsion == (4,)
    with pytest.raises(TorsionObstructionError):
        degree_zero_monoid(g)
    mon = degree_zero_monoid(g, torsion_cover=True)
    # one descent lands on the A1 germ: same three-generator monoid
    assert len(mon.cover_steps) == 1
    step = mon.cover_steps[0]
    assert step.order == 2
    assert mon.generators == ((0, 2, 1), (1, 1, 1), (2, 0, 1))
    assert mon.tau == (1, 1, 1)
    assert not mon.degrees.cl_y.torsion
    # the recorded character trivializes order * divisor on the old rays
    old = cox_degrees(TORSION_CONE, (1, 0)).y_fan
    for u, c in zip(old.rays, step.divisor):
        lhs = sum(mi * ui for mi, ui in zip(step.character, u))
        assert lhs == step.order * c


def test_torsion_witness_on_random_ray_matrices():
    """The witness divisor has class (0, e_j), the generator of the
    largest invariant factor; its order is that factor; and the
    character pairs with every ray to order times its coefficient."""
    rng = random.Random(18)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 5)
        rank = rng.randint(1, n)
        rays = [tuple(rng.randint(-4, 4) for _ in range(rank))
                for _ in range(n)]
        pres = cokernel([list(u) for u in rays])
        if not pres.torsion:
            continue
        # the witness reads only the rays of the fan it is given and
        # their Smith form, so a fan with no cones will do
        divisor, order, m = _torsion_witness(make_fan(rank, rays, []), pres)
        j = len(pres.torsion) - 1
        assert order == pres.torsion[j]
        assert pres.class_of(list(divisor)) == (
            (0,) * pres.free_rank, tuple(int(k == j) for k in range(j + 1)))
        assert [vec_dot(m, u) for u in rays] == [order * c for c in divisor]
        checked += 1


# ---------------------------------------------------------------------------
# the cone isomorphism
# ---------------------------------------------------------------------------

def test_cone_iso_named_cases():
    for fan, v in [(A2, (1, 1)), (A1_SING, (1, 1)), (CONIFOLD, (1, 1, 2))]:
        rep = verify_cone_iso(fan, v)
        assert rep.ok
        assert sorted(rep.ray_map) == list(range(len(fan.rays)))
        # the witness carries each input ray onto the matched target ray
        for i, u in enumerate(fan.rays):
            img = primitive_vector(tuple(sum(r * c for r, c in zip(row, u))
                                         for row in rep.witness))
            assert img == rep.target.rays[rep.ray_map[i]]


def test_cone_iso_exceptional_data():
    rep = verify_cone_iso(A1_SING, (1, 1))
    # E is a projective line polarized by a degree-two divisor
    assert rep.e_fan.rank == 1
    assert sorted(rep.e_fan.rays) == [(-1,), (1,)]
    assert sum(rep.polarization) == 2


def test_cone_iso_conifold_polarization():
    rep = verify_cone_iso(CONIFOLD, (1, 1, 2))
    assert rep.e_fan.rank == 2
    assert len(rep.e_fan.rays) == 4
    assert all(a >= 0 for a in rep.polarization)
    assert sum(rep.polarization) == 2
    assert unimodular_cone_map(rep.target.rays, CONIFOLD.rays) is not None


def test_cone_iso_symmetric_under_relabeling():
    relabeled = make_fan(3, [CONIFOLD.rays[2], CONIFOLD.rays[0],
                             CONIFOLD.rays[3], CONIFOLD.rays[1]],
                         [(0, 1, 2, 3)])
    a = verify_cone_iso(CONIFOLD, (1, 1, 2))
    b = verify_cone_iso(relabeled, (1, 1, 2))
    assert a.ok and b.ok
    assert sorted(a.target.rays) == sorted(b.target.rays)


def test_cone_iso_random_cones():
    rng = random.Random(7)
    checked = 0
    while checked < 12:
        rank = rng.choice([2, 3])
        nrays = rank if rank == 2 else rng.choice([3, 4])
        rays = {primitive_vector(tuple(rng.randint(0, 4) for _ in range(rank - 1))
                                 + (1,))
                for _ in range(nrays)}
        rays = extremal_rays(list(rays), cone_hform(list(rays), rank))
        if len(rays) < nrays:
            continue
        try:
            fan = make_fan(rank, rays, [tuple(range(len(rays)))])
        except Exception:
            continue
        total = tuple(sum(c) for c in zip(*rays))
        v = primitive_vector(total)
        try:
            rep = verify_cone_iso(fan, v)
        except (NotInteriorError, ValueError):
            continue
        assert rep.ok
        g = cox_degrees(fan, v)
        assert g.cl_y.free_rank == g.cl_x.free_rank + 1
        checked += 1


def test_unimodular_map_rejects_distinct_cones():
    assert unimodular_cone_map([(1, 0), (0, 1)], [(0, 1), (2, 1)]) is None
    # redundant generators do not change the cone: identity works here
    assert unimodular_cone_map([(1, 0), (0, 1)],
                               [(1, 0), (0, 1), (1, 1)]) is not None
