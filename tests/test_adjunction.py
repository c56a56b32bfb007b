import importlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricomplex.adjunction import (
    HypothesisViolationError,
    NotDivisorialCenterError,
    _checked_star,
    _induced_mode,
    _wall_index,
    check_adjunction,
    induced_decomposition,
    normalize_center,
)
from toricomplex.complexity import (
    decomposition_total,
    make_decomposition,
    orbifold_complexity,
)
from toricomplex.fan import make_fan, star_fan, star_subdivision, wall_partners
from toricomplex.lattice import (InternalInvariantError, InvalidInputError,
                                 primitive_vector, rank_q, vec_gcd)
from toricomplex.pairmodel import build_pair

from bruteforce import cartier_scale
from fans import (A1_SING, A2, A3, BLP2, CONIFOLD, P1, P1XP1, P2, SUITE,
                  projective_space)
from helpers import different, wall_gamma

BL_A2 = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])


def prime_dec(nrays, support):
    parts = []
    for i in support:
        coeffs = [0] * nrays
        coeffs[i] = 1
        parts.append((1, coeffs))
    return make_decomposition(nrays, parts)


# ---------------------------------------------------------------------------
# differents


def test_different_on_plane():
    pair = build_pair(P2, [F(1)] * 3)
    coeffs, star = different(pair, 0)
    assert coeffs == (F(1), F(1))
    assert [star.multiplicity[p] for p in star.partners] == [1, 1]
    assert [wall_gamma(P2, star, p) for p in star.partners] == [1, 1]


def test_different_quadric_cone_point():
    pair = build_pair(A1_SING, [F(1), F(0)], mode="local", cone=(0, 1))
    coeffs, star = different(pair, 0)
    assert coeffs == (F(1, 2),)
    assert star.multiplicity[star.partners[0]] == 2


def test_different_exceptional_curve():
    pair = build_pair(BL_A2, [F(1)] * 3, mode="birational")
    coeffs, star = different(pair, 2)
    assert coeffs == (F(1), F(1))
    assert sorted(star.partners) == [0, 1]


def test_different_needs_coefficient_one():
    pair = build_pair(P2, [F(1, 2), F(1), F(1)])
    with pytest.raises(NotDivisorialCenterError):
        different(pair, 0)


def test_wall_index_matches_star_multiplicity():
    # on the blown-up plane every wall of every ray is smooth
    pair = build_pair(BLP2, [F(1)] * 4)
    for e in range(4):
        star = _checked_star(pair.fan, e)
        assert all(star.multiplicity[p] == 1 for p in star.partners)


def _gamma_cases():
    """Pairs on the bundled fans of rank >= 2, their star subdivisions,
    P(1, 1, 2) and germs, among them walls of index > 1."""
    complete = [f for f in SUITE.values() if f.rank >= 2]
    complete.append(make_fan(2, [(1, 0), (0, 1), (-1, -2)],
                             [(0, 1), (1, 2), (0, 2)]))
    complete += [star_subdivision(f, primitive_vector(
        [sum(xs) for xs in zip(*f.cone_rays(f.max_cones[0]))]))
        for f in list(complete)]
    germs = [A1_SING, make_fan(3, [(1, 0, 0), (1, 2, 0), (0, 0, 1)],
                               [(0, 1, 2)])]
    rng = random.Random(5)
    while len(germs) < 30:
        rays = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        if all(any(r) and vec_gcd(r) == 1 for r in rays) and \
                rank_q(rays) == 3:
            germs.append(make_fan(3, rays, [(0, 1, 2)]))
    return ([build_pair(f, [0] * len(f.rays)) for f in complete]
            + [build_pair(f, [0] * len(f.rays), mode="local",
                          cone=f.max_cones[0]) for f in germs])


def test_restriction_multiplier_is_one():
    # the two-solve gamma that _checked_star proves to be 1
    indices = []
    for pair in _gamma_cases():
        for e in range(len(pair.fan.rays)):
            star = _checked_star(pair.fan, e)
            assert all(wall_gamma(pair.fan, star, p) == 1
                       for p in star.partners)
            indices += [star.multiplicity[p] for p in star.partners]
    assert max(indices) > 2


def test_wall_ledger_solves_once_per_wall(monkeypatch):
    """The star fan's self-check reads one wall index per wall, and
    takes no Smith form beyond the one star_fan takes."""
    adjunction = importlib.import_module("toricomplex.adjunction")
    walls, snfs, star_snfs = [], [], []
    lattice = importlib.import_module("toricomplex.lattice")
    real_snf, real_star, real_index = (lattice.snf, adjunction.star_fan,
                                       adjunction._wall_index)

    def counting_snf(*args):
        snfs.append(args)
        return real_snf(*args)

    def counting_star(*args):
        before = len(snfs)
        star = real_star(*args)
        star_snfs.append(len(snfs) - before)
        return star

    def counting_index(*args):
        walls.append(args)
        return real_index(*args)

    for name in ("lattice", "fan", "divisor", "pairmodel", "complexity",
                 "adjunction"):
        module = importlib.import_module(f"toricomplex.{name}")
        if hasattr(module, "snf"):
            monkeypatch.setattr(module, "snf", counting_snf)
    monkeypatch.setattr(adjunction, "star_fan", counting_star)
    monkeypatch.setattr(adjunction, "_wall_index", counting_index)
    assert not hasattr(lattice, "cartier_scale")
    nwalls = 0
    for fan in (P2, A1_SING):
        for e in range(len(fan.rays)):
            before = len(snfs)
            nwalls += len(_checked_star(fan, e).partners)
            assert len(snfs) - before == star_snfs[-1] >= 1
    assert nwalls == 8
    assert len(walls) == nwalls


def primitive_vectors(d):
    return st.lists(st.integers(-4, 4), min_size=d, max_size=d).map(
        tuple).filter(lambda u: any(u) and vec_gcd(u) == 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_wall_index_matches_cartier_scale(data):
    """The gcd of the 2 x 2 minors of (u_E, u_p) is 0 exactly when no
    multiple of E has a monomial witness on the wall, and otherwise is
    the smallest such multiple, on random primitive pairs in ranks 2-5,
    dependent pairs included."""
    d = data.draw(st.integers(2, 5))
    u_e = data.draw(primitive_vectors(d))
    kind = data.draw(st.sampled_from(
        ["random", "equal", "opposite", "combination"]))
    if kind == "random":
        u_p = data.draw(primitive_vectors(d))
    elif kind == "equal":
        u_p = u_e
    elif kind == "opposite":
        u_p = tuple(-x for x in u_e)
    else:
        v = data.draw(primitive_vectors(d))
        a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3))
        w = [a * x + b * y for x, y in zip(u_e, v)]
        assume(any(w))
        u_p = primitive_vector(w)
    index = _wall_index(u_e, u_p)
    scaled = cartier_scale([list(u_e), list(u_p)], [-1, 0])
    assert (index == 0) == (scaled is None)
    if scaled is not None:
        assert index == scaled[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wall_index_is_the_star_multiplicity_on_random_fans(data):
    """On star fans of random fans (germs of rank 3 and 4 and their star
    subdivisions) each wall's minor gcd is the multiplicity star_fan
    reads off its projection."""
    d = data.draw(st.integers(3, 4))
    rays = data.draw(st.lists(primitive_vectors(d), min_size=d, max_size=d))
    assume(rank_q(rays) == d)
    fan = make_fan(d, rays, [tuple(range(d))])
    fan = star_subdivision(fan, primitive_vector(
        [sum(xs) for xs in zip(*rays)]))
    for e in range(len(fan.rays)):
        star = star_fan(fan, e)
        for p in star.partners:
            assert _wall_index(fan.rays[e], fan.rays[p]) == \
                star.multiplicity[p]


def test_corrupted_wall_index_fails_the_self_check(monkeypatch):
    """star_fan reporting the first wall's index one too high trips the
    wall check (the CLI's exit 4 is in test_cli)."""
    adjunction = importlib.import_module("toricomplex.adjunction")
    real_star = adjunction.star_fan

    def corrupted(*args):
        star = real_star(*args)
        first = star.partners[0]
        return star._replace(multiplicity={
            p: m + (p == first) for p, m in star.multiplicity.items()})

    monkeypatch.setattr(adjunction, "star_fan", corrupted)
    pair = build_pair(P2, [F(1)] * 3)
    with pytest.raises(InternalInvariantError,
                       match="the Cartier index is the wall's lattice index"):
        check_adjunction(pair, prime_dec(3, [0, 1, 2]), 0)


def test_rank_one_center_is_invalid_input():
    """A fan of rank one has no star fan: an input error (exit 1 in the
    CLI), which the check meets after the decomposition's own checks."""
    pair = build_pair(P1, [F(1)] * 2)
    with pytest.raises(InvalidInputError,
                       match="star fan needs ambient rank >= 2"):
        check_adjunction(pair, prime_dec(2, [0, 1]), 0)


@pytest.mark.parametrize("center", [-1, 3, True, 1.0])
def test_center_must_be_a_ray_index(center):
    pair = build_pair(P2, [F(1)] * 3)
    dec = prime_dec(3, [0, 1, 2])
    with pytest.raises(ValueError, match="is not a ray index"):
        induced_decomposition(pair, dec, center)
    with pytest.raises(ValueError, match="is not a ray index"):
        check_adjunction(pair, dec, center)


# ---------------------------------------------------------------------------
# induced orbifold indices and the local image cone


def test_induced_index_case_a():
    # marked partner across a singular wall: indices multiply
    pair = build_pair(A1_SING, [F(1), F(1, 2)], mode="local", cone=(0, 1))
    dec = make_decomposition(2, [(1, [1, 0])], orbifold=[1, 2])
    res = induced_decomposition(pair, dec, 0)
    assert res.orbifold == (4,)


def test_induced_orbifold_is_partner_index_times_wall_index():
    """m(Q) = n_p * i_Q at the star ray of every partner p, with i_Q the
    Cartier index of E along the wall, on random orbifold structures."""
    rng = random.Random(19)
    seen = 0
    for case in _gamma_cases():
        fan = case.fan
        n = len(fan.rays)
        pair = build_pair(fan, [F(1)] * n, mode=case.mode, cone=case.cone)
        for e in (case.cone if case.mode == "local" else range(n)):
            orb = [rng.choice((1, 1, 2, 3)) for _ in range(n)]
            center = [F(1, orb[e]) if k == e else 0 for k in range(n)]
            dec = make_decomposition(n, [(1, center)], orbifold=orb)
            res = induced_decomposition(pair, dec, e)
            u_e = list(fan.rays[e])
            for p in res.star.partners:
                i_q, _ = cartier_scale([u_e, list(fan.rays[p])], [-1, 0])
                assert res.sigma.orbifold[res.star.partner_star[p]] == \
                    orb[p] * i_q
                seen += orb[p] > 1 and i_q > 1
    assert seen >= 10


def _local_cases():
    """Valid fans with simplicial and non-simplicial maximal cones: the
    bundled fans, germs, the conifold, the complete fan over the faces
    of the cube, and star subdivisions of each."""
    rng = random.Random(7)
    fans = [f for f in SUITE.values() if f.rank >= 2]
    fans += [A1_SING, A2, A3, CONIFOLD]
    while len(fans) < 20:
        rays = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        if all(any(r) and vec_gcd(r) == 1 for r in rays) and \
                rank_q(rays) == 3:
            fans.append(make_fan(3, rays, [(0, 1, 2)]))
    cube = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    fans.append(make_fan(3, cube, [
        tuple(i for i, r in enumerate(cube) if r[k] == s)
        for k in range(3) for s in (1, -1)]))
    for fan in list(fans):
        for _ in range(2):
            cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
            face = rng.sample(cone, rng.randint(2, len(cone)))
            fan = star_subdivision(fan, primitive_vector(
                [sum(xs) for xs in zip(*fan.cone_rays(face))]))
            fans.append(fan)
    return fans


def test_local_image_cone_matches_wall_partners():
    """The local image cone is the star rays of the partners in the
    germ's cone; the oracle is the walls of that cone, by wall_partners."""
    cases = kinds = 0
    for fan in _local_cases():
        for ci, cone in enumerate(fan.max_cones):
            pair = build_pair(fan, [0] * len(fan.rays), mode="local",
                              cone=cone)
            kinds |= 1 << (len(cone) > fan.rank)
            for e in cone:
                star = star_fan(fan, e)
                expected = tuple(sorted(star.partner_star[j]
                                        for j in wall_partners(fan, ci, e)))
                assert _induced_mode(pair, star) == ("local", expected)
                cases += 1
    assert kinds == 3 and cases >= 500


# ---------------------------------------------------------------------------
# induced decompositions and monotonicity


def test_adjunction_on_toric_boundary_of_plane():
    pair = build_pair(P2, [F(1)] * 3)
    chk = check_adjunction(pair, prime_dec(3, [0, 1, 2]), 0)
    assert (chk.value_e, chk.value_x) == (0, 0)
    assert chk.monotone and chk.equality
    assert chk.span_full and chk.sigma_is_boundary
    total = decomposition_total(chk.result.sigma)
    assert total == chk.result.e_pair.boundary == (F(1), F(1))


def test_adjunction_at_quadric_cone_germ():
    pair = build_pair(A1_SING, [F(1), F(0)], mode="local", cone=(0, 1))
    chk = check_adjunction(pair, make_decomposition(2, [(1, [1, 0])]), 0)
    assert chk.value_x == 1  # dim 2 + span 0 - norm 1
    assert chk.value_e == 1  # dim 1 + span 0 - norm 0, boundary (1/2)pt
    assert chk.monotone
    assert decomposition_total(chk.result.sigma) == (F(1, 2),)


def test_adjunction_induced_mode_local():
    pair = build_pair(BL_A2, [F(1)] * 3, mode="local", cone=(0, 2))
    res = induced_decomposition(pair, prime_dec(3, [0, 2]), 2)
    assert res.e_pair.mode == "local"
    assert res.e_pair.cone in res.e_pair.fan.max_cones


def test_adjunction_mode_projective_for_compact_divisor():
    # the exceptional curve of the blown-up plane is a complete curve
    pair = build_pair(BL_A2, [F(1)] * 3, mode="birational")
    res = induced_decomposition(pair, prime_dec(3, [0, 1, 2]), 2)
    assert res.e_pair.mode == "projective"
    assert res.boundary == (F(1), F(1))


def test_hypothesis_checks():
    pair = build_pair(P2, [F(1)] * 3)
    with pytest.raises(HypothesisViolationError):  # two parts carry center
        induced_decomposition(pair, make_decomposition(
            3, [(1, [1, 1, 0]), (1, [0, 0, 1])]), 0)
    with pytest.raises(HypothesisViolationError):  # center weight 1/2
        induced_decomposition(pair, make_decomposition(
            3, [(F(1, 2), [1, 0, 0]), (1, [0, 1, 0]), (1, [0, 0, 1])]), 0)
    q = build_pair(P1XP1, [F(1)] * 4)
    # the opposite ruling never meets E along a wall
    rays = q.fan.rays
    opposite = next(j for j in range(4)
                    if rays[j] == tuple(-x for x in rays[0]))
    bad = make_decomposition(4, [(1, [1, 0, 0, 0]),
                                 (1, [0 if k != opposite else 1
                                      for k in range(4)])])
    with pytest.raises(HypothesisViolationError):
        induced_decomposition(q, bad, 0)


def test_normalize_center_keeps_value():
    pair = build_pair(P2, [F(1)] * 3)
    twisted = make_decomposition(
        3, [(1, [F(1, 2), 0, 0]), (1, [0, 1, 0]), (1, [0, 0, 1])],
        orbifold=[2, 1, 1])
    plain = normalize_center(twisted, 0)
    assert plain.orbifold == (1, 1, 1)
    assert orbifold_complexity(pair, plain) == orbifold_complexity(
        pair, twisted)
    res = induced_decomposition(pair, twisted, 0)
    assert decomposition_total(res.sigma) == res.e_pair.boundary


def test_nef_trace_restricts_and_flags():
    m = (F(0), F(1), F(0), F(0))
    pair = build_pair(P1XP1, [F(1)] * 4, nef_part=m)
    partners = list(star_fan(pair.fan, 2).partners)
    res = induced_decomposition(pair, prime_dec(4, [2] + partners), 2)
    assert res.boundary_is_lower_bound
    assert res.e_pair.nef_part is not None


MONOTONE_CASES = []
for fan, nrays in ((P2, 3), (P1XP1, 4), (BLP2, 4)):
    for e in range(nrays):
        MONOTONE_CASES.append((fan, nrays, e))


@pytest.mark.parametrize("fan,nrays,e", MONOTONE_CASES)
def test_monotonicity_full_boundary(fan, nrays, e):
    pair = build_pair(fan, [F(1)] * nrays)
    partners = list(star_fan(pair.fan, e).partners)
    chk = check_adjunction(pair, prime_dec(nrays, [e] + partners), e)
    assert chk.monotone
    if chk.equality and chk.span_full:
        assert chk.sigma_is_boundary


def test_monotone_with_equality_on_p20():
    """The full boundary of P^20 at ray 0.  The induced pair lives on
    the star fan, P^19, and validating it forms all facet normals of
    twenty simplicial cones of rank 19."""
    fan = projective_space(20)
    pair = build_pair(fan, [F(1)] * 21)
    partners = list(star_fan(pair.fan, 0).partners)
    chk = check_adjunction(pair, prime_dec(21, [0] + partners), 0)
    assert chk.monotone and chk.equality


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([F(0), F(1, 2), F(2, 3), F(1)]),
       st.sampled_from([F(0), F(1, 2), F(2, 3), F(1)]),
       st.integers(0, 3), st.booleans())
def test_monotonicity_random_quadric(b1, b2, e, group):
    boundary = [F(1)] * 4
    others = [j for j in range(4) if j != e]
    boundary[others[0]], boundary[others[1]] = b1, b2
    pair = build_pair(P1XP1, boundary)
    support = [j for j in range(4) if boundary[j] > 0]
    partners = list(star_fan(pair.fan, e).partners)
    rest = [j for j in support if j != e]
    parts = [(1, [1 if k == e else 0 for k in range(4)])]
    if group and len(rest) >= 2 and all(j in partners for j in rest[:2]):
        w = min(boundary[j] for j in rest[:2])
        parts.append((w, [1 if k in rest[:2] else 0 for k in range(4)]))
        rest = rest[2:]
    for j in rest:
        if j in partners:
            parts.append((boundary[j], [1 if k == j else 0
                                        for k in range(4)]))
    dec = make_decomposition(4, parts)
    chk = check_adjunction(pair, dec, e)
    assert chk.monotone
