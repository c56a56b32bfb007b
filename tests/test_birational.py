import random
from fractions import Fraction as F

import pytest

import toricomplex.divisor
from toricomplex.birational import (
    CrepancyError,
    NotLcPlaceError,
    SurgeryMismatchError,
    SurgeryPreconditionError,
    _crepancy_witness,
    check_contraction,
    check_extraction,
    check_small,
    contraction,
    extraction,
    log_discrepancy,
    pushforward,
    small_modification,
)
from toricomplex.complexity import make_decomposition
from toricomplex.divisor import NotQCartierError, cartier_data
from toricomplex.fan import locate_max_cone, make_fan, star_subdivision
from toricomplex.lattice import in_hform, primitive_vector, vec_dot
from toricomplex.pairmodel import build_pair

from bruteforce import _lp_member, lp_crepancy_witness
from fans import BLP2, CONIFOLD, F1, P1, P1XP1, P2, P3, fan_product

E = BLP2.rays.index((1, 1))
BL_A2 = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
A2 = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])

# the two triangulations of the cone over the unit square
FLOP_A = make_fan(3, CONIFOLD.rays, [(0, 1, 3), (0, 2, 3)])
FLOP_B = make_fan(3, CONIFOLD.rays, [(0, 1, 2), (1, 2, 3)])


def primes(idxs, n, weights=None):
    parts = []
    for k, i in enumerate(idxs):
        w = weights[k] if weights else 1
        parts.append((w, [1 if j == i else 0 for j in range(n)]))
    return make_decomposition(n, parts)


# ---------------------------------------------------------------------------
# surgery constructors


def test_contraction_correspondence():
    s = contraction(BLP2, P2, E)
    assert s.ray_map == (0, 1, 2, None)
    assert s.new_rays == (E,)


def test_contraction_mismatches():
    with pytest.raises(SurgeryMismatchError):  # wrong ray count
        contraction(BLP2, BLP2, E)
    with pytest.raises(SurgeryMismatchError):  # removal of a wrong ray
        contraction(BLP2, P2, 0)
    bad = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    with pytest.raises(SurgeryMismatchError):  # cones do not coarsen
        contraction(BLP2, bad, E)


def test_small_modification_correspondence():
    s = small_modification(FLOP_A, FLOP_B)
    assert s.ray_map == (0, 1, 2, 3)
    with pytest.raises(SurgeryMismatchError):
        small_modification(FLOP_A, P2)


def test_extraction_constructor():
    s = extraction(P2, [(1, 1)])
    assert s.source.rays == P2.rays + ((1, 1),)
    assert s.new_rays == (3,)
    with pytest.raises(SurgeryMismatchError):  # already a ray
        extraction(P2, [(1, 0)])
    with pytest.raises(SurgeryMismatchError):  # nothing listed
        extraction(P2, [])
    with pytest.raises(SurgeryMismatchError):  # outside the support
        extraction(FLOP_A, [(0, 0, -1)])


# ---------------------------------------------------------------------------
# log discrepancies


def test_log_discrepancy_values():
    cone_pair = build_pair(A2, [F(0), F(0)], mode="local", cone=(0, 1))
    assert log_discrepancy(cone_pair, (1, 1)) == 2
    assert log_discrepancy(cone_pair, (1, 2)) == 3
    full = build_pair(P2, [F(1)] * 3)
    for v in [(1, 1), (2, 1), (-1, 0)]:
        assert log_discrepancy(full, v) == 0
    with pytest.raises(ValueError):
        log_discrepancy(full, (2, 2))


def test_log_discrepancy_reads_only_the_cone_containing_v():
    # K + B is not Q-Cartier on the square cone 0, but (-1, 1, 1) lies
    # in the simplicial cone 1, where <m, u> = (1, 1, 0) has m = (0, 1, 0)
    fan = make_fan(3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1),
                       (-1, 0, 0)], [(0, 1, 2, 3), (1, 3, 4)])
    pair = build_pair(fan, [1, 0, 0, 0, 1], mode="birational")
    assert log_discrepancy(pair, (-1, 1, 1)) == 1
    with pytest.raises(NotQCartierError, match="maximal cone 0"):
        log_discrepancy(pair, (1, 1, 1))


@pytest.mark.parametrize("v", [(1.5, 1.2), (1.0, 1), (True, 1)])
def test_log_discrepancy_rejects_non_integers(v):
    cone_pair = build_pair(A2, [F(0), F(0)], mode="local", cone=(0, 1))
    with pytest.raises(TypeError):
        log_discrepancy(cone_pair, v)


# ---------------------------------------------------------------------------
# divisorial contractions


def test_contraction_equality_iff_exceptional_weight_one():
    s = contraction(BLP2, P2, E)
    pair = build_pair(BLP2, [F(1)] * 4)

    full = check_contraction(pair, s, primes(range(4), 4))
    assert full.values_source == (0, 0, 0)
    assert full.values_target == (0, 0, 0)
    assert full.equality_plain and full.criterion and full.ok

    half = check_contraction(pair, s, primes(
        range(4), 4, weights=[1, 1, 1, F(1, 2)]))
    assert half.values_source == (F(1, 2), F(1, 2), F(1, 2))
    assert half.values_target == (0, 0, 0)
    assert not half.equality_plain and not half.criterion and half.ok

    absent = check_contraction(pair, s, primes([0, 1, 2], 4))
    assert absent.values_source == (1, 1, 1)
    assert absent.values_target == (0, 0, 0)
    assert absent.values_target[0] == absent.values_source[0] - 1
    assert not absent.equality_plain and absent.ok


def test_contraction_with_orbifold_weight():
    s = contraction(BLP2, P2, E)
    pair = build_pair(BLP2, [F(1)] * 4)
    dec = make_decomposition(
        4, [(1, [0, 0, 0, F(1, 2)])], orbifold=[1, 1, 1, 2])
    report = check_contraction(pair, s, dec)
    assert report.values_source[-1] == 2
    assert report.values_target[-1] == 2
    assert report.dropped_norm == 1 and report.ok


def test_contraction_over_affine_base():
    s = contraction(BL_A2, A2, 2)
    pair = build_pair(BL_A2, [F(1)] * 3, mode="birational")
    report = check_contraction(pair, s, primes(range(3), 3))
    assert report.values_source == (0, 0, 0)
    assert report.values_target == (0, 0, 0)
    assert report.e_is_glc_place


def test_contraction_preconditions():
    s = contraction(BLP2, P2, E)
    partial = build_pair(BLP2, [F(1), F(1), F(1), F(0)])
    with pytest.raises(SurgeryPreconditionError):  # not log Calabi-Yau
        check_contraction(partial, s, primes([0], 4))
    germ = build_pair(BL_A2, [F(1)] * 3, mode="local", cone=(0, 2))
    with pytest.raises(SurgeryMismatchError):  # germs have no inner map
        check_contraction(germ, contraction(BL_A2, A2, 2), primes([0], 3))


# ---------------------------------------------------------------------------
# small modifications


def test_identity_surgery_keeps_decomposition():
    s = small_modification(FLOP_A, FLOP_A)
    dec = primes([0, 1, 2], 4, weights=[1, F(1, 2), F(2, 3)])
    pushed, dropped = pushforward(s, dec)
    assert pushed == dec and dropped == 0


def test_atiyah_flop_preserves_all_three():
    s = small_modification(FLOP_A, FLOP_B)
    pair = build_pair(FLOP_A, [F(1)] * 4, mode="birational")
    report = check_small(pair, s, primes(range(4), 4))
    assert report.values_source == (0, 0, 0)
    assert report.values_target == (0, 0, 0)
    assert report.ok


def test_flop_grouped_parts_preserve_fine():
    s = small_modification(FLOP_A, FLOP_B)
    pair = build_pair(FLOP_A, [F(1)] * 4, mode="birational")
    dec = make_decomposition(4, [(1, [1, 0, 0, 1]), (1, [0, 1, 1, 0])])
    report = check_small(pair, s, dec)
    assert report.values_source == (2, 2, 2)
    assert report.values_source == report.values_target


def test_flop_of_the_cone_germ():
    s = small_modification(CONIFOLD, FLOP_A)
    pair = build_pair(CONIFOLD, [F(1)] * 4, mode="local", cone=(0, 1, 2, 3))
    report = check_small(pair, s, primes(range(4), 4))
    assert report.target_pair.mode == "birational"
    assert report.values_source == report.values_target == (0, 0, 0)


def test_check_small_solves_each_cone_once(monkeypatch):
    """The linear data of source and target are solved once each where
    check_small reads them, so each of the conifold flop's four cones is
    solved once."""
    s = small_modification(FLOP_A, FLOP_B)
    pair = build_pair(FLOP_A, [F(1)] * 4, mode="birational")
    solved = []

    def counting(a, b, real=toricomplex.divisor.solve_rational):
        solved.append(tuple(map(tuple, a)))
        return real(a, b)
    monkeypatch.setattr(toricomplex.divisor, "solve_rational", counting)
    check_small(pair, s, primes(range(4), 4))
    assert len(solved) == len(set(solved)) == 4


def test_small_modification_to_a_non_q_cartier_target():
    # K + B is not Q-Cartier on the conifold's one cone
    s = small_modification(FLOP_A, CONIFOLD)
    pair = build_pair(FLOP_A, [F(0), F(0), F(0), F(1, 2)], mode="birational")
    with pytest.raises(NotQCartierError, match="on maximal cone 0$"):
        check_small(pair, s, make_decomposition(4, []))


# The fan over the faces of a triangular prism: its square faces are
# triangulated in PRISM and left square in PRISM_SQUARES, cones 2-4.
PRISM_RAYS = [(1, 0, 1), (0, 1, 1), (-1, -1, 1),
              (1, 0, -1), (0, 1, -1), (-1, -1, -1)]
PRISM = make_fan(3, PRISM_RAYS, [
    (0, 1, 2), (3, 4, 5), (1, 2, 5), (1, 4, 5), (0, 1, 4), (0, 3, 4),
    (0, 2, 5), (0, 3, 5)])
PRISM_SQUARES = make_fan(3, PRISM_RAYS, [
    (0, 1, 2), (3, 4, 5), (1, 2, 4, 5), (0, 1, 3, 4), (0, 2, 3, 5)])


def test_check_small_names_the_first_target_cone_without_data():
    """With boundary 1/2 on ray 0, K + B is not Q-Cartier on either
    square through ray 0 (cones 3 and 4 of the target): the error names
    the first of them."""
    s = small_modification(PRISM, PRISM_SQUARES)
    pair = build_pair(PRISM, [F(1, 2)] + [F(0)] * 5)
    with pytest.raises(NotQCartierError, match="on maximal cone 3$") as info:
        check_small(pair, s, make_decomposition(6, []))
    assert info.value.cone_idx == 3


def test_non_crepant_modification_is_an_error():
    s = small_modification(FLOP_A, FLOP_B)
    pair = build_pair(FLOP_A, [F(0), F(0), F(0), F(1, 2)], mode="birational")
    with pytest.raises(CrepancyError):
        check_small(pair, s, make_decomposition(4, []))


# ---------------------------------------------------------------------------
# extractions


@pytest.mark.parametrize("v", [(1, 1), (2, 1)])
def test_extraction_over_plane_preserves_values(v):
    pair = build_pair(P2, [F(1)] * 3)
    s = extraction(P2, [v])
    report = check_extraction(pair, s, primes(range(3), 3))
    assert report.discrepancies == (0,)
    assert report.values_source == (0, 0, 0)
    assert report.values_target == (0, 0, 0)
    assert report.ok


def test_extraction_lifts_orbifold_data():
    pair = build_pair(P2, [F(1)] * 3)
    dec = make_decomposition(
        3, [(1, [F(1, 2), 0, 0]), (1, [0, 1, 0]), (1, [0, 0, 1])],
        orbifold=[2, 1, 1])
    report = check_extraction(pair, extraction(P2, [(1, 1)]), dec)
    assert report.lifted.orbifold == (2, 1, 1, 1)
    assert report.values_source[-1] <= report.values_target[-1]


def test_extraction_rejects_positive_discrepancy():
    pair = build_pair(P2, [F(1), F(1), F(0)])
    with pytest.raises(NotLcPlaceError) as err:
        check_extraction(pair, extraction(P2, [(-1, 0)]), primes([0, 1], 3))
    assert err.value.vector == (-1, 0)
    assert err.value.discrepancy == 1


def test_extraction_then_contraction_restores_plain_value():
    pair = build_pair(P2, [F(1)] * 3)
    for v, dec in [((1, 1), primes(range(3), 3)),
                   ((1, 2), primes([0, 2], 3)),
                   ((2, 1), primes([1], 3, weights=[F(1, 3)]))]:
        s = extraction(P2, [v])
        up = check_extraction(pair, s, dec)
        back = contraction(s.source, P2, s.new_rays[0])
        down = check_contraction(up.source_pair, back, up.lifted)
        assert down.values_target[0] == up.values_target[0]
        assert down.dropped_norm == 1


def test_extraction_of_two_places():
    pair = build_pair(P2, [F(1)] * 3)
    s = extraction(P2, [(1, 1), (1, 2)])
    report = check_extraction(pair, s, primes(range(3), 3))
    assert report.discrepancies == (0, 0)
    assert len(report.lifted.parts) == 5
    assert report.values_source == (0, 0, 0)


# ---------------------------------------------------------------------------
# the integer cone tests against the LP oracles


def random_interior_vector(fan, rng, cones=None):
    """A primitive positive combination of the rays of a random maximal
    cone (of one of ``cones`` when given)."""
    gens = fan.cone_rays(rng.choice(cones or fan.max_cones))
    weights = [rng.randint(1, 3) for _ in gens]
    return primitive_vector(tuple(sum(w * g[i] for w, g in zip(weights, gens))
                                  for i in range(fan.rank)))


def random_subdivision(fan, rng, most):
    for _ in range(rng.randint(0, most)):
        fan = star_subdivision(fan, random_interior_vector(fan, rng))
    return fan


def random_rational(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 4))


def test_crepancy_witness_matches_lp():
    rng = random.Random(8)
    answers = []
    for _ in range(80):
        base = rng.choice([P2, P3, P1XP1, F1, BLP2])
        target = random_subdivision(base, rng, 2)
        coeffs_t = [random_rational(rng) for _ in target.rays]
        if rng.random() < 0.25:
            source = target
            coeffs_s = [random_rational(rng) for _ in source.rays]
        else:
            # the target's support function pulled back to a refinement,
            # so the witness is None until a coefficient is perturbed
            source = random_subdivision(target, rng, 2)
            data = cartier_data(target, coeffs_t)
            coeffs_s = [-vec_dot(data[locate_max_cone(target, u)], u)
                        for u in source.rays]
            if rng.random() < 0.5:
                coeffs_s[rng.randrange(len(coeffs_s))] += \
                    rng.choice([-1, 1]) * F(1, rng.randint(1, 4))
        got = _crepancy_witness(source, target,
                                cartier_data(source, coeffs_s),
                                cartier_data(target, coeffs_t))
        assert got == lp_crepancy_witness(
            base.rank, (source.rays, source.max_cones), coeffs_s,
            (target.rays, target.max_cones), coeffs_t)
        answers.append(got)
    assert None in answers
    assert any(a is not None for a in answers)


def test_contraction_containment_matches_lp():
    # source = star(star(F, v), w) and target = star(F, w): contracting v
    # coarsens the source in rank 2; in rank 3 it may fail when w is
    # drawn from a cone at v
    rng = random.Random(8)
    verdicts = []
    for _ in range(60):
        base = rng.choice([P2, P1XP1, P3, fan_product(P1XP1, P1)])
        v = random_interior_vector(base, rng)
        mid = star_subdivision(base, v)
        near = [c for c in mid.max_cones if len(base.rays) in c]
        w = random_interior_vector(mid, rng, near if rng.random() < 0.5
                                   else None)
        if v == w or w in base.rays:
            continue
        source = star_subdivision(mid, w)
        target = star_subdivision(base, w)
        contained = True
        for cone in source.max_cones:
            gens = source.cone_rays(cone)
            inside = []
            for t, h in zip(target.max_cones, target.hforms):
                member = [in_hform(h, u) for u in gens]
                assert member == [_lp_member(target.cone_rays(t), u)
                                  for u in gens]
                inside.append(all(member))
            contained &= any(inside)
        if contained:
            contraction(source, target, len(base.rays))
        else:
            with pytest.raises(SurgeryMismatchError, match="not contained"):
                contraction(source, target, len(base.rays))
        verdicts.append(contained)
    assert True in verdicts and False in verdicts
