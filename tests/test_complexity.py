import gc
import importlib
import random
from fractions import Fraction as F
from itertools import product
from math import atan2, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from toricomplex.complexity import (
    Decomposition,
    IncompatibleOrbifoldError,
    InputTooLargeError,
    InvalidDecompositionError,
    NotFullDimensionalError,
    NotLogCanonicalError,
    _echelon_insert,
    _fractional_elems,
    _orbifold_options,
    _rank_added,
    _search_fine,
    Part,
    complexity,
    complexity_values,
    decomposition_total,
    fine_complexity,
    local_complexity_cloc,
    make_decomposition,
    minimize,
    orbifold_complexity,
    span_dimension,
    validate_decomposition,
)
from toricomplex.fan import make_fan, star_subdivision
from toricomplex.lattice import hilbert_basis, rank_q
from toricomplex.pairmodel import (
    build_pair,
    is_log_canonical,
)

from bruteforce import (
    dense_decomposition_total,
    dense_span_dimension,
    dense_validate_decomposition,
    index_options,
    leaf_bound_search_fine,
    lp_extremal_rays,
    lp_local_complexity,
    oracle_minimize,
    project_classes,
    reference_search_fine,
)
from fans import A1_SING, BLP2, CONIFOLD, P1, P1XP1, P2, P3, SUITE
from helpers import q_class as divisor_q_class

CUBE = make_fan(
    3,
    [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1),
     (1, 1, -1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1)],
    [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (2, 3, 6, 7),
     (0, 2, 4, 6), (1, 3, 5, 7)],
)


def full_boundary(fan):
    return [F(1)] * len(fan.rays)


# ---------------------------------------------------------------------------
# evaluation


def test_toric_boundary_values():
    pair = build_pair(P2, full_boundary(P2))
    prime = make_decomposition(3, [(1, [1, 0, 0]), (1, [0, 1, 0]),
                                   (1, [0, 0, 1])])
    assert complexity(pair, prime) == 0
    assert fine_complexity(pair, prime) == 0
    empty = make_decomposition(3, [])
    assert complexity(pair, empty) == 3
    assert fine_complexity(pair, empty) == 2


def test_grouped_part_on_quadric_surface():
    pair = build_pair(P1XP1, full_boundary(P1XP1))
    one = make_decomposition(4, [(1, [1, 1, 1, 1])])
    assert fine_complexity(pair, one) == 2
    prime = make_decomposition(4, [(1, [1, 0, 0, 0]), (1, [0, 1, 0, 0]),
                                   (1, [0, 0, 1, 0]), (1, [0, 0, 0, 1])])
    assert fine_complexity(pair, prime) == 0
    assert complexity(pair, prime) == 0


def test_orbifold_evaluation_on_quadric_cone_germ():
    pair = build_pair(A1_SING, [F(1), F(1, 2)], mode="local", cone=(0, 1))
    dec = make_decomposition(2, [(1, [1, 0])], orbifold=[1, 2])
    assert orbifold_complexity(pair, dec) == 1


def test_orbifold_evaluation_on_line():
    pair = build_pair(P1, [F(1), F(1)])
    dec = make_decomposition(
        2, [(1, [0, 1]), (1, [F(1, 2), 0])], orbifold=[2, 1])
    assert orbifold_complexity(pair, dec) == 0


def test_trivial_orbifold_matches_fine():
    pair = build_pair(P2, [F(1), F(1, 2), F(1)])
    dec = make_decomposition(3, [(F(1, 2), [1, 1, 0]), (1, [0, 0, 1])])
    assert orbifold_complexity(pair, dec) == fine_complexity(pair, dec)


def test_validation_errors():
    pair = build_pair(P2, [F(1), F(1, 2), F(0)])
    with pytest.raises(InvalidDecompositionError):
        validate_decomposition(pair, make_decomposition(3, [(0, [1, 0, 0])]))
    with pytest.raises(InvalidDecompositionError):
        validate_decomposition(pair, make_decomposition(3, [(1, [0, 0, 0])]))
    with pytest.raises(InvalidDecompositionError):
        validate_decomposition(pair, make_decomposition(3, [(1, [0, 1, 0])]))
    with pytest.raises(InvalidDecompositionError):  # 1/2 not orbifold-integral
        validate_decomposition(
            pair, make_decomposition(3, [(F(1, 2), [F(1, 2), 0, 0])],
                                     orbifold=[3, 1, 1]))
    with pytest.raises(IncompatibleOrbifoldError):  # needs coeff >= 1 - 1/3
        validate_decomposition(
            pair, make_decomposition(3, [(F(1, 4), [0, F(1, 3), 0])],
                                     orbifold=[1, 3, 1]))
    with pytest.raises(IncompatibleOrbifoldError):
        validate_decomposition(
            pair, make_decomposition(3, [], orbifold=[1, 1]))


def test_local_support_condition():
    pair = build_pair(A1_SING, [F(1), F(1)], mode="local", cone=(0, 1))
    ok = make_decomposition(2, [(1, [1, 0])])
    validate_decomposition(pair, ok)
    bl = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
    germ = build_pair(bl, [F(1), F(1), F(1)], mode="local", cone=(0, 2))
    with pytest.raises(InvalidDecompositionError):
        validate_decomposition(germ, make_decomposition(3, [(1, [0, 1, 0])]))


@pytest.mark.parametrize("orbifold", [[F(2), 1, 1], [2.7, 1, 1],
                                      [True, 1, 1], ["2", 1, 1]])
def test_make_decomposition_rejects_non_integer_indices(orbifold):
    with pytest.raises(TypeError):
        make_decomposition(3, [(1, [1, 0, 0])], orbifold=orbifold)


def test_bool_orbifold_index_is_rejected():
    # a directly built Decomposition skips make_decomposition's check
    pair = build_pair(P2, full_boundary(P2))
    dec = Decomposition((Part(F(1), (F(1), F(0), F(0))),), (True, 1, 1))
    for f in (validate_decomposition, orbifold_complexity, complexity_values):
        with pytest.raises(IncompatibleOrbifoldError,
                           match="orbifold index True at ray 0"):
            f(pair, dec)


# ---------------------------------------------------------------------------
# the sparse decomposition checks against their dense versions

# (fan, mode, cone): bundled and subdivided fans in all three modes
CHECK_FANS = [
    (P2, "projective", None),
    (P3, "projective", None),
    (BLP2, "projective", None),
    (star_subdivision(P1XP1, (1, 1)), "projective", None),
    (star_subdivision(P3, (1, 1, 0)), "projective", None),
    (star_subdivision(BLP2, (2, 1)), "projective", None),
    (A1_SING, "local", (0, 1)),
    (CONIFOLD, "local", (0, 1, 2, 3)),
    (star_subdivision(BLP2, (2, 1)), "local", (0, 4)),
    (star_subdivision(CONIFOLD, (1, 1, 2)), "local", (1, 3, 4)),
    (A1_SING, "birational", None),
    (CONIFOLD, "birational", None),
    (star_subdivision(CONIFOLD, (1, 1, 2)), "birational", None),
    (star_subdivision(A1_SING, (1, 1)), "birational", None),
]

CHECK_BOUNDARY = [F(0), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)]
# ints stand beside Fractions, and 1/1000003 and 1/1000033 give large
# coprime denominators
CHECK_WEIGHTS = [F(-1, 3), F(0), 0, 1, F(1, 1000003), F(1, 1000033)] + [
    F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(1)] * 2
CHECK_COEFFS = [F(-1, 2), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 2),
                F(2), -1, 0, 2] + [F(1)] * 6 + [1] * 2
# admissible indices and bad ones, at a few rays of an untwisted orbifold
CHECK_INDICES = [2, 3, 4, 6, 2, 3, 0, -1, F(2), 2.0]


def outcome(f, *args):
    try:
        return "returned", f(*args)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc), str(exc)


def assert_checks_agree(pair, dec):
    """The sparse checks raise the dense ones' class and message, or
    both pass; totals and spans agree."""
    assert (outcome(validate_decomposition, pair, dec)
            == outcome(dense_validate_decomposition, pair, dec))
    assert (outcome(span_dimension, pair, dec)
            == outcome(dense_span_dimension, pair, dec))
    if outcome(validate_decomposition, pair, dec)[0] == "returned":
        twisted = any(n != 1 for n in dec.orbifold)
        assert complexity_values(pair, dec) == (
            None if twisted else complexity(pair, dec),
            None if twisted else fine_complexity(pair, dec),
            orbifold_complexity(pair, dec))
    norm = dec.norm
    assert norm == sum((p.weight for p in dec.parts), F(0))
    assert type(norm) is F
    nrays = len(pair.fan.rays)
    if len(dec.orbifold) == nrays and all(len(p.coeffs) == nrays
                                          for p in dec.parts):
        total = outcome(decomposition_total, dec)
        assert total == outcome(dense_decomposition_total, dec)
        if total[0] == "returned":
            assert all(type(t) is F for t in total[1])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_sparse_checks_match_dense_checks(data):
    fan, mode, cone = data.draw(st.sampled_from(CHECK_FANS))
    nrays = len(fan.rays)
    boundary = data.draw(st.lists(st.sampled_from(CHECK_BOUNDARY),
                                  min_size=nrays, max_size=nrays))
    pair = build_pair(fan, boundary, mode=mode, cone=cone)
    coeff = st.one_of(st.just(F(0)), st.sampled_from(CHECK_COEFFS))
    # a wrong length now and then, in the parts and in the orbifold
    length = st.sampled_from([nrays] * 20 + [nrays - 1, nrays + 1])
    parts = data.draw(st.lists(st.builds(
        Part, st.sampled_from(CHECK_WEIGHTS),
        length.flatmap(lambda n: st.lists(coeff, min_size=n, max_size=n)
                       .map(tuple))), max_size=4))
    orbifold = [1] * data.draw(length)
    twists = data.draw(st.dictionaries(
        st.integers(0, len(orbifold) - 1), st.sampled_from(CHECK_INDICES),
        max_size=2))
    for i, n in twists.items():
        orbifold[i] = n
    assert_checks_agree(pair, Decomposition(tuple(parts), tuple(orbifold)))


def _dec(parts, orbifold):
    return Decomposition(tuple(Part(F(w), tuple(F(c) for c in coeffs))
                               for w, coeffs in parts), tuple(orbifold))


def _int_dec(parts, orbifold):
    """A decomposition whose weights and coefficients stay ints."""
    return Decomposition(tuple(Part(w, tuple(coeffs)) for w, coeffs in parts),
                         tuple(orbifold))


# 1/2 = 500001/1000003 + 1/2000006, over coprime denominators
_BIG = F(500001, 1000003)

P2_HALF = build_pair(P2, [F(1), F(1, 2), F(1)])
GERM = build_pair(star_subdivision(BLP2, (2, 1)), [F(1)] * 5, mode="local",
                  cone=(0, 4))


@pytest.mark.parametrize("pair,dec,error", [
    (P2_HALF, _dec([(1, [1, 0, 0]), (F(1, 2), [0, 1, 0]), (1, [0, 0, 1])],
                   [1, 1, 1]), None),
    (P2_HALF, _dec([], [1, 1, 1]), None),
    (P2_HALF, _dec([(1, [0, 0, 0])], [1, 1, 1]), "zero divisor"),
    (P2_HALF, _dec([(1, [1, 0, 0]), (1, [0, F(-1, 2), 1])], [1, 1, 1]),
     "negative coefficient at ray 1"),
    (P2_HALF, _dec([(F(1, 2), [F(1, 2), 0, 0])], [3, 1, 1]),
     "not integral against orbifold index 3 at ray 0"),
    (P2_HALF, _dec([(F(1, 2), [F(1, 3), 0, 0])], [6, 1, 1]), None),
    (P2_HALF, _dec([(1, [0, 1, 0])], [1, 1, 1]),
     "total coefficient 1 at ray 1 exceeds boundary 1/2"),
    (P2_HALF, _dec([(1, [0, 0, 1]), (1, [1, 0, 0])], [1, 1, 2]),
     "total coefficient 3/2 at ray 2 exceeds boundary 1"),
    (P2_HALF, _dec([(1, [1, 0, 1]), (1, [1, 0, 0])], [1, 1, 2]),
     "total coefficient 2 at ray 0 exceeds boundary 1"),
    (P2_HALF, _dec([], [1, 0, 1]), "orbifold index 0 at ray 1"),
    (P2_HALF, _dec([], [1, 3, 1]), "needs boundary coefficient >= 2/3"),
    (P2_HALF, _dec([], [1, 1]), "expected 3 orbifold indices"),
    (GERM, _dec([(1, [0, 1, 0, 0, 0])], [1] * 5), "misses the chosen point"),
    (GERM, _dec([(1, [0, 1, 0, 0, 1])], [1] * 5), None),
    # a total equal to the boundary passes; one unit of the common
    # denominator more fails, worded as the reduced Fraction
    (P2_HALF, _dec([(F(1, 3), [0, 1, 0]), (F(1, 6), [0, 1, 0])], [1, 1, 1]),
     None),
    (P2_HALF, _dec([(_BIG, [0, 1, 0]), (F(1, 2000006), [0, 1, 0])],
                   [1, 1, 1]), None),
    (P2_HALF, _dec([(_BIG, [0, 1, 0]), (F(1, 1000003), [0, 1, 0])],
                   [1, 1, 1]),
     "total coefficient 500002/1000003 at ray 1 exceeds boundary 1/2"),
    (P2_HALF, _dec([(F(1, 1000003), [0, 1, 1]), (F(1000001, 2000006),
                                                  [0, 1, 0])], [1, 1, 1]),
     None),
    # int weights and coefficients
    (P2_HALF, _int_dec([(1, [1, 0, 0]), (1, [0, 0, 1])], [1, 1, 1]), None),
    (P2_HALF, _int_dec([(1, [1, 0, 1]), (1, [0, 0, 1])], [1, 1, 1]),
     "total coefficient 2 at ray 2 exceeds boundary 1"),
    (P2_HALF, _int_dec([(1, [0, 1, 0])], [1, 1, 1]),
     "total coefficient 1 at ray 1 exceeds boundary 1/2"),
    (P2_HALF, _int_dec([(0, [1, 0, 0])], [1, 1, 1]), "part 0 has weight 0"),
    (P2_HALF, _int_dec([(1, [-1, 0, 1])], [1, 1, 1]),
     "negative coefficient at ray 0"),
    (P2_HALF, _int_dec([(1, [0, 0, 0])], [1, 1, 1]), "zero divisor"),
    # the orbifold tax and parts on one ray
    (P2_HALF, _dec([(F(1, 3), [0, 1, 0]), (F(1, 6), [0, 1, 1]),
                    (F(1, 42), [0, F(1, 7), 0])], [1, 7, 1]),
     "needs boundary coefficient >= 6/7, found 1/2"),
    (P2_HALF, _dec([(F(1, 2), [F(2, 3), 0, 0])], [3, 1, 1]), None),
    (P2_HALF, _dec([(F(1, 2), [F(2, 3), 0, 0]), (F(1, 3), [F(1, 3), 0, 0])],
                   [3, 1, 1]),
     "total coefficient 10/9 at ray 0 exceeds boundary 1"),
    (P2_HALF, _dec([], [1, 2, 1]), None),
    (P2_HALF, _dec([(F(1, 1000003), [0, F(1, 2), 0])], [1, 2, 1]),
     "total coefficient 500002/1000003 at ray 1 exceeds boundary 1/2"),
])
def test_sparse_checks_match_dense_checks_on_each_error(pair, dec, error):
    assert_checks_agree(pair, dec)
    kind, result = outcome(validate_decomposition, pair, dec)
    if error is None:
        assert kind == "returned"
    else:
        assert kind in (InvalidDecompositionError, IncompatibleOrbifoldError)
        assert error in result


def test_norm_adds_weights_over_a_common_denominator():
    assert Decomposition((), ()).norm == F(0)
    assert type(Decomposition((), ()).norm) is F
    ints = _int_dec([(1, [1, 0, 0]), (2, [0, 1, 0])], [1, 1, 1])
    assert ints.norm == 3 and type(ints.norm) is F
    dec = _dec([(_BIG, [0, 1, 0]), (F(1, 2000006), [0, 1, 0]),
                (F(1, 1000033), [1, 0, 0])], [1, 1, 1])
    assert dec.norm == F(1, 2) + F(1, 1000033)


# ---------------------------------------------------------------------------
# minimize


def test_suite_toric_boundary_is_zero():
    for fan in SUITE.values():
        rep = minimize(build_pair(fan, full_boundary(fan)))
        assert (rep.c, rep.c_fine, rep.c_orb) == (0, 0, 0)
        # every part is a single prime with coefficient one, covering B
        assert len(rep.dec_orb.parts) == len(fan.rays)
        for p in rep.dec_orb.parts:
            assert p.weight == 1 and sorted(p.coeffs) [-1] == 1


def test_two_lines_on_plane():
    rep = minimize(build_pair(P2, [F(1), F(1), F(0)]))
    assert (rep.c, rep.c_fine, rep.c_orb) == (1, 1, 1)


def test_line_with_empty_boundary():
    rep = minimize(build_pair(P1, [F(0), F(0)]))
    assert (rep.c, rep.c_fine, rep.c_orb) == (2, 1, 1)
    assert rep.dec_fine.parts == ()


def test_quadric_cone_germ_minimum():
    rep = minimize(build_pair(A1_SING, [F(1), F(1, 2)], mode="local",
                              cone=(0, 1)))
    # dim 2 + local class rank 0 - norm 3/2; the half-coefficient prime
    # enters untwisted with weight 1/2
    assert (rep.c, rep.c_fine, rep.c_orb) == (F(1, 2), F(1, 2), F(1, 2))


def test_tie_break_prefers_singletons():
    rep = minimize(build_pair(P2, [F(1, 2), F(1, 2), F(0)]))
    assert rep.c_fine == 2
    assert len(rep.dec_fine.parts) == 2
    assert all(p.weight == F(1, 2) for p in rep.dec_fine.parts)


def test_partition_limit():
    pair = build_pair(P3, [F(1, 2), F(1, 2), F(1, 2), F(0)])
    with pytest.raises(InputTooLargeError):
        minimize(pair, partition_limit=2)
    with pytest.raises(ValueError):
        minimize(pair, partition_limit=65)


def test_not_log_canonical():
    pair = build_pair(CUBE, [F(1, 2)] + [F(0)] * 7)
    assert not is_log_canonical(pair)
    with pytest.raises(NotLogCanonicalError):
        minimize(pair)


def test_relative_mode_on_conifold():
    pair = build_pair(CONIFOLD, full_boundary(CONIFOLD), mode="birational")
    rep = minimize(pair)
    assert rep.c == 3 + 1 - 4 == 0
    assert rep.c_fine == 0 and rep.c_orb == 0


# ---------------------------------------------------------------------------
# oracle agreement

ORACLE_CASES = [
    (P2, None, [F(1), F(1), F(1)]),
    (P2, None, [F(1), F(1), F(0)]),
    (P2, None, [F(1, 2), F(1, 2), F(1, 2)]),
    (P2, None, [F(1), F(2, 3), F(1, 3)]),
    (P2, None, [F(5, 6), F(5, 6), F(0)]),
    (P2, None, [F(5, 6), F(1, 2), F(3, 4)]),
    (P1XP1, None, [F(1), F(1), F(1), F(1)]),
    (P1XP1, None, [F(1, 2), F(1, 2), F(1, 2), F(1, 2)]),
    (P1XP1, None, [F(1), F(1, 2), F(1), F(1, 2)]),
    (P1XP1, None, [F(3, 4), F(2, 3), F(1, 2), F(1)]),
    (A1_SING, (0, 1), [F(1), F(1, 2)]),
    (A1_SING, (0, 1), [F(1, 2), F(1, 2)]),
    (A1_SING, (0, 1), [F(5, 6), F(5, 6)]),
    (A1_SING, (0, 1), [F(1), F(1)]),
]


@pytest.mark.parametrize("fan,cone,boundary", ORACLE_CASES)
def test_minimize_matches_bruteforce(fan, cone, boundary):
    if cone is None:
        pair = build_pair(fan, boundary)
        local = tuple(range(len(fan.rays)))
    else:
        pair = build_pair(fan, boundary, mode="local", cone=cone)
        local = cone
    rep = minimize(pair)
    fine, orb = oracle_minimize(fan.rays, local, boundary)
    assert rep.c_fine == fine
    assert rep.c_orb == orb
    assert rep.c >= rep.c_fine >= rep.c_orb


# birational mode: non-complete fans, every ray visible to the search
BL_A2 = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
OPEN_P2 = make_fan(2, P2.rays, P2.max_cones[:2])
OPEN_P1XP1 = make_fan(2, P1XP1.rays, P1XP1.max_cones[:3])
SMALL_CONIFOLD = make_fan(3, CONIFOLD.rays, [(0, 1, 3), (0, 2, 3)])
P1_TIMES_A1 = make_fan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 2), (1, 2)])
BIRATIONAL_CASES = [
    (CONIFOLD, [F(1), F(1), F(1), F(1)]),
    (CONIFOLD, [F(1), F(1, 2), F(1, 2), F(0)]),
    (SMALL_CONIFOLD, [F(1, 2), F(1, 2), F(1, 2), F(1, 2)]),
    (SMALL_CONIFOLD, [F(1), F(2, 3), F(3, 4), F(1, 2)]),
    (A1_SING, [F(1, 2), F(1, 2)]),
    (A1_SING, [F(5, 6), F(5, 6)]),
    (BL_A2, [F(1, 2), F(1, 2), F(1)]),
    (BL_A2, [F(1, 2), F(2, 3), F(5, 6)]),
    (OPEN_P2, [F(1, 2), F(1, 2), F(3, 4)]),
    (OPEN_P1XP1, [F(1), F(1, 2), F(1), F(1, 2)]),
    (OPEN_P1XP1, [F(3, 4), F(2, 3), F(1, 2), F(5, 6)]),
    (P1_TIMES_A1, [F(0), F(0), F(1, 2)]),
    (P1_TIMES_A1, [F(1, 2), F(2, 3), F(3, 4)]),
]


@pytest.mark.parametrize("fan,boundary", BIRATIONAL_CASES)
def test_minimize_matches_bruteforce_birational(fan, boundary):
    rep = minimize(build_pair(fan, boundary, mode="birational"))
    fine, orb = oracle_minimize(fan.rays, tuple(range(len(fan.rays))),
                                boundary)
    assert (rep.c_fine, rep.c_orb) == (fine, orb)
    assert rep.c >= rep.c_fine >= rep.c_orb


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([BL_A2, OPEN_P2, OPEN_P1XP1, SMALL_CONIFOLD,
                        P1_TIMES_A1]),
       st.lists(st.sampled_from([F(0), F(1, 2), F(2, 3), F(3, 4), F(1)]),
                min_size=4, max_size=4))
def test_minimize_matches_bruteforce_random_birational(fan, boundary):
    # simplicial fans: every boundary with coefficients in [0, 1] is lc
    boundary = boundary[:len(fan.rays)]
    rep = minimize(build_pair(fan, boundary, mode="birational"))
    fine, orb = oracle_minimize(fan.rays, tuple(range(len(fan.rays))),
                                boundary)
    assert (rep.c_fine, rep.c_orb) == (fine, orb)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(
    [F(0), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)]),
    min_size=3, max_size=3))
def test_minimize_matches_bruteforce_random_plane(boundary):
    pair = build_pair(P2, boundary)
    rep = minimize(pair)
    fine, orb = oracle_minimize(P2.rays, (0, 1, 2), boundary)
    assert (rep.c_fine, rep.c_orb) == (fine, orb)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([F(0), F(1, 2), F(2, 3), F(1)]),
                min_size=4, max_size=4))
def test_minimize_matches_bruteforce_random_quadric(boundary):
    pair = build_pair(P1XP1, boundary)
    rep = minimize(pair)
    fine, orb = oracle_minimize(P1XP1.rays, (0, 1, 2, 3), boundary)
    assert (rep.c_fine, rep.c_orb) == (fine, orb)


def test_search_space_points_dominate_minimum():
    pair = build_pair(P1XP1, [F(1), F(1), F(1, 2), F(1, 2)])
    rep = minimize(pair)
    for dec in [
        make_decomposition(4, [(1, [1, 0, 0, 0]), (1, [0, 1, 0, 0]),
                               (F(1, 2), [0, 0, 1, 1])]),
        make_decomposition(4, [(1, [1, 0, 0, 0]), (F(1, 2), [0, 1, 0, 1])]),
        make_decomposition(4, [(F(1, 2), [1, 1, 1, 1])]),
    ]:
        assert fine_complexity(pair, dec) >= rep.c_fine


# ---------------------------------------------------------------------------
# the grouping search against its Fraction reference


def random_polygon(rng, nrays):
    """A complete fan in rank 2 with nrays rays of height at most 3."""
    pool = sorted({(x // gcd(x, y), y // gcd(x, y))
                   for x in range(-3, 4) for y in range(-3, 4)
                   if (x, y) != (0, 0)})
    while True:
        rays = sorted(rng.sample(pool, nrays), key=lambda v: atan2(v[1], v[0]))
        turns = zip(rays, rays[1:] + rays[:1])
        if all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in turns):
            cones = [(i, (i + 1) % nrays) for i in range(nrays)]
            return make_fan(2, rays, cones)


GERM_POLYGONS = ([(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)],
                 [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])


def random_germ(rng, polygon):
    """The cone over a lattice polygon, moved by a random shear and shift."""
    k, sx, sy = rng.randint(-2, 2), rng.randint(-1, 1), rng.randint(-1, 1)
    rays = [(x + k * y + sx, y + sy, 1) for x, y in polygon]
    return make_fan(3, rays, [tuple(range(len(rays)))])


# option counts 1, 1, 1, 1, 2, 3 under the default orbifold cap
SEARCH_COEFFS = [F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(5, 6)]


def random_boundary(rng, nrays, t):
    """Coefficient 1 or 0 off t fractional rays, 1 at least once."""
    boundary = [F(rng.choice([1, 1, 1, 0])) for _ in range(nrays)]
    for i in rng.sample(range(nrays), t):
        boundary[i] = rng.choice(SEARCH_COEFFS)
    if 1 not in boundary:
        boundary[boundary.index(0) if 0 in boundary else 0] = F(1)
    return boundary


def assert_halves_match(search, oracle, options):
    """One search over ``options`` returns the oracle's optimum over
    their index-1 choices, then its optimum over all of them; given the
    index-1 choices alone, both halves are that first optimum."""
    plain = [[(1, dict(opts)[1])] for opts in options]
    fine = oracle(plain)
    assert search(options) == (fine, oracle(options))
    assert search(plain) == (fine, fine)


def assert_search_matches_reference(pair):
    pres = pair.class_group
    rays = pair.local_rays()

    def q_class(i):
        unit = [0] * len(rays)
        unit[rays.index(i)] = 1
        return divisor_q_class(pres, unit)

    ones = [i for i in rays if pair.boundary[i] == 1]
    fracs = [i for i in rays if 0 < pair.boundary[i] < 1]
    fixed = [q_class(i) for i in ones]
    elems = [(i, pair.boundary[i], q_class(i)) for i in fracs]
    fixed_rank, projected = project_classes(
        [[int(x) for x in v] for v in fixed],
        [[int(x) for x in v] for _, _, v in elems])
    projected_elems = [(i, a, v) for (i, a, _), v in zip(elems, projected)]
    assert_halves_match(
        lambda opts: _search_fine(fixed_rank, len(ones), projected_elems,
                                  opts),
        lambda opts: reference_search_fine(fixed, elems, opts),
        [[(n, n * (a - 1) + 1) for n in index_options(a, 12)]
         for _, a, _ in elems])


seeds = st.integers(min_value=0, max_value=2 ** 32)


@settings(max_examples=8, deadline=None)
@given(seeds, st.integers(8, 12), st.integers(3, 6))
def test_search_matches_reference_on_polygons(seed, nrays, t):
    rng = random.Random(seed)
    fan = random_polygon(rng, nrays)
    assert_search_matches_reference(
        build_pair(fan, random_boundary(rng, nrays, t)))


@settings(max_examples=20, deadline=None)
@given(seeds, st.sampled_from(GERM_POLYGONS), st.integers(3, 5))
def test_search_matches_reference_on_germs(seed, polygon, t):
    rng = random.Random(seed)
    fan = random_germ(rng, polygon)
    cone = fan.max_cones[0]
    boundary = random_boundary(rng, len(cone), t)
    assert_search_matches_reference(
        build_pair(fan, boundary, mode="local", cone=cone))


@st.composite
def option_lists(draw):
    """Index 1 plus some larger orbifold indices, each with a budget."""
    budget = st.sampled_from([F(k, 12) for k in range(1, 13)])
    indices = [1] + sorted(draw(st.sets(st.sampled_from([2, 3, 4]))))
    return [(n, draw(budget)) for n in indices]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_search_matches_reference_on_random_classes(data):
    """Small integer classes cancel often, so ranks drop in ways the
    fans above rarely produce; the orbifold scaling of a group's class
    and the projection of arbitrary fixed classes both matter here."""
    width = data.draw(st.integers(0, 4))
    vec = st.lists(st.integers(-2, 2), min_size=width, max_size=width)
    fixed = data.draw(st.lists(vec, max_size=3))
    classes = data.draw(st.lists(vec, min_size=1, max_size=5))
    options = [data.draw(option_lists()) for _ in classes]
    elems = [(e, None, v) for e, v in enumerate(classes)]
    fixed_rank, projected = project_classes(fixed, classes)
    projected_elems = [(e, None, v) for e, v in enumerate(projected)]
    assert_halves_match(
        lambda opts: _search_fine(fixed_rank, len(fixed), projected_elems,
                                  opts),
        lambda opts: reference_search_fine(fixed, elems, opts), options)


# The 12-ray polygon of the README's search-time ladder: t fractional
# primes at the first t rays with coefficients cycling 1/2, 3/4, 5/6,
# 2/3 (1, 2, 3 and 1 orbifold options), coefficient one elsewhere.
LADDER_RAYS = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0),
               (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -1)]
LADDER = make_fan(2, LADDER_RAYS,
                  [tuple(sorted((i, (i + 1) % 12))) for i in range(12)])
LADDER_COEFFS = [F(1, 2), F(3, 4), F(5, 6), F(2, 3)]


def ladder_pair(t):
    return build_pair(LADDER, [LADDER_COEFFS[i % 4] if i < t else F(1)
                               for i in range(12)])


def eleven_twelfths_pair(t):
    return build_pair(LADDER, [F(11, 12)] * t + [F(1)] * (12 - t))


@pytest.mark.parametrize("t", range(7))
def test_search_matches_reference_on_ladder(t):
    assert_search_matches_reference(ladder_pair(t))


def assert_quotient_matches_projection(pair):
    """minimize's classes modulo the coefficient-one span, read off the
    cokernel of the other working rays, against the Smith-form
    projection of the class vectors: the same fixed rank, and the same
    rank for every subset of the fractional primes."""
    pres = pair.class_group
    rays = pair.local_rays()
    columns = [list(col) for col in zip(*pres.free_map)] or [[]] * len(rays)
    ones = [k for k, i in enumerate(rays) if pair.boundary[i] == 1]
    fracs = [k for k, i in enumerate(rays) if 0 < pair.boundary[i] < 1]
    fixed_rank, elems = _fractional_elems(pair, [rays[k] for k in fracs])
    classes = [v for _, _, v in elems]
    expected_rank, projected = project_classes(
        [columns[k] for k in ones], [columns[k] for k in fracs])
    assert fixed_rank == expected_rank
    for chosen in product((False, True), repeat=len(fracs)):
        assert (rank_q([v for v, c in zip(classes, chosen) if c])
                == rank_q([v for v, c in zip(projected, chosen) if c]))


@pytest.mark.parametrize("pair", [ladder_pair(t) for t in range(9)]
                         + [eleven_twelfths_pair(t) for t in (5, 8)]
                         + [build_pair(LADDER, [F(1)] * 12),
                            build_pair(LADDER, [F(1, 2)] * 6 + [F(0)] * 6),
                            build_pair(CUBE, [F(1, 2)] * 4 + [F(1)] * 4)])
def test_quotient_matches_class_projection_on_ladder(pair):
    assert_quotient_matches_projection(pair)


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(8, 12), st.integers(0, 6), st.booleans())
def test_quotient_matches_class_projection_on_random_pairs(seed, nrays, t,
                                                           germ):
    rng = random.Random(seed)
    if germ:
        fan = random_germ(rng, rng.choice(GERM_POLYGONS))
        cone = fan.max_cones[0]
        boundary = random_boundary(rng, len(cone), min(t, len(cone)))
        pair = build_pair(fan, boundary, mode="local", cone=cone)
    else:
        pair = build_pair(random_polygon(rng, nrays),
                          random_boundary(rng, nrays, t))
    assert_quotient_matches_projection(pair)


def assert_search_matches_leaf_bound(fixed, classes, options):
    fixed_rank, projected = project_classes(fixed, classes)
    elems = [(e, None, v) for e, v in enumerate(projected)]
    assert_halves_match(
        lambda opts: _search_fine(fixed_rank, len(fixed), elems, opts),
        lambda opts: leaf_bound_search_fine(fixed_rank, len(fixed), elems,
                                            opts),
        options)


def test_search_matches_leaf_bound_search_on_ladder():
    """Seven fractional primes, beyond the reach of the Fraction
    reference: the leaf-bound search ranks at almost every leaf."""
    pair = ladder_pair(7)
    pres = pair.class_group
    classes = [[row[i] for row in pres.free_map] for i in range(12)]
    fracs = [i for i in range(12) if pair.boundary[i] < 1]
    fixed = [classes[i] for i in range(12) if pair.boundary[i] == 1]
    assert_search_matches_leaf_bound(
        fixed, [classes[i] for i in fracs],
        [[(n, n * (pair.boundary[i] - 1) + 1)
          for n in index_options(pair.boundary[i], 12)] for i in fracs])


@pytest.mark.parametrize("classes, coeffs", [
    ([[0, -1, 0], [2, 1, 0], [-2, -2, -2], [-1, -2, 2], [1, 2, 1],
      [-2, 2, -1]], [F(2, 3), F(7, 12), F(3, 4), F(1, 6), F(1, 3), F(1, 12)]),
    ([[-2, 0, 0], [1, -1, -1], [1, 0, 1], [2, -2, 0], [-2, 1, 2],
      [-1, 0, -2]], [F(1, 6), F(2, 3), F(1, 2), F(3, 4), F(1, 6), F(5, 6)]),
])
def test_search_keeps_a_fine_optimum_below_the_orbifold_one(classes, coeffs):
    """F_fine = 1/12 < F_orb here, and the twisted optimum is reached
    before some untwisted node holding the fine one: a search pruning
    that node against the orbifold incumbent loses the fine optimum."""
    options = [_orbifold_options(a, 12) for a in coeffs]
    assert_search_matches_leaf_bound([], classes, options)
    fine, orb = _search_fine(0, 0, [(e, None, v) for e, v in
                                     enumerate(classes)], options)
    assert fine[0] == F(1, 12) < orb[0]


@st.composite
def small_option_lists(draw):
    """Index 1 plus at most one larger index, budgets up to 1."""
    budget = st.sampled_from([F(k, 12) for k in range(1, 13)])
    indices = [1] + draw(st.lists(st.sampled_from([2, 3, 4]), max_size=1))
    return [(n, draw(budget)) for n in indices]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_search_matches_leaf_bound_search_on_random_classes(data):
    """Up to eight elements with small, often cancelling classes, where
    the nullity bound and the group pre-check meet zero, repeated and
    parallel classes and budgets of exactly 1."""
    width = data.draw(st.integers(0, 4))
    vec = st.lists(st.integers(-2, 2), min_size=width, max_size=width)
    fixed = data.draw(st.lists(vec, max_size=3))
    classes = data.draw(st.lists(vec, min_size=1, max_size=8))
    options = [data.draw(small_option_lists()) for _ in classes]
    assert_search_matches_leaf_bound(fixed, classes, options)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_echelon_helpers_match_rank_q(data):
    """Each inserted row adds the rank rank_q sees, and _rank_added
    counts the rank new rows add without changing the basis."""
    width = data.draw(st.integers(0, 5))
    vec = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    rows = data.draw(st.lists(vec, max_size=6))
    basis = []
    for k, row in enumerate(rows):
        added = rank_q(rows[:k + 1]) - rank_q(rows[:k])
        assert _echelon_insert(basis, row) == added
        assert len(basis) == rank_q(rows[:k + 1])
    new = data.draw(st.lists(vec, max_size=6))
    before = [(col, list(row)) for col, row in basis]
    assert _rank_added(basis, new) == rank_q(rows + new) - rank_q(rows)
    assert basis == before


@st.composite
def divisor_option_lists(draw):
    """Index 1 plus at most one other divisor of 12, budgets up to 1."""
    budget = st.sampled_from([F(k, 12) for k in range(1, 13)])
    others = draw(st.lists(st.sampled_from([2, 3, 4, 6, 12]), max_size=1))
    return [(n, draw(budget)) for n in [1] + others]


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_search_matches_leaf_bound_search_on_wide_classes(data):
    """Classes with 4 to 6 coordinates, so a group's row and the rows
    it is reduced against carry large orbifold scalings."""
    width = data.draw(st.integers(4, 6))
    vec = st.lists(st.integers(-2, 2), min_size=width, max_size=width)
    fixed = data.draw(st.lists(vec, max_size=2))
    classes = data.draw(st.lists(vec, min_size=1, max_size=7))
    options = [data.draw(divisor_option_lists()) for _ in classes]
    assert_search_matches_leaf_bound(fixed, classes, options)


# A work budget that admits the ladder up to t = 6 (at most 621 closed
# groups) and stops the polygon with every coefficient 11/12 at t = 7.
SMALL_CLOSE_BUDGET = 2000


def test_search_stops_at_its_work_budget(monkeypatch):
    C = importlib.import_module("toricomplex.complexity")
    monkeypatch.setattr(C, "_CLOSE_BUDGET", SMALL_CLOSE_BUDGET)
    for t in range(7):
        minimize(ladder_pair(t))
    pair = eleven_twelfths_pair(7)
    with pytest.raises(InputTooLargeError,
                       match=f"closed more than {SMALL_CLOSE_BUDGET} groups"):
        minimize(pair)


@pytest.mark.parametrize("pair, closes", [(ladder_pair(6), 621),
                                          (eleven_twelfths_pair(6), 19_919)])
def test_work_budget_counts_one_search(monkeypatch, pair, closes):
    """minimize closes exactly as many groups as the README's table
    lists for these inputs, in one search: a budget of that many
    admits it, one fewer stops it."""
    C = importlib.import_module("toricomplex.complexity")
    monkeypatch.setattr(C, "_CLOSE_BUDGET", closes)
    minimize(pair)
    monkeypatch.setattr(C, "_CLOSE_BUDGET", closes - 1)
    with pytest.raises(InputTooLargeError,
                       match=f"closed more than {closes - 1} groups"):
        minimize(pair)


def test_minimize_searches_once_and_builds_parts_directly(monkeypatch):
    """One grouping search for c_fine and c_orb, and no part sent back
    through make_decomposition."""
    C = importlib.import_module("toricomplex.complexity")
    calls = {"_search_fine": 0, "make_decomposition": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(C, name, counting(name, getattr(C, name)))
    germ = make_fan(3, [(0, -1, 1), (1, 1, 1), (3, 4, 1), (3, 3, 1),
                        (1, 0, 1)], [(0, 1, 2, 3, 4)])
    pair = build_pair(germ, [F(7, 12), F(1, 3), F(1, 12), F(1, 3), F(7, 12)],
                      mode="local", cone=(0, 1, 2, 3, 4))
    report = minimize(pair)
    assert calls == {"_search_fine": 1, "make_decomposition": 0}
    assert (report.c_fine, report.c_orb) == (F(35, 12), F(17, 6))
    assert report.dec_orb.orbifold == (2, 1, 1, 1, 1)



def garbage_cycles_left_by(call):
    """How many objects in reference cycles call() leaves behind."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("t", [0, 1, 4, 6])
def test_minimize_leaves_no_garbage_cycles(t):
    """The grouping search's recursive closures are unlinked when it
    returns, so a minimize call leaves nothing for the cyclic collector,
    whose passes would otherwise land, at random, inside later calls."""
    assert garbage_cycles_left_by(lambda: minimize(ladder_pair(t))) == 0


def test_a_stopped_search_leaves_no_garbage_cycles(monkeypatch):
    C = importlib.import_module("toricomplex.complexity")
    monkeypatch.setattr(C, "_CLOSE_BUDGET", 100)

    def stopped():
        with pytest.raises(InputTooLargeError):
            minimize(ladder_pair(6))

    assert garbage_cycles_left_by(stopped) == 0


def test_hilbert_basis_leaves_no_garbage_cycles():
    """The box points of a simplex are listed without a recursive
    closure, so a Hilbert basis leaves no cycles behind either."""
    assert garbage_cycles_left_by(
        lambda: hilbert_basis([(1, 0, 0), (0, 1, 0), (3, 7, 5)])) == 0


def test_orbifold_options_match_the_fraction_formula():
    """The integer test n(q - p) < q is n(a - 1) + 1 > 0 for a = p/q."""
    for d in range(1, 25):
        for k in range(d + 1):
            a = F(k, d)
            for cap in range(1, 13):
                assert _orbifold_options(a, cap) == [
                    (n, n * (a - 1) + 1) for n in index_options(a, cap)]


def cy_germ_boundaries(fan):
    """Log CY boundaries 1 - <m, u> with coefficients in [0, 1] over the
    cone's rays, m with denominator 2, 3 or 4."""
    out = []
    for d in (2, 3, 4):
        for m in product(range(-2 * d, 2 * d + 1), repeat=3):
            b = [1 - F(sum(x * y for x, y in zip(m, u)), d) for u in fan.rays]
            if all(0 <= x <= 1 for x in b) and b not in out:
                out.append(b)
    return out


@settings(max_examples=6, deadline=None)
@given(seeds, st.integers(5, 6))
def test_minimize_matches_bruteforce_rank_three_and_up(seed, nrays):
    """Pairs with rank Cl_Q >= 3 and coefficient-one primes beside the
    fractional ones, so the search projects onto a proper quotient.  At
    most five primes carry boundary, to keep the oracle fast."""
    rng = random.Random(seed)
    if rng.random() < 0.3:
        fan = random_germ(rng, GERM_POLYGONS[1])
        cone = fan.max_cones[0]
        boundary = rng.choice([b for b in cy_germ_boundaries(fan)
                               if 1 in b and 0 in b
                               and sum(0 < x < 1 for x in b) >= 2])
        pair = build_pair(fan, boundary, mode="local", cone=cone)
    else:
        fan = random_polygon(rng, nrays)
        cone = tuple(range(nrays))
        boundary = [F(1), F(1), F(0)][:nrays - 3] + [
            rng.choice([F(1, 2), F(2, 3), F(3, 4)]) for _ in range(3)]
        rng.shuffle(boundary)
        pair = build_pair(fan, boundary)
    assert pair.class_group.free_rank >= 3
    rep = minimize(pair)
    fine, orb = oracle_minimize(fan.rays, cone, boundary)
    assert (rep.c_fine, rep.c_orb) == (fine, orb)
    assert rep.c >= rep.c_fine >= rep.c_orb


# ---------------------------------------------------------------------------
# local complexity


def test_local_complexity_fixed_points():
    for fan, cone in ((P2, (0, 1)), (A1_SING, (0, 1)),
                      (CONIFOLD, (0, 1, 2, 3))):
        rep = local_complexity_cloc(fan, cone)
        assert rep.value == 0
        assert all(a == 1 for a in rep.boundary)
        assert rep.components == len(cone)


def test_local_complexity_smooth_point_has_dim_components():
    for fan in SUITE.values():
        for cone in fan.max_cones:
            rep = local_complexity_cloc(fan, cone)
            assert rep.value == 0
            assert rep.components == fan.rank


def test_local_complexity_errors():
    with pytest.raises(ValueError):
        local_complexity_cloc(P2, (0,))
    halfline = make_fan(2, [(1, 0)], [(0,)])
    with pytest.raises(NotFullDimensionalError):
        local_complexity_cloc(halfline, (0,))


@pytest.mark.parametrize("cone", [(0.5, 1.7), (0.0, 1), (False, True)])
def test_local_complexity_rejects_non_integer_indices(cone):
    # truncating (0.5, 1.7) would answer for the cone (0, 1)
    with pytest.raises(TypeError):
        local_complexity_cloc(P2, cone)


def _as_lp_answer(rep):
    return (rep.value, rep.boundary, rep.witness, rep.components)


def test_local_complexity_matches_lp_on_suite():
    for fan in SUITE.values():
        for cone in fan.max_cones:
            rep = local_complexity_cloc(fan, cone)
            assert _as_lp_answer(rep) == \
                lp_local_complexity(fan.cone_rays(cone), fan.rank)


@st.composite
def pointed_full_cones(draw):
    """Extremal rays of a random cone in the half-space x_n > 0."""
    n = draw(st.integers(2, 4))
    entry = st.integers(-3, 3)
    vec = st.tuples(*[entry] * (n - 1), st.integers(1, 3))
    return n, lp_extremal_rays(draw(st.lists(vec, min_size=n, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(pointed_full_cones())
def test_local_complexity_matches_lp_on_random_cones(drawn):
    n, rays = drawn
    assume(rank_q(rays) == n)
    fan = make_fan(n, rays, [tuple(range(len(rays)))])
    rep = local_complexity_cloc(fan, tuple(range(len(rays))))
    assert _as_lp_answer(rep) == lp_local_complexity(rays, n)
    assert type(rep.value) is F
    assert all(type(x) is F for x in rep.boundary + rep.witness)
