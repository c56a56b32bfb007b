import json
import random
from fractions import Fraction as F

import pytest

import toricomplex.pairmodel
from toricomplex.complexity import minimize
from toricomplex.fan import make_fan, star_subdivision
from toricomplex.lattice import primitive_vector
from toricomplex.pairmodel import (
    InvalidPairError,
    build_pair,
    format_rational,
    is_log_canonical,
    is_log_cy,
    log_canonical_coeffs,
    pair_class_group,
    pair_from_dict,
    pair_to_dict,
    parse_rational,
)

from bruteforce import gauss_jordan_solve
from fans import A1_SING, A3, CONIFOLD, P2, P3

BL_A2_CONES = [(0, 2), (1, 2)]

CUBE = make_fan(
    3,
    [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1),
     (1, 1, -1), (-1, 1, -1), (1, -1, -1), (-1, -1, -1)],
    [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 4, 5), (2, 3, 6, 7),
     (0, 2, 4, 6), (1, 3, 5, 7)],
)


def test_rational_strings_round_trip():
    for text, value in [("1/2", F(1, 2)), ("-3/4", F(-3, 4)),
                        ("7", F(7)), ("0", F(0))]:
        assert parse_rational(text) == value
        assert parse_rational(format_rational(value)) == value
    with pytest.raises(InvalidPairError):
        parse_rational("1.5")
    with pytest.raises(InvalidPairError):
        parse_rational("1/0")


def test_build_rejects_bad_coefficients():
    with pytest.raises(InvalidPairError):
        build_pair(P2, [F(1), F(1)])
    with pytest.raises(InvalidPairError):
        build_pair(P2, [F(3, 2), F(0), F(0)])
    with pytest.raises(InvalidPairError):
        build_pair(P2, [F(-1, 2), F(0), F(0)])


def test_mode_shapes():
    with pytest.raises(InvalidPairError):  # projective needs a complete fan
        build_pair(A1_SING, [F(0), F(0)])
    with pytest.raises(InvalidPairError):  # cone only makes sense locally
        build_pair(P2, [F(0)] * 3, cone=(0, 1))
    with pytest.raises(InvalidPairError):  # local needs a maximal cone
        build_pair(A1_SING, [F(0), F(0)], mode="local", cone=(0,))
    with pytest.raises(InvalidPairError):  # birational means non-complete
        build_pair(P2, [F(0)] * 3, mode="birational")
    germ = build_pair(A1_SING, [F(1), F(0)], mode="local", cone=(0, 1))
    assert germ.local_rays() == (0, 1)


def test_nef_part_must_be_q_cartier():
    # a single ray divisor on the conifold is not Q-Cartier
    bad = [F(1), F(0), F(0), F(0)]
    with pytest.raises(InvalidPairError):
        build_pair(CONIFOLD, [F(1)] * 4, mode="birational", nef_part=bad)
    ok = build_pair(CONIFOLD, [F(1)] * 4, mode="birational",
                    nef_part=[F(0)] * 4)
    assert ok.nef_part is None  # zero trace is normalized away


def test_log_flags_by_mode():
    full = build_pair(P2, [F(1)] * 3)
    assert is_log_cy(full) and is_log_canonical(full)
    partial = build_pair(P2, [F(1), F(1), F(0)])
    assert not is_log_cy(partial) and is_log_canonical(partial)
    germ = build_pair(A1_SING, [F(1), F(1, 2)], mode="local", cone=(0, 1))
    assert is_log_cy(germ)  # germs only need a rational solution on sigma


def _count_solves(monkeypatch):
    """Count the calls of the rational solver made through pairmodel."""
    calls = []
    solve = toricomplex.pairmodel.solve_rational

    def counted(a, b):
        calls.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(toricomplex.pairmodel, "solve_rational", counted)
    return calls


def test_linear_data_is_solved_once_per_pair(monkeypatch):
    calls = _count_solves(monkeypatch)
    germ = build_pair(A1_SING, [F(1), F(1, 2)], mode="local", cone=(0, 1))
    for _ in range(2):
        assert is_log_cy(germ) and is_log_canonical(germ)
        minimize(germ)
        assert calls == [2]  # the chosen cone, once
    calls.clear()
    full = build_pair(P2, [F(1)] * 3)
    assert is_log_cy(full) and is_log_canonical(full)
    minimize(full)
    # one solve per maximal cone and one global witness
    assert sorted(calls) == [2, 2, 2, 3]
    calls.clear()
    assert is_log_canonical(full)
    minimize(full)
    assert calls == []
    assert is_log_cy(full) and calls == [3]  # the global witness is not kept


def random_subdivision(fan, rng):
    """Star subdivisions at one or two positive combinations of the rays
    of a random maximal cone."""
    for _ in range(rng.randint(1, 2)):
        gens = fan.cone_rays(rng.choice(fan.max_cones))
        weights = [rng.randint(1, 3) for _ in gens]
        fan = star_subdivision(fan, primitive_vector(
            [sum(w * g[i] for w, g in zip(weights, gens))
             for i in range(fan.rank)]))
    return fan


def test_linear_data_matches_gauss_jordan():
    """The cached linear data of K + B + M and the two predicates against
    the Fraction Gauss-Jordan oracle, on complete fans, germs and their
    random star subdivisions, in every mode."""
    rng = random.Random(14)
    for base, mode in [(P2, "projective"), (P3, "projective"),
                       (CUBE, "projective"), (CONIFOLD, "birational"),
                       (A3, "birational")]:
        for fan in (base, random_subdivision(base, rng)):
            for _ in range(3):
                boundary = [rng.choice((F(0), F(1, 2), F(1)))
                            for _ in fan.rays]
                pairs = [build_pair(fan, boundary, mode=mode)]
                pairs += [build_pair(fan, boundary, mode="local", cone=c)
                          for c in fan.max_cones]
                for pair in pairs:
                    kb = log_canonical_coeffs(pair)
                    cones = fan.max_cones if pair.cone is None \
                        else (pair.cone,)
                    expected = tuple(
                        gauss_jordan_solve([fan.rays[i] for i in c],
                                           [-kb[i] for i in c])
                        for c in cones)
                    assert pair.log_linear_data == expected
                    assert is_log_canonical(pair) == (None not in expected)
                    witness = expected[0] if pair.mode == "local" \
                        else gauss_jordan_solve(fan.rays, kb)
                    assert is_log_cy(pair) == (witness is not None)


def test_class_group_respects_mode():
    proj = build_pair(CONIFOLD, [F(0)] * 4, mode="local", cone=(0, 1, 2, 3))
    bir = build_pair(CONIFOLD, [F(0)] * 4, mode="birational")
    assert pair_class_group(proj).free_rank == 1
    assert pair_class_group(bir).free_rank == 1


def test_json_round_trip_is_byte_identical():
    pair = build_pair(A1_SING, [F(1), F(1, 2)], mode="local", cone=(0, 1))
    blob = json.dumps(pair_to_dict(pair), sort_keys=True, indent=2)
    again = pair_from_dict(json.loads(blob))
    assert again == pair
    assert json.dumps(pair_to_dict(again), sort_keys=True, indent=2) == blob


def test_from_dict_rejects_garbage():
    good = pair_to_dict(build_pair(P2, [F(1)] * 3))
    for breakage in [
        lambda d: d.update(schema=99),
        lambda d: d.pop("boundary"),
        lambda d: d.update(boundary=["1", "1"]),
        lambda d: d.update(mode="affine"),
    ]:
        doc = json.loads(json.dumps(good))
        breakage(doc)
        with pytest.raises(InvalidPairError):
            pair_from_dict(doc)
