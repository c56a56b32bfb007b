import json
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from toricomplex.complexity import minimize
from toricomplex.divisor import NotQCartierError, _cone_data, cartier_data
from toricomplex.fan import make_fan, star_subdivision
from toricomplex.lattice import primitive_vector
from toricomplex.pairmodel import (
    InvalidPairError,
    build_pair,
    format_rational,
    is_log_canonical,
    is_log_cy,
    log_canonical_coeffs,
    pair_from_dict,
    pair_to_dict,
    parse_rational,
)

from bruteforce import (gauss_jordan_solve, solve_is_log_canonical,
                        solve_is_log_cy)
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


POLYGON_GERM = make_fan(
    3, [(0, 0, 1), (1, 0, 1), (2, 1, 1), (1, 2, 1), (0, 1, 1)],
    [(0, 1, 2, 3, 4)])


def _count_solves(monkeypatch):
    """Count the calls of the rational solver, through every module of
    the package that holds it."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("toricomplex") and hasattr(module, "solve_rational"):
            def counted(a, b, solve=module.solve_rational):
                calls.append(len(a))
                return solve(a, b)
            monkeypatch.setattr(module, "solve_rational", counted)
    return calls


def test_linear_data_is_solved_once_per_pair(monkeypatch):
    """The predicates and minimize read class groups and solve nothing;
    the linear data, where it is read, is solved once per maximal cone."""
    calls = _count_solves(monkeypatch)
    # K + B = -<m, u> with m = (1/4, 0, 0) on the polygon germ
    for pair, cones in [
        (build_pair(P2, [F(1)] * 3), [2, 2, 2]),
        (build_pair(A1_SING, [F(1), F(1, 2)], mode="local", cone=(0, 1)),
         [2]),
        (build_pair(POLYGON_GERM, [F(1), F(3, 4), F(1, 2), F(3, 4), F(1)],
                    mode="local", cone=(0, 1, 2, 3, 4)), [5]),
    ]:
        for _ in range(2):
            assert is_log_cy(pair) and is_log_canonical(pair)
            minimize(pair)
        assert calls == []
        cartier_data(pair.fan, log_canonical_coeffs(pair))
        assert calls == cones
        calls.clear()


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


def _linear_data_or_none(fan, coeffs, ci):
    try:
        return _cone_data(fan, coeffs, ci)
    except NotQCartierError as exc:
        assert exc.cone_idx == ci
        return None


def test_linear_data_matches_gauss_jordan():
    """The per-cone linear data of K + B + M and the two predicates
    against the Fraction Gauss-Jordan oracle, on complete fans, germs and
    their random star subdivisions, in every mode."""
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
                    got = tuple(_linear_data_or_none(
                        fan, kb, fan.max_cones.index(c)) for c in cones)
                    assert got == expected
                    assert is_log_canonical(pair) == (None not in expected)
                    witness = expected[0] if pair.mode == "local" \
                        else gauss_jordan_solve(fan.rays, kb)
                    assert is_log_cy(pair) == (witness is not None)


# (fan, mode) families of the differential test: simplicial and
# non-simplicial complete fans, germs over polygons and the conifold,
# and fans over an affine base
GERM_POLYGONS = ([(0, 0), (1, 0), (0, 1)],
                 [(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)],
                 [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
                 [(0, 0), (2, 0), (3, 1), (0, 1)])
FAMILIES = ("projective", "local", "birational")


def random_pair(rng):
    """A pair of a random family, boundary and nef part.

    The boundary is drawn per ray, constant, or as 1 - <m, u> for a
    random m, clipped to [0, 1], so Q-Cartier and non-Q-Cartier
    boundaries both come up on non-simplicial cones.  The nef part, when
    there is one, is -c K, a principal divisor <m', u> >= 0, or their
    sum; a candidate that build_pair rejects is dropped.
    """
    mode = rng.choice(FAMILIES)
    if mode == "projective":
        fan = rng.choice((P2, P3, CUBE))
    else:
        k, sx = rng.randint(-2, 2), rng.randint(-1, 1)
        fan = rng.choice([CONIFOLD, A1_SING, A3] + [
            make_fan(3, [(x + k * y + sx, y, 1) for x, y in polygon],
                     [tuple(range(len(polygon)))])
            for polygon in GERM_POLYGONS] + [CUBE] * (mode == "local"))
    if rng.random() < 0.4:
        fan = random_subdivision(fan, rng)
    cone = rng.choice(fan.max_cones) if mode == "local" else None
    m = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(fan.rank)]
    shape = rng.randrange(3)
    if shape == 0:
        boundary = [rng.choice((F(0), F(1, 3), F(1, 2), F(1)))
                    for _ in fan.rays]
    elif shape == 1:
        boundary = [rng.choice((F(0), F(1, 2), F(1)))] * len(fan.rays)
    else:
        boundary = [min(max(1 - sum(a * x for a, x in zip(m, u)), F(0)), F(1))
                    for u in fan.rays]
    nef = None
    if rng.random() < 0.4:
        c = rng.choice((F(0), F(1, 2), F(1)))
        shift = [sum(a * x for a, x in zip(m, u)) for u in fan.rays]
        if rng.random() < 0.5 or min(shift) < 0:
            shift = [F(0)] * len(fan.rays)
        nef = [c + x for x in shift]
    try:
        return build_pair(fan, boundary, mode=mode, cone=cone, nef_part=nef)
    except InvalidPairError:
        return build_pair(fan, boundary, mode=mode, cone=cone)


def test_predicates_match_solve_oracles():
    """is_log_canonical and is_log_cy, read off class groups, against the
    solve-based oracles in every mode; pairs that fail for want of
    Q-Cartier data are drawn in each mode, as are nef parts that push
    B + M past 1, and log canonical pairs on non-simplicial cones."""
    seen = set()

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32))
    def check(seed):
        pair = random_pair(random.Random(seed))
        lc, cy = is_log_canonical(pair), is_log_cy(pair)
        assert lc == solve_is_log_canonical(pair)
        assert cy == solve_is_log_cy(pair)
        total = pair.total_coeffs()
        if any(total[i] > 1 for i in pair.local_rays()):
            seen.add("B + M > 1")
        elif not lc:
            seen.add(("not Q-Cartier", pair.mode))
        elif any(len(c) > pair.fan.rank for c in pair.fan.max_cones
                 if pair.cone in (None, c)):
            seen.add(("lc, non-simplicial", pair.mode))
        if pair.nef_part is not None:
            seen.add(("nef part", lc))

    check()
    assert {("not Q-Cartier", mode) for mode in FAMILIES} <= seen
    assert {("lc, non-simplicial", mode) for mode in FAMILIES} <= seen
    assert {"B + M > 1", ("nef part", True), ("nef part", False)} <= seen


def test_class_group_respects_mode():
    proj = build_pair(CONIFOLD, [F(0)] * 4, mode="local", cone=(0, 1, 2, 3))
    bir = build_pair(CONIFOLD, [F(0)] * 4, mode="birational")
    assert proj.class_group.free_rank == 1
    assert bir.class_group.free_rank == 1


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
