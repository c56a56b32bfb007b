"""End-to-end acceptance run: one verdict line per numbered criterion.

Every check is exact (rational arithmetic, tolerance zero).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines; a
plain run shows them only for failing criteria.
"""

import random
import time
from fractions import Fraction as F

import pytest

from toricomplex.adjunction import (
    HypothesisViolationError,
    LcViolationError,
    NotDivisorialCenterError,
    check_adjunction,
)
from toricomplex.birational import (
    check_contraction,
    check_extraction,
    check_small,
    contraction,
    extraction,
    small_modification,
)
from toricomplex.complexity import (
    InvalidDecompositionError,
    complexity,
    fine_complexity,
    local_complexity_cloc,
    make_decomposition,
    minimize,
    orbifold_complexity,
)
from toricomplex.conecox import NotInteriorError, cox_degrees, verify_cone_iso
from toricomplex.fan import InvalidFanError, make_fan, star_subdivision
from toricomplex.lattice import primitive_vector
from toricomplex.pairmodel import build_pair

from bruteforce import lp_extremal_rays, oracle_minimize
from fans import A1_SING, A2, BLP2, CONIFOLD, P2, SUITE


def verdict(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def primes(idxs, nrays, weights=None):
    parts = []
    for k, i in enumerate(idxs):
        w = weights[k] if weights else 1
        parts.append((w, [1 if j == i else 0 for j in range(nrays)]))
    return make_decomposition(nrays, parts)


def random_subdivision(fan, rng, max_rays=10):
    """A few star subdivisions at random interior lattice directions."""
    for _ in range(rng.randint(0, 3)):
        if len(fan.rays) >= max_rays:
            break
        cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
        gens = fan.cone_rays(cone)
        weights = [rng.randint(1, 3) for _ in gens]
        v = primitive_vector(tuple(
            sum(w * g[i] for w, g in zip(weights, gens))
            for i in range(fan.rank)))
        fan = star_subdivision(fan, v)
    return fan


def random_cy_boundary(fan, rng, tries=12):
    """Coefficients 1 - <m, u> in [0, 1] for a random rational m."""
    for _ in range(tries):
        m = tuple(F(rng.randint(-2, 2), rng.randint(1, 3))
                  for _ in range(fan.rank))
        b = [1 - sum(mi * ui for mi, ui in zip(m, u)) for u in fan.rays]
        if all(0 <= x <= 1 for x in b):
            return b
    return [F(1)] * len(fan.rays)


@pytest.fixture(scope="module")
def sweep():
    """500 random lc CY pairs with their minimize reports (criteria 2-3)."""
    rng = random.Random(20260819)
    names = sorted(SUITE)
    instances = []
    start = time.perf_counter()
    while len(instances) < 500:
        fan = random_subdivision(SUITE[rng.choice(names)], rng)
        pair = build_pair(fan, random_cy_boundary(fan, rng))
        instances.append((pair, minimize(pair)))
    return instances, time.perf_counter() - start


@pytest.fixture(scope="module")
def cone_suite():
    """Named plus 50 random pointed cones with interior vectors (6-7)."""
    named = [
        (A2, (1, 1)),
        (A1_SING, (1, 1)),
        (CONIFOLD, (1, 1, 2)),
    ]
    rng = random.Random(6)
    randoms = []
    start = time.perf_counter()
    while len(randoms) < 50:
        rank = rng.choice([2, 3])
        raw = {tuple(rng.randint(-4, 4) for _ in range(rank))
               for _ in range(rng.randint(rank, rank + 2))}
        prims = sorted({primitive_vector(u) for u in raw if any(u)})
        rays = lp_extremal_rays(prims)
        try:
            fan = make_fan(rank, rays, [tuple(range(len(rays)))])
        except (InvalidFanError, ValueError):
            continue
        v = primitive_vector(tuple(
            sum(w * u[i] for w, u in zip(
                [rng.randint(1, 3) for _ in rays], rays))
            for i in range(rank)))
        try:
            verify_cone_iso(fan, v)
        except (NotInteriorError, InvalidFanError, ValueError):
            continue
        randoms.append((fan, v))
    return named, randoms, time.perf_counter() - start


def test_criterion_1_suite_boundary_has_complexity_zero():
    start = time.perf_counter()
    bad = []
    for name in sorted(SUITE):
        fan = SUITE[name]
        rep = minimize(build_pair(fan, [F(1)] * len(fan.rays)))
        if (rep.c, rep.c_fine, rep.c_orb) != (0, 0, 0):
            bad.append(name)
    elapsed = time.perf_counter() - start
    verdict(1, not bad and elapsed < 1.0,
            f"7 complete fans at (0, 0, 0) in {elapsed:.2f}s"
            + (f"; offenders {bad}" if bad else ""))


def test_criterion_2_orbifold_complexity_is_nonnegative(sweep):
    instances, elapsed = sweep
    worst = min(rep.c_orb for _, rep in instances)
    zeros = sum(1 for _, rep in instances if rep.c_orb == 0)
    verdict(2, worst >= 0 and elapsed < 60.0,
            f"500 random lc CY pairs, min value {worst}, {zeros} exactly"
            f" zero, {elapsed:.1f}s")


def test_criterion_3_inequality_chain(sweep):
    instances, _ = sweep
    ok = True
    for pair, rep in instances:
        ok &= rep.c >= rep.c_fine >= rep.c_orb
        for dec in (rep.dec_c, rep.dec_fine):
            plain = complexity(pair, dec)
            fine = fine_complexity(pair, dec)
            ok &= plain >= fine >= orbifold_complexity(pair, dec)
        ok &= orbifold_complexity(pair, rep.dec_orb) == rep.c_orb
    verdict(3, ok, "c >= fine >= orbifold on every reported decomposition")


def test_criterion_4_adjunction_monotonicity():
    rng = random.Random(4)
    names = [n for n in sorted(SUITE) if SUITE[n].rank >= 2]
    start = time.perf_counter()
    checked = equalities = 0
    ok = True
    while checked < 200:
        fan = random_subdivision(SUITE[rng.choice(names)], rng)
        nrays = len(fan.rays)
        boundary = ([F(1)] * nrays if rng.random() < 0.5
                    else random_cy_boundary(fan, rng))
        center = rng.randrange(nrays)
        if boundary[center] != 1:
            continue
        adjacent = {i for cone in fan.max_cones if center in cone
                    for i in cone}
        support = [i for i in sorted(adjacent) if boundary[i] > 0]
        pair = build_pair(fan, boundary)
        dec = primes(support, nrays,
                     weights=[boundary[i] for i in support])
        try:
            chk = check_adjunction(pair, dec, center)
        except (HypothesisViolationError, LcViolationError,
                NotDivisorialCenterError, InvalidDecompositionError):
            continue
        ok &= chk.monotone
        if chk.equality:
            equalities += 1
            if chk.span_full:
                ok &= chk.sigma_is_boundary
        checked += 1
    elapsed = time.perf_counter() - start
    verdict(4, ok and elapsed < 60.0,
            f"200 instances monotone ({equalities} with equality),"
            f" {elapsed:.1f}s")


def test_criterion_5_mmp_lemma_suite():
    start = time.perf_counter()
    ok = True

    ray_e = BLP2.rays.index((1, 1))
    blowdown = contraction(BLP2, P2, ray_e)
    blp2 = build_pair(BLP2, [F(1)] * 4)
    full = check_contraction(blp2, blowdown, primes(range(4), 4))
    half = check_contraction(blp2, blowdown,
                             primes(range(4), 4, weights=[1, 1, 1, F(1, 2)]))
    absent = check_contraction(blp2, blowdown, primes([0, 1, 2], 4))
    ok &= full.ok and full.equality_plain and full.criterion
    ok &= half.ok and not half.equality_plain and not half.criterion
    ok &= absent.ok and not absent.equality_plain and not absent.criterion

    flop_a = make_fan(3, CONIFOLD.rays, [(0, 1, 3), (0, 2, 3)])
    flop_b = make_fan(3, CONIFOLD.rays, [(0, 1, 2), (1, 2, 3)])
    flop = check_small(build_pair(flop_a, [F(1)] * 4, mode="birational"),
                       small_modification(flop_a, flop_b),
                       primes(range(4), 4))
    ok &= flop.ok and flop.values_source == flop.values_target

    p2 = build_pair(P2, [F(1)] * 3)
    for v in [(1, 1), (2, 1)]:
        rep = check_extraction(p2, extraction(P2, [v]), primes(range(3), 3))
        ok &= rep.ok and rep.discrepancies == (0,)
        ok &= rep.values_source[1] == rep.values_target[1]

    elapsed = time.perf_counter() - start
    verdict(5, ok and elapsed < 1.0,
            f"blow-down variants, flop, two extractions in {elapsed:.2f}s")


def test_criterion_6_cone_isomorphism(cone_suite):
    named, randoms, elapsed = cone_suite
    ok = True
    start = time.perf_counter()
    for fan, v in named + randoms:
        rep = verify_cone_iso(fan, v)
        ok &= rep.ok
        ok &= len(rep.witness) == fan.rank
        ok &= sorted(rep.ray_map) == list(range(len(rep.target.rays)))
    elapsed += time.perf_counter() - start
    verdict(6, ok and elapsed < 30.0,
            f"3 named + {len(randoms)} random cones, unimodular witnesses,"
            f" {elapsed:.1f}s")


def test_criterion_7_class_group_rank_step(cone_suite):
    named, randoms, _ = cone_suite
    ok = True
    for fan, v in named + randoms:
        g = cox_degrees(fan, v)
        ok &= g.cl_y.free_rank == g.cl_x.free_rank + 1
    verdict(7, ok, f"rank step +1 on all {len(named) + len(randoms)} germs")


def test_criterion_8_local_complexity_zero_at_fixed_points():
    ok = True
    cones = 0
    for name in sorted(SUITE):
        fan = SUITE[name]
        for cone in fan.max_cones:
            rep = local_complexity_cloc(fan, cone)
            ok &= rep.value == 0
            ok &= rep.components == fan.rank
            ok &= sum(1 for b in rep.boundary if b == 1) == fan.rank
            cones += 1
    verdict(8, ok, f"value 0 with rank-many coefficient-1 components"
                   f" at all {cones} fixed points")


def test_criterion_9_minimize_matches_exhaustive_oracle():
    sub4 = star_subdivision(P2, (1, 1))
    sub5 = star_subdivision(sub4, (-1, 0))
    sub6 = star_subdivision(sub5, (0, -1))
    cases = [(SUITE[name], None, [F(1)] * len(SUITE[name].rays))
             for name in sorted(SUITE)]
    cases += [
        (SUITE["P2"], None, [F(5, 6), F(1, 2), F(3, 4)]),
        (SUITE["P1xP1"], None, [F(3, 4), F(2, 3), F(1, 2), F(1)]),
        (BLP2, None, [F(1), F(1), F(1), F(1, 2)]),
        (SUITE["F2"], None, [F(1), F(1, 2), F(1), F(1, 3)]),
        (sub4, None, [F(1)] * 4),
        (sub5, None, [F(1)] * 5),
        (sub6, None, [F(1)] * 6),
        (sub6, None, [F(1), F(1, 2), F(1), F(0), F(2, 3), F(1)]),
        (A1_SING, (0, 1), [F(1), F(1)]),
        (A1_SING, (0, 1), [F(5, 6), F(5, 6)]),
    ]
    start = time.perf_counter()
    ok = True
    for fan, cone, boundary in cases:
        assert sum(1 for b in boundary if b > 0) <= 6
        if cone is None:
            pair = build_pair(fan, boundary)
            local = tuple(range(len(fan.rays)))
        else:
            pair = build_pair(fan, boundary, mode="local", cone=cone)
            local = cone
        rep = minimize(pair)
        fine, orb = oracle_minimize(fan.rays, local, boundary)
        ok &= (rep.c_fine, rep.c_orb) == (fine, orb)
    elapsed = time.perf_counter() - start
    verdict(9, ok, f"{len(cases)} instances against the exhaustive"
                   f" minimizer, {elapsed:.1f}s")
