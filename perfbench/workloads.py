"""Deterministic inputs for the three benchmark workloads.

Inputs are built in plain Python from the workload seed, so the library
under test never helps to make its own inputs: it only ever sees the
generated documents.  Every generator works in balanced blocks (each
block holds every input class once, in shuffled order), so that a run
of any length sees nearly the same mix on every seed.
"""

import random
from fractions import Fraction
from math import gcd

_P1XP1XP1_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                  (-1, 0, 0), (0, -1, 0), (0, 0, -1)]

# The complete fans bundled with `check suite`, plus (P^1)^3.
BUNDLED = {
    "P1": (1, [(1,), (-1,)], [(0,), (1,)]),
    "P2": (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    "P3": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
           [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
    "P1xP1": (2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
              [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "BlP2": (2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
             [(0, 2), (0, 3), (1, 2), (1, 3)]),
    "F1": (2, [(1, 0), (0, 1), (-1, 1), (0, -1)],
           [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "F2": (2, [(1, 0), (0, 1), (-1, 2), (0, -1)],
           [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "P1xP1xP1": (3, _P1XP1XP1_RAYS,
                 [(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)]),
}

SWEEP_FRACTIONS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                   Fraction(3, 4), Fraction(1, 4), Fraction(5, 6)]
SEARCH_DENOMINATORS = (2, 3, 4, 6, 12)

CLI_COMMANDS = ("validate", "classgroup", "complexity", "minimize", "adjoin",
                "cone", "hilbert", "check-contract", "check-small",
                "check-extract", "check-suite")


def _rng(workload, seed):
    return random.Random(f"perfbench:{workload}:{seed}")


def _primitive(v):
    g = gcd(*v)
    return tuple(x // g for x in v)


def rat_text(x):
    """An exact rational as the library's JSON documents write it."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _unimodular(rank, rng, steps):
    """A random integer matrix of determinant +-1 with small entries."""
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    if rank == 1:
        return m
    for _ in range(steps):
        i, j = rng.sample(range(rank), 2)
        s = rng.choice((-1, 1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return m


def _transform(matrix, rays):
    return [tuple(_dot(row, u) for row in matrix) for u in rays]


def _subdivide(rank, rays, cones, rng):
    """Star subdivision of a simplicial fan at an interior point of a
    random maximal cone: the cone is replaced by its facets joined with
    the new ray."""
    cone = rng.choice(cones)
    weights = [rng.randint(1, 3) for _ in cone]
    v = _primitive(tuple(sum(w * rays[i][k] for w, i in zip(weights, cone))
                         for k in range(rank)))
    new = len(rays)
    rest = [c for c in cones if c != cone]
    joins = [tuple(sorted([i for i in cone if i != j] + [new])) for j in cone]
    return rays + [v], sorted(rest + joins)


def _fan_doc(rank, rays, cones):
    return {"rank": rank, "rays": [list(u) for u in rays],
            "max_cones": [list(c) for c in cones]}


# Redraws allowed for a fan that repeats one seen before.
_MAX_REDRAWS = 64


def _fresh_fan(name, rng, seen, subdivisions):
    """A bundled fan, subdivided and moved by a random lattice automorphism,
    whose content differs from every fan in ``seen`` (P^1 is the only
    complete fan of rank one, so it is exempt).

    Each redraw takes one more elementary step in the automorphism, so the
    number of candidates grows geometrically with the redraws and a long
    run cannot use them all up."""
    rank, rays, cones = BUNDLED[name]
    if rank == 1:
        return rank, list(rays), list(cones)
    for extra in range(_MAX_REDRAWS):
        r, c = list(rays), list(cones)
        for _ in range(subdivisions):
            r, c = _subdivide(rank, r, c, rng)
        steps = rng.randint(1, 3) + extra
        r = _transform(_unimodular(rank, rng, steps=steps), r)
        key = (rank, tuple(r), tuple(map(tuple, c)))
        if key not in seen:
            seen.add(key)
            return rank, r, c
    raise RuntimeError(f"no fresh {name} fan in {_MAX_REDRAWS} draws")


# ---------------------------------------------------------------------------
# sweep: many cold pairs

SWEEP_KINDS = ("ones", "cy", "lc")


def _sweep_op(rng, name, kind, local, subdivisions, seen):
    rank, rays, cones = _fresh_fan(name, rng, seen, subdivisions)
    n = len(rays)
    b = [Fraction(1)] * n
    cone = rng.choice(cones) if local else None
    # A projective CY boundary 1 - <m, u> in [0, 1] on rays that
    # positively span N_R forces m = 0, so it is all ones.  On the rays of
    # a full-dimensional simplicial cone any coefficients are 1 - <m, u>.
    if kind == "cy" and local:
        for i in cone:
            b[i] = rng.choice(SWEEP_FRACTIONS + [Fraction(1)])
    elif kind == "lc":
        for i in rng.sample(range(n), min(n, rng.randint(1, 3))):
            b[i] = rng.choice(SWEEP_FRACTIONS)
    doc = _fan_doc(rank, rays, cones)
    doc["boundary"] = [rat_text(x) for x in b]
    ones = [i for i in range(n) if b[i] == 1]
    if local:
        doc["mode"] = "local"
        doc["cone"] = list(cone)
        ones = [i for i in cone if b[i] == 1] or ones
    ray = rng.choice(ones) if ones and rank > 1 else None
    return {"cls": f"{name}/{kind}/{'local' if local else 'projective'}",
            "doc": doc, "adjoin_ray": ray}


def sweep_ops(seed):
    """Endless blocks of 48 ops: every bundled fan x boundary kind x mode.
    Each of them takes 0, 1, 2 and 3 star subdivisions in turn over four
    blocks: the slowest ops are the most subdivided (P^1)^3 fans, and a
    steady share of them keeps the tail latency steady across seeds."""
    rng = _rng("sweep", seed)
    seen = set()
    specs = [(name, kind, local) for name in BUNDLED
             for kind in SWEEP_KINDS for local in (False, True)]
    blocks = 0
    while True:
        block = [spec + ((blocks + i) % 4,) for i, spec in enumerate(specs)]
        blocks += 1
        rng.shuffle(block)
        for spec in block:
            yield _sweep_op(rng, *spec, seen)


# ---------------------------------------------------------------------------
# search: fractional-prime minimization

def _polygon_fan(nrays, rng):
    """A complete fan in rank 2 with ``nrays`` rays of small height."""
    pool = sorted({_primitive((x, y)) for x in range(-3, 4)
                   for y in range(-3, 4) if (x, y) != (0, 0)})
    while True:
        rays = rng.sample(pool, nrays)
        rays.sort(key=_angle_key)
        pairs = list(zip(rays, rays[1:] + rays[:1]))
        if all(a[0] * b[1] - a[1] * b[0] > 0 for a, b in pairs):
            cones = [tuple(sorted((i, (i + 1) % nrays))) for i in range(nrays)]
            return rays, cones


def _angle_key(v):
    # exact angular order: the upper half-plane first, then by the
    # diamond angle, which is monotone in the true angle
    x, y = v
    if y > 0 or (y == 0 and x > 0):
        return (0, Fraction(-x, abs(x) + abs(y)))
    return (1, Fraction(x, abs(x) + abs(y)))


_GERM_POLYGONS = {
    5: [(0, 0), (1, 0), (2, 1), (1, 2), (0, 1)],
    6: [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
}


def _option_count(a, cap=12):
    """How many orbifold indices ``minimize`` tries for a coefficient a:
    divisors n <= cap of its denominator with n (a - 1) + 1 > 0.  The
    search cost grows with the product of these counts."""
    return sum(1 for n in range(1, min(a.denominator, cap) + 1)
               if a.denominator % n == 0 and n * (a - 1) + 1 > 0)


_FRACTIONS = sorted({Fraction(k, d) for d in SEARCH_DENOMINATORS
                     for k in range(1, d)})
_BY_OPTIONS = {}
for _a in _FRACTIONS:
    _BY_OPTIONS.setdefault(_option_count(_a), []).append(_a)


_MAX_GERM_DRAWS = 100_000


def _germ_boundary(rays, rng, profile):
    """A CY boundary 1 - <m, u> with coefficients in [0, 1] whose
    fractional coefficients have exactly the given option counts."""
    for _ in range(_MAX_GERM_DRAWS):
        m = [Fraction(rng.randint(-2, 2), rng.choice(SEARCH_DENOMINATORS))
             for _ in range(3)]
        b = [1 - _dot(m, u) for u in rays]
        if not all(0 <= x <= 1 for x in b):
            continue
        counts = sorted(_option_count(x) for x in b if 0 < x < 1)
        if tuple(counts) == profile:
            return b
    raise RuntimeError(f"no germ boundary with option counts {profile}")


# Each slot of a search block: (fan, option counts of its fractional
# primes).  Fixing the option counts keeps the search size of a slot
# nearly the same on every seed; unconstrained coefficients can make one
# germ run for minutes.  The slot count is odd and the slots differ in
# cost, so the median latency falls inside one slot's spread rather than
# in the gap between two.
SEARCH_SLOTS = (("polygon12", (1, 1, 1, 1, 2)), ("polygon12", (1, 1, 2, 2)),
                ("polygon10", (1, 1, 1, 1, 1)), ("polygon10", (1, 1, 1, 3)),
                ("polygon8", (1, 2, 5)),
                ("germ5", (1, 1, 1, 2, 2)), ("germ6", (1, 1, 1, 1, 2, 2)))


def _search_fans(rng):
    """The few fans of a search run: fixed shapes, moved by a lattice
    automorphism drawn from the seed."""
    shapes = _rng("search", "shapes")
    fans = {}
    for size in (8, 10, 12):
        rays, cones = _polygon_fan(size, shapes)
        a = _unimodular(2, rng, steps=rng.randint(1, 3))
        fans[f"polygon{size}"] = (2, _transform(a, rays), cones, None)
    for sides, poly in _GERM_POLYGONS.items():
        a = _unimodular(2, rng, steps=rng.randint(1, 2))
        shift = (rng.randint(-1, 1), rng.randint(-1, 1))
        rays = [tuple(_dot(row, p) + s for row, s in zip(a, shift)) + (1,)
                for p in poly]
        cone = tuple(range(sides))
        fans[f"germ{sides}"] = (3, rays, [cone], cone)
    return fans


def search_ops(seed):
    """Endless blocks of one op per slot; the fans are a few per seed."""
    rng = _rng("search", seed)
    fans = _search_fans(rng)
    while True:
        block = list(SEARCH_SLOTS)
        rng.shuffle(block)
        for name, profile in block:
            rank, rays, cones, cone = fans[name]
            doc = _fan_doc(rank, rays, cones)
            if cone is None:
                # evenly spread fractional primes: where they sit changes
                # the search cost about twice as much as their values do
                n, t = len(rays), len(profile)
                b = [Fraction(1)] * n
                picks = [k * n // t for k in range(t)]
                for i, count in zip(picks, profile):
                    b[i] = rng.choice(_BY_OPTIONS[count])
            else:
                b = _germ_boundary(rays, rng, profile)
                doc["mode"] = "local"
                doc["cone"] = list(cone)
            doc["boundary"] = [rat_text(x) for x in b]
            yield {"cls": f"{name}/{''.join(map(str, profile))}", "doc": doc}


# ---------------------------------------------------------------------------
# cli: one child process per document

_FLOP_QUADS = ([(0, 0), (1, 0), (1, 1), (0, 1)],
               [(0, 0), (2, 0), (1, 1), (0, 1)],
               [(0, 0), (1, 0), (2, 1), (0, 1)])


def _pair_doc(rng, seen, fractional):
    """A projective pair on a fresh fan of rank 2 or 3."""
    names = [n for n in BUNDLED if n != "P1"]
    rank, rays, cones = _fresh_fan(rng.choice(names), rng, seen,
                                   rng.randint(0, 2))
    b = [Fraction(1)] * len(rays)
    for i in rng.sample(range(len(rays)), fractional):
        b[i] = rng.choice(SWEEP_FRACTIONS)
    doc = _fan_doc(rank, rays, cones)
    doc["boundary"] = [rat_text(x) for x in b]
    return doc


def _germ_doc(rng):
    """A simplicial germ with an interior primitive vector v."""
    if rng.random() < 0.5:
        q = rng.randint(2, 5)
        p = rng.choice([k for k in range(1, q) if gcd(k, q) == 1])
        rays = [(1, 0), (p, q)]
    else:
        c = rng.randint(2, 3)
        rays = [(1, 0, 0), (0, 1, 0), (rng.randint(0, c - 1),
                                       rng.randint(0, c - 1), c)]
        rays[2] = _primitive(rays[2])
    rank = len(rays[0])
    a = _unimodular(rank, rng, steps=rng.randint(1, 2))
    rays = _transform(a, rays)
    weights = [rng.randint(1, 3) for _ in rays]
    v = _primitive(tuple(sum(w * u[k] for w, u in zip(weights, rays))
                         for k in range(rank)))
    doc = _fan_doc(rank, rays, [tuple(range(rank))])
    doc["boundary"] = ["1"] * rank
    doc["mode"] = "local"
    doc["cone"] = list(range(rank))
    doc["v"] = list(v)
    return doc


def _cli_op(command, rng, seen):
    """(argv after ``python -m toricomplex.cli``, document or None)."""
    if command == "check-suite":
        return ["check", "suite"], None
    if command in ("validate", "classgroup", "complexity", "minimize"):
        frac = 0 if command == "classgroup" else rng.randint(1, 3)
        return [command], _pair_doc(rng, seen, frac)
    if command == "adjoin":
        doc = _pair_doc(rng, seen, 0)
        center = rng.randrange(len(doc["rays"]))
        near = sorted({i for c in doc["max_cones"] if center in c for i in c})
        doc["decomposition"] = [{"b": "1", "support": {str(i): "1"}}
                                for i in near]
        return ["adjoin", "--ray", str(center)], doc
    if command in ("cone", "hilbert"):
        if command == "hilbert":
            return ["hilbert", "--torsion-cover"], _germ_doc(rng)
        return ["cone"], _germ_doc(rng)
    if command == "check-contract":
        rank, rays, cones = _fresh_fan(
            rng.choice(["P2", "P1xP1", "F1", "P3"]), rng, seen,
            rng.randint(0, 1))
        src_rays, src_cones = _subdivide(rank, rays, cones, rng)
        pair = _fan_doc(rank, src_rays, src_cones)
        pair["boundary"] = ["1"] * len(src_rays)
        target = _fan_doc(rank, rays, cones)
        return ["check", "contract"], {"pair": pair, "target": target,
                                       "ray": len(rays)}
    if command == "check-small":
        quad = rng.choice(_FLOP_QUADS)
        a = _unimodular(2, rng, steps=rng.randint(1, 2))
        rays = [tuple(_dot(row, p) for row in a) + (1,) for p in quad]
        pair = _fan_doc(3, rays, [(0, 1, 2), (0, 2, 3)])
        pair["boundary"] = ["1"] * 4
        pair["mode"] = "birational"
        target = _fan_doc(3, rays, [(0, 1, 3), (1, 2, 3)])
        return ["check", "small"], {"pair": pair, "target": target}
    # check-extract: a crepant extraction of an interior lattice direction
    pair = _pair_doc(rng, seen, 0)
    cone = rng.choice(pair["max_cones"])
    weights = [rng.randint(1, 3) for _ in cone]
    v = _primitive(tuple(sum(w * pair["rays"][i][k]
                             for w, i in zip(weights, cone))
                         for k in range(pair["rank"])))
    return ["check", "extract"], {"pair": pair, "vectors": [list(v)]}


def cli_ops(seed):
    """Endless cycles through all 11 subcommands in a fixed order, each
    with a fresh document.  Every document is meant to succeed: exit
    code 0 and ``"ok": true``."""
    rng = _rng("cli", seed)
    seen = set()
    while True:
        for command in CLI_COMMANDS:
            argv, doc = _cli_op(command, rng, seen)
            yield {"cls": command, "argv": argv, "doc": doc,
                   "expect_exit": 0, "expect_ok": True}
