"""Independent test oracles: an exhaustive minimizer and a sampled
completeness test.

Deliberately shares no code with the package: groupings are enumerated
as set partitions of every subset of the boundary primes, per-group
weights come from the closed-form budget minimum, and span ranks are
computed by sympy on the quotient presentation (rank of rays+parts
minus rank of rays).  Completeness is decided by facet counting plus a
fixed dense grid of rational sample points, with facet normals found by
sympy.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm

import sympy


def set_partitions(items):
    """All partitions of a list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield part + [[first]]


def subsets(items):
    for mask in range(1 << len(items)):
        yield [x for i, x in enumerate(items) if mask >> i & 1]


def index_options(a, cap):
    """Orbifold indices to try at a prime of coefficient a."""
    opts = []
    for n in range(1, cap + 1):
        if a.denominator % n == 0 and n * (a - 1) + 1 > 0:
            opts.append(n)
    return opts


def oracle_minimize(rays, local_idx, boundary, cap=12):
    """Best (fine, orbifold) complexity values by exhaustive enumeration.

    rays: all fan rays; local_idx: the ray indices visible to the mode;
    boundary: Fraction coefficients per ray (full length).
    """
    dim = len(rays[0])
    boundary = [Fraction(b) for b in boundary]
    elems = [i for i in local_idx if boundary[i] > 0]
    pos = {i: k for k, i in enumerate(local_idx)}
    base_rows = tuple(
        tuple(Fraction(rays[i][k]) for i in local_idx) for k in range(dim))

    @lru_cache(maxsize=None)
    def quotient_rank(part_rows):
        m = sympy.Matrix([list(r) for r in base_rows + part_rows])
        base = sympy.Matrix([list(r) for r in base_rows])
        return m.rank() - base.rank()

    def best_over(option_table):
        best = None
        for chosen in subsets(elems):
            for part in set_partitions(chosen):
                pools = [product(*(option_table[i] for i in block))
                         for block in part]
                for assignment in product(*pools):
                    weights = []
                    vecs = []
                    ok = True
                    for block, ns in zip(part, assignment):
                        w = min(n * (boundary[i] - 1) + 1
                                for i, n in zip(block, ns))
                        if w <= 0:
                            ok = False
                            break
                        weights.append(w)
                        v = [Fraction(0)] * len(local_idx)
                        for i, n in zip(block, ns):
                            v[pos[i]] = Fraction(1, n)
                        vecs.append(tuple(v))
                    if not ok:
                        continue
                    f = sum(weights) - quotient_rank(tuple(sorted(vecs)))
                    if best is None or f > best:
                        best = f
        return dim - best

    fine = best_over({i: [1] for i in elems})
    orb = best_over({i: index_options(boundary[i], cap) for i in elems})
    return fine, orb


SAMPLE_COORDS = (Fraction(-1), Fraction(-2, 3), Fraction(-1, 5),
                 Fraction(1, 7), Fraction(1, 2), Fraction(1))


def _facet_normals(gens, dim):
    """Facet normals of a full-dimensional cone, each >= 0 on gens."""
    if dim == 1:
        return {(1,) if gens[0][0] > 0 else (-1,)}
    normals = set()
    for subset in combinations(gens, dim - 1):
        kernel = sympy.Matrix([list(g) for g in subset]).nullspace()
        if len(kernel) != 1:
            continue
        phi = kernel[0]
        den = lcm(*(int(x.q) for x in phi))
        phi = tuple(int(x * den) for x in phi)
        vals = [sum(a * b for a, b in zip(phi, g)) for g in gens]
        if all(v <= 0 for v in vals):
            phi = tuple(-x for x in phi)
        elif not all(v >= 0 for v in vals):
            continue
        if any(vals):
            normals.add(phi)
    return normals


def sampled_is_complete(rank, rays, max_cones):
    """Every maximal cone full-dimensional, every facet in exactly two of
    them, and every point of a fixed grid (6^rank points) in some cone.

    Exact only on valid fans: overlapping cones can pass all three.
    """
    if not max_cones:
        return False
    hforms = []
    facet_count = {}
    for cone in max_cones:
        gens = [rays[i] for i in cone]
        if not gens or sympy.Matrix([list(g) for g in gens]).rank() != rank:
            return False
        normals = _facet_normals(gens, rank)
        hforms.append(normals)
        for phi in normals:
            facet = frozenset(g for g in gens
                              if sum(a * b for a, b in zip(phi, g)) == 0)
            facet_count[facet] = facet_count.get(facet, 0) + 1
    if any(k != 2 for k in facet_count.values()):
        return False
    return all(
        any(all(sum(a * b for a, b in zip(phi, pt)) >= 0 for phi in normals)
            for normals in hforms)
        for pt in product(SAMPLE_COORDS, repeat=rank))
