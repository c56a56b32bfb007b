"""Independent test oracles: an exhaustive minimizer, the grouping
search as it stood before its integer rewrite and as it stood before
its nullity bound, a sampled completeness test, a unimodular cone-map
search, the vertex enumeration of an H-form as it stood before it read
cone duality, and LP oracles for cone membership, pointedness,
extremality, local complexity and crepancy.

Deliberately shares no code with the package: groupings are enumerated
as set partitions of every subset of the boundary primes, per-group
weights come from the closed-form budget minimum, and span ranks are
computed by sympy on the quotient presentation (rank of rays+parts
minus rank of rays).  The reference grouping search ranks with its own
Fraction Gauss elimination, and a Fraction Gauss-Jordan solver is the
referee of the library's fraction-free ``solve_rational``.  It also
decides the log Calabi-Yau and log canonical predicates as the package
did before it read them off class groups: by solving for the linear
data of K + B + M, globally and on each maximal cone.
Completeness is decided by facet counting plus a fixed dense grid of
rational sample points, with facet normals found by sympy; cone maps
are solved by sympy over bijections of extremal rays.  Hilbert bases
are enumerated in a box that holds every irreducible lattice point of
the cone, with membership read off the same sympy facet normals.

The LP oracles pose cone membership, pointedness, extremality, local
complexity and crepancy as linear programs for an exact two-phase
simplex kept here: the library reads all of them off integer H-forms
and cone intersections instead and has no linear programming left.

The dense decomposition checks are the package's
``validate_decomposition``, ``decomposition_total`` and
``span_dimension`` as they stood before they went sparse: every part
against every ray in Fraction arithmetic, classes by Fraction dot
products with the free map, ranks by the Gauss elimination kept here.
They raise the package's own error classes, so a differential test can
compare class and message.

There are four exceptions.  ``project_classes``, the class projection
of ``minimize`` before it read the cokernel of the rays, takes the
package's ``cokernel`` of the class vectors.  The leaf-bound grouping
search ranks with the package's ``rank_q``: it is the library's search
before the nullity bound, a second enumeration of the same groupings,
pruned differently and fast enough for seven primes.  And
``vform_by_vertex_subsets`` is the package's ``cone_vform`` as it stood
before it read extremal rays as the facet normals of the dual cone: it
solves each (dim - 1)-subset of the normals' lines for a ray and tests
it on every normal, with the package's ``rank_q`` and
``kernel_basis``, and with ``_hyperplane_normal``,
kept here on the package's ``_det``: the signed-minor kernel of d - 1
rows that the library used before its double description (refereed by
sympy in its own test).  And ``cartier_scale``, the smallest k with
a x = k b integrally, reads the package's ``snf``: the library checked
each adjunction wall's Cartier index with it before it read the index
as the gcd of the wall's 2 x 2 minors.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, lcm

import sympy

from toricomplex.complexity import (IncompatibleOrbifoldError,
                                   InvalidDecompositionError)
from toricomplex.lattice import (_det, cokernel, identity_matrix,
                                 kernel_basis, mat_vec, primitive_vector,
                                 rank_q, snf, transpose, vec_dot)


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


def gauss_rank(vectors):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(x) for x in v] for v in vectors if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        pr = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pr is None:
            col += 1
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def gauss_jordan_solve(a, b):
    """One rational solution x of a x = b with the free variables set to
    zero, or None if inconsistent, by Gauss-Jordan elimination on
    Fractions: the library's ``solve_rational`` as it stood before it
    ran on the integer Bareiss kernel."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])]
           for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if aug[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = aug[i][nc]
    return x


def _log_canonical_coeffs(pair):
    """K + B + M per ray: -1 plus the boundary and the nef part."""
    nef = pair.nef_part or [0] * len(pair.boundary)
    return [b + m - 1 for b, m in zip(pair.boundary, nef)]


def _working_rays(pair):
    if pair.mode == "local":
        return list(pair.cone)
    return list(range(len(pair.fan.rays)))


def solve_is_log_cy(pair):
    """``is_log_cy`` by a Gauss-Jordan solve: some rational m has
    <m, u_i> = (K + B + M)_i on every ray of the working locus."""
    kb = _log_canonical_coeffs(pair)
    rays = _working_rays(pair)
    return gauss_jordan_solve([pair.fan.rays[i] for i in rays],
                              [kb[i] for i in rays]) is not None


def solve_is_log_canonical(pair):
    """``is_log_canonical`` by Gauss-Jordan solves: B + M <= 1 on the
    working rays, and on each maximal cone of the working locus some
    rational m has <m, u_i> = -(K + B + M)_i on the cone's rays."""
    kb = _log_canonical_coeffs(pair)
    if any(kb[i] > 0 for i in _working_rays(pair)):
        return False
    cones = [pair.cone] if pair.mode == "local" else pair.fan.max_cones
    return all(gauss_jordan_solve([pair.fan.rays[i] for i in cone],
                                  [-kb[i] for i in cone]) is not None
               for cone in cones)


def reference_search_fine(fixed_vecs, elems, options):
    """The grouping search of ``minimize`` ranking every leaf from scratch.

    ``fixed_vecs`` are the classes of the coefficient-one primes and
    ``elems`` lists (ray, coefficient, class vector) per fractional
    prime, all in the full free class coordinates; ``options`` gives the
    (index, weight-budget) choices per element.  Maximizes
    F = |Sigma| - rank with the tie-break key (-F, labels, orbifold).
    Returns (best F, groups) with groups a list of
    ([(element, index)...], weight).
    """
    t = len(elems)
    fixed_rank = gauss_rank(fixed_vecs) if fixed_vecs else 0
    fixed_norm = Fraction(len(fixed_vecs))
    suffix = [Fraction(0)] * (t + 1)
    for i in range(t - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max(b for _, b in options[i])

    best = {"key": None, "F": None, "groups": None}
    groups = []

    def group_weight(members):
        return min(dict(options[e])[n] for e, n in members)

    def leaf():
        vecs = list(fixed_vecs)
        snapshot = []
        total = fixed_norm
        for members in groups:
            w = group_weight(members)
            v = None
            for e, n in members:
                scaled = [Fraction(x) / n for x in elems[e][2]]
                v = scaled if v is None else [a + b for a, b in zip(v, scaled)]
            vecs.append(v)
            snapshot.append((list(members), w))
            total += w
        F = total - gauss_rank(vecs)
        labels = []
        orb = []
        assigned = {}
        for gi, members in enumerate(groups):
            for e, n in members:
                assigned[e] = (gi, n)
        for e in range(t):
            if e in assigned:
                gi, n = assigned[e]
                mates = tuple(sorted(elems[m][0] for m, _ in groups[gi]
                                     if m != e))
                labels.append((0, mates))
                orb.append(n)
            else:
                labels.append((1,))
                orb.append(1)
        key = (-F, tuple(labels), tuple(orb))
        if best["key"] is None or key < best["key"]:
            best["key"] = key
            best["F"] = F
            best["groups"] = snapshot

    def rec(i):
        if i == t:
            leaf()
            return
        if best["F"] is not None:
            potential = fixed_norm + suffix[i] - fixed_rank
            for members in groups:
                potential += group_weight(members)
            if potential < best["F"]:
                return
        rec(i + 1)
        for members in groups:
            if len(members) == 1:
                e0, _ = members[0]
                for n0, _ in options[e0]:
                    for n1, _ in options[i]:
                        members[0] = (e0, n0)
                        members.append((i, n1))
                        rec(i + 1)
                        members.pop()
                members[0] = (e0, 1)
            else:
                for n1, _ in options[i]:
                    members.append((i, n1))
                    rec(i + 1)
                    members.pop()
        groups.append([(i, 1)])
        rec(i + 1)
        groups.pop()

    rec(0)
    return best["F"], best["groups"]


def project_classes(fixed_vecs, vecs):
    """Integer coordinates of vecs in Cl_Q / span(fixed_vecs).

    The projection ``minimize`` made before it read the quotient off the
    cokernel of the rays whose coefficient is not one: the class vectors
    are integral, and the free part of the cokernel of the fixed classes
    gives integer functionals whose common kernel over Q is exactly
    their span, so rank(fixed + S) = fixed_rank + rank of the
    projections of S.  Returns (fixed_rank, projected vecs).
    """
    if not fixed_vecs or not fixed_vecs[0]:
        return 0, [list(v) for v in vecs]
    quotient = cokernel(transpose(fixed_vecs))
    return (len(fixed_vecs[0]) - quotient.free_rank,
            [[vec_dot(row, v) for row in quotient.free_map] for v in vecs])


def leaf_bound_search_fine(fixed_rank, fixed_norm, elems, options):
    """The grouping search of ``minimize`` before the nullity bound.

    It grows groups one element at a time and prunes only on weights,
    so it ranks at nearly every leaf; kept unchanged as the oracle the
    library search must match, group for group.

    ``elems`` is a list of (ray, coefficient, projected class) with the
    classes given modulo the span of the ``fixed_rank``-dimensional
    coefficient-one classes (see ``project_classes``);
    ``fixed_norm`` is the number of coefficient-one primes.  ``options``
    gives the (index, weight-budget) choices per element.  Maximizes
    F = |Sigma| - rank over: drop the element, start a new group, or
    join an existing group (branching over orbifold indices as soon as a
    group has two members).  Returns (best F, groups) where groups is a
    list of ([(element, index)...], weight).
    """
    t = len(elems)
    # weights and F are counted in units of 1/den, so the search compares
    # ints; den is the lcm of the budget denominators
    den = lcm(*(b.denominator for opts in options for _, b in opts))
    budgets = [{n: (b * den).numerator for n, b in opts} for opts in options]
    base = (fixed_norm - fixed_rank) * den
    suffix = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        suffix[i] = suffix[i + 1] + max(budgets[i].values())

    best = {"key": None, "F": None, "groups": None}
    groups = []  # mutable: [members list of (elem index, orb index)]

    def group_weight(members):
        return min(budgets[e][n] for e, n in members)

    def group_row(members):
        # the class of sum(D_e / n_e), scaled by the lcm of the n_e so it
        # stays integral; scaling a row does not change the rank
        scale = lcm(*(n for _, n in members))
        row = [0] * len(elems[0][2])
        for e, n in members:
            k = scale // n
            row = [a + k * b for a, b in zip(row, elems[e][2])]
        return row

    def leaf():
        weights = [group_weight(members) for members in groups]
        bound = base + sum(weights)
        if best["F"] is not None and bound < best["F"]:
            return
        F = bound
        if groups:
            F -= rank_q([group_row(m) for m in groups]) * den
        if best["F"] is not None and F < best["F"]:
            return
        labels = []
        orb = []
        assigned = {}
        for gi, members in enumerate(groups):
            for e, n in members:
                assigned[e] = (gi, n)
        for e in range(t):
            if e in assigned:
                gi, n = assigned[e]
                mates = tuple(sorted(elems[m][0] for m, _ in groups[gi]
                                     if m != e))
                labels.append((0, mates))
                orb.append(n)
            else:
                labels.append((1,))
                orb.append(1)
        key = (-F, tuple(labels), tuple(orb))
        if best["key"] is None or key < best["key"]:
            best["key"] = key
            best["F"] = F
            best["groups"] = [(list(members), Fraction(w, den))
                              for members, w in zip(groups, weights)]

    def rec(i):
        if i == t:
            leaf()
            return
        if best["F"] is not None:
            potential = base + suffix[i]
            for members in groups:
                potential += group_weight(members)
            if potential < best["F"]:
                return
        # drop the element entirely
        rec(i + 1)
        # join an existing group
        for members in groups:
            if len(members) == 1:
                e0, _ = members[0]
                for n0, _ in options[e0]:
                    for n1, _ in options[i]:
                        members[0] = (e0, n0)
                        members.append((i, n1))
                        rec(i + 1)
                        members.pop()
                members[0] = (e0, 1)
            else:
                for n1, _ in options[i]:
                    members.append((i, n1))
                    rec(i + 1)
                    members.pop()
        # open a new group (index 1 until a second member arrives)
        groups.append([(i, 1)])
        rec(i + 1)
        groups.pop()

    rec(0)
    return Fraction(best["F"], den), best["groups"]


def _hyperplane_normal(rows):
    """Primitive generator, up to sign, of the kernel of d - 1 integer
    rows of length d >= 1, or None when that kernel is not a line.

    The kernel is spanned by the signed maximal minors (the generalized
    cross product); they all vanish exactly when the rows are dependent.
    """
    d = len(rows) + 1
    if d == 1:
        return (1,)
    if d == 2:
        (a0, a1), = rows
        phi = (a1, -a0)
    elif d == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        phi = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    else:
        phi = tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in rows])
                    for j in range(d))
    g = gcd(*phi)
    if not g:
        return None
    return tuple(x // g for x in phi)


def vform_by_vertex_subsets(equalities, inequalities, dim):
    """Extremal rays of {x : eq.x == 0, ineq.x >= 0} as (rays,
    lineality_basis), like the package's cone_vform: each ray spans the
    kernel of dim - 1 normals, so every subset of dim - 1 lines of the
    normals is solved for a candidate and tested on every normal."""
    normals = []
    seen = set()
    for e in equalities:
        for v in (tuple(e), tuple(-x for x in e)):
            if any(v) and v not in seen:
                seen.add(v)
                normals.append(v)
    for f in inequalities:
        t = tuple(f)
        if any(t) and t not in seen:
            seen.add(t)
            normals.append(t)
    if rank_q(normals) < dim:
        lin = kernel_basis([list(nrm) for nrm in normals]) if normals else \
            [tuple(row) for row in identity_matrix(dim)]
        return [], lin
    rays = set()
    lines = set()
    for v in normals:
        p = primitive_vector(v)
        lines.add(max(p, tuple(-x for x in p)))
    tried = set()
    for subset in combinations(sorted(lines), dim - 1):
        v = _hyperplane_normal(subset)
        if v is None or v in tried:
            continue
        nv = tuple(-x for x in v)
        tried.add(v)
        tried.add(nv)
        if any(vec_dot(e, v) for e in equalities):
            continue
        pos = neg = True
        for f in inequalities:
            t = vec_dot(f, v)
            if t < 0:
                pos = False
            elif t > 0:
                neg = False
            else:
                continue
            if not (pos or neg):
                break
        if pos:
            rays.add(v)
        if neg:
            rays.add(nv)
    return sorted(rays), []


SAMPLE_COORDS = (Fraction(-1), Fraction(-2, 3), Fraction(-1, 5),
                 Fraction(1, 7), Fraction(1, 2), Fraction(1))


def facet_normals(gens, dim):
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


def brute_hilbert_basis(gens):
    """Sorted Hilbert basis of cone(gens) & Z^d, for a full-dimensional
    pointed cone, as the non-zero lattice points of the cone that are
    not a sum of two non-zero lattice points of the cone.

    An irreducible point lies in the zonotope of the generators: in a
    simplicial cone of d of them, a coefficient >= 1 would split off
    that generator.  So its coordinate j is at most the sum of the
    |g_j| in absolute value, and that box is enumerated.  A reducible
    point p is a sum of irreducible ones, so p - h is a non-zero cone
    point for an irreducible h of smaller degree, the degree being the
    sum of the facet normals, positive off the origin.  Points are
    therefore taken by increasing degree and tested against the
    irreducible ones kept so far.
    """
    d = len(gens[0])
    normals = facet_normals(gens, d)

    def member(x):
        return all(sum(a * b for a, b in zip(phi, x)) >= 0 for phi in normals)

    bound = [sum(abs(g[j]) for g in gens) for j in range(d)]
    grading = [sum(phi[j] for phi in normals) for j in range(d)]
    points = [p for p in product(*(range(-b, b + 1) for b in bound))
              if any(p) and member(p)]
    points.sort(key=lambda p: sum(a * b for a, b in zip(grading, p)))
    kept = []
    for p in points:
        if not any(member(tuple(x - y for x, y in zip(p, h))) for h in kept):
            kept.append(p)
    return sorted(kept)


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
        normals = facet_normals(gens, rank)
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


def _extremal(gens):
    """Primitive extremal rays of a pointed full-dimensional cone: the
    generators lying on facets whose normals span a hyperplane."""
    gens = sorted({tuple(x // gcd(*g) for x in g) for g in gens if any(g)})
    dim = len(gens[0])
    if dim == 1:
        return gens
    normals = facet_normals(gens, dim)
    out = []
    for g in gens:
        tight = [list(p) for p in normals
                 if sum(a * b for a, b in zip(p, g)) == 0]
        if tight and sympy.Matrix(tight).rank() == dim - 1:
            out.append(g)
    return out


def unimodular_cone_map(gens_a, gens_b):
    """A unimodular matrix carrying cone(gens_a) onto cone(gens_b), or None.

    Both cones must be pointed and full-dimensional.  Tries every
    injection of a basis among the extremal rays of the first cone into
    the extremal rays of the second.
    """
    a, b = _extremal(gens_a), _extremal(gens_b)
    if len(a) != len(b):
        return None
    dim = len(a[0])
    basis = []
    for u in a:
        if sympy.Matrix(basis + [list(u)]).rank() > len(basis):
            basis.append(list(u))
    if len(basis) < dim:
        return None
    inverse = sympy.Matrix(basis).T.inv()
    targets = set(b)
    for pick in permutations(b, dim):
        m = sympy.Matrix([list(v) for v in pick]).T * inverse
        if not all(x.is_integer for x in m) or abs(m.det()) != 1:
            continue
        if {tuple(int(x) for x in m * sympy.Matrix(u)) for u in a} == targets:
            return tuple(tuple(int(x) for x in m.row(k)) for k in range(dim))
    return None


# ---------------------------------------------------------------------------
# exact simplex (two-phase, Bland's rule) and the LP oracles built on it
# ---------------------------------------------------------------------------

def simplex_solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    """Maximize c.x subject to a_ub x <= b_ub, a_eq x = b_eq, x >= 0.

    All data may be int or Fraction; arithmetic is exact.

    Returns:
        (status, x, value) with status one of "optimal", "infeasible",
        "unbounded"; x and value are None unless optimal.
    """
    a_ub = a_ub or []
    b_ub = b_ub or []
    a_eq = a_eq or []
    b_eq = b_eq or []
    n = len(c)
    rows = []
    for row, rhs in zip(a_ub, b_ub):
        rows.append(([Fraction(x) for x in row], Fraction(rhs), "<="))
    for row, rhs in zip(a_eq, b_eq):
        rows.append(([Fraction(x) for x in row], Fraction(rhs), "=="))
    # build standard form with slack and artificial variables
    m = len(rows)
    slack_of = {}
    ncols = n
    for i, (_, rhs, rel) in enumerate(rows):
        if rel == "<=" and rhs >= 0:
            slack_of[i] = ncols
            ncols += 1
    surplus_of = {}
    for i, (_, rhs, rel) in enumerate(rows):
        if rel == "<=" and rhs < 0:
            surplus_of[i] = ncols
            ncols += 1
    art_of = {}
    for i, (_, rhs, rel) in enumerate(rows):
        if rel == "==" or (rel == "<=" and rhs < 0):
            art_of[i] = ncols
            ncols += 1
    tab = []
    basis = []
    for i, (row, rhs, rel) in enumerate(rows):
        line = [Fraction(0)] * (ncols + 1)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        for j, x in enumerate(row):
            line[j] = x
        if i in slack_of:
            line[slack_of[i]] = Fraction(1)
            basis.append(slack_of[i])
        elif i in surplus_of:
            # flipped <= with negative rhs becomes >=, needs surplus
            line[surplus_of[i]] = Fraction(-1)
            line[art_of[i]] = Fraction(1)
            basis.append(art_of[i])
        else:
            line[art_of[i]] = Fraction(1)
            basis.append(art_of[i])
        line[ncols] = rhs
        tab.append(line)

    def pivot(tab, basis, obj, row, col):
        pv = tab[row][col]
        tab[row] = [x / pv for x in tab[row]]
        for i in range(len(tab)):
            if i != row and tab[i][col] != 0:
                f = tab[i][col]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
        if obj[col] != 0:
            f = obj[col]
            for j in range(len(obj)):
                obj[j] -= f * tab[row][j]
        basis[row] = col

    def run(tab, basis, obj, allowed, banned=frozenset()):
        # Bland's rule: smallest improving column, smallest-index tie on rows
        while True:
            col = next((j for j in range(allowed)
                        if j not in banned and obj[j] > 0), None)
            if col is None:
                return "optimal"
            best = None
            for i in range(len(tab)):
                if tab[i][col] > 0:
                    ratio = tab[i][-1] / tab[i][col]
                    if best is None or ratio < best[0] or \
                            (ratio == best[0] and basis[i] < basis[best[1]]):
                        best = (ratio, i)
            if best is None:
                return "unbounded"
            pivot(tab, basis, obj, best[1], col)

    arts = frozenset(art_of.values())
    if art_of:
        # phase 1: maximize -sum(artificials)
        obj = [Fraction(0)] * (ncols + 1)
        for i in art_of.values():
            obj[i] = Fraction(-1)
        # express objective in terms of non-basic variables
        for i, b in enumerate(basis):
            if obj[b] != 0:
                f = obj[b]
                for j in range(ncols + 1):
                    obj[j] -= f * tab[i][j]
        run(tab, basis, obj, ncols)
        if -obj[-1] != 0:
            return "infeasible", None, None
        # drive leftover artificial variables out of the basis
        for i in range(len(basis)):
            if basis[i] in arts:
                col = next((j for j in range(ncols)
                            if j not in arts and tab[i][j] != 0), None)
                if col is not None:
                    pivot(tab, basis, [Fraction(0)] * (ncols + 1), i, col)
        keep = [i for i in range(len(basis)) if basis[i] not in arts]
        tab = [tab[i] for i in keep]
        basis = [basis[i] for i in keep]

    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n):
        obj[j] = Fraction(c[j])
    for i, b in enumerate(basis):
        if obj[b] != 0:
            f = obj[b]
            for j in range(ncols + 1):
                obj[j] -= f * tab[i][j]
    status = run(tab, basis, obj, ncols, banned=arts)
    if status != "optimal":
        return status, None, None
    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return "optimal", x, value


def _lp_feasible(a_eq, b_eq, n):
    """Is {x >= 0 : a_eq x = b_eq} non-empty?  (n = number of variables)."""
    status, _, _ = simplex_solve([0] * n, a_eq=a_eq, b_eq=b_eq)
    return status == "optimal"


def _lp_member(gens, x):
    """Is x a non-negative rational combination of gens?"""
    if not gens:
        return not any(x)
    a_eq = [[g[i] for g in gens] for i in range(len(x))]
    return _lp_feasible(a_eq, list(x), len(gens))


def lp_cone_is_pointed(gens):
    """A cone is pointed iff 0 is not a non-trivial positive combination
    (so a zero generator makes it non-pointed)."""
    gens = list(gens)
    if not gens:
        return True
    a_eq = [[g[i] for g in gens] for i in range(len(gens[0]))]
    a_eq.append([1] * len(gens))
    b_eq = [0] * len(gens[0]) + [1]
    return not _lp_feasible(a_eq, b_eq, len(gens))


def lp_extremal_rays(gens):
    """The sorted primitive generators g with g not in cone(the others);
    on a pointed cone these are its extremal rays."""
    prims = sorted({tuple(x // gcd(*g) for x in g) for g in gens if any(g)})
    return [g for i, g in enumerate(prims)
            if not _lp_member(prims[:i] + prims[i + 1:], g)]


def _linear_data(rays, cone, coeffs):
    """A rational m with <m, u_i> = -coeffs[i] on the cone's rays, by
    sympy (free parameters set to zero)."""
    a = sympy.Matrix([list(rays[i]) for i in cone])
    b = sympy.Matrix([-sympy.Rational(coeffs[i].numerator,
                                      coeffs[i].denominator) for i in cone])
    sol, params = a.gauss_jordan_solve(b)
    sol = sol.subs({p: 0 for p in params})
    return [Fraction(int(x.p), int(x.q)) for x in sol]


def lp_crepancy_witness(rank, source, coeffs_src, target, coeffs_tgt):
    """First (si, ti) over pairs of maximal cones where the two support
    functions differ somewhere on the cones' intersection, or None.

    ``source`` and ``target`` are (rays, max_cones).  Each pair poses
    max and min of the difference over the points of the source cone
    with coordinate sum one that lie in the target cone.
    """
    (rays_s, cones_s), (rays_t, cones_t) = source, target
    data_s = [_linear_data(rays_s, c, coeffs_src) for c in cones_s]
    data_t = [_linear_data(rays_t, c, coeffs_tgt) for c in cones_t]
    for si, sigma in enumerate(cones_s):
        gs = [rays_s[i] for i in sigma]
        for ti, tau in enumerate(cones_t):
            gt = [rays_t[i] for i in tau]
            d = [a - b for a, b in zip(data_s[si], data_t[ti])]
            if not any(d):
                continue
            a_eq = [[g[r] for g in gs] + [-g[r] for g in gt]
                    for r in range(rank)]
            a_eq.append([1] * len(gs) + [0] * len(gt))
            b_eq = [0] * rank + [1]
            obj = [sum(x * y for x, y in zip(d, u)) for u in gs] + \
                [0] * len(gt)
            for c in (obj, [-x for x in obj]):
                status, _, value = simplex_solve(c, a_eq=a_eq, b_eq=b_eq)
                if status == "infeasible":
                    break
                if value > 0:
                    return (si, ti)
    return None


def lp_local_complexity(cone_rays, rank):
    """(value, boundary, witness, components) at the fixed point of a
    full-dimensional cone, as a linear program.

    Variables m+, m- (rank each) and one coefficient a_i per ray, with
    <m, u_i> + a_i = 1 and a_i <= 1; the sum of the a_i is maximized.
    The germ's class group has free rank r - rank(rays), by sympy.
    """
    n, r = rank, len(cone_rays)
    a_eq, b_eq = [], []
    for pos, u in enumerate(cone_rays):
        row = list(u) + [-x for x in u] + [0] * r
        row[2 * n + pos] = 1
        a_eq.append(row)
        b_eq.append(1)
    a_ub = [[int(j == 2 * n + pos) for j in range(2 * n + r)]
            for pos in range(r)]
    b_ub = [1] * r
    status, x, best = simplex_solve([0] * (2 * n) + [1] * r,
                                    a_ub, b_ub, a_eq, b_eq)
    assert status == "optimal"
    cl_rank = r - sympy.Matrix([list(u) for u in cone_rays]).rank()
    boundary = tuple(x[2 * n + pos] for pos in range(r))
    witness = tuple(x[k] - x[n + k] for k in range(n))
    return (n + cl_rank - best, boundary, witness,
            sum(1 for a in boundary if a == 1))


# ---------------------------------------------------------------------------
# integral solves through a Smith form


def cartier_scale(a, b):
    """Smallest k >= 1 such that a x = k b has an integer solution.

    Returns (k, x) with a x = k b, or None when the system is not even
    rationally solvable.
    """
    s = snf(a)
    c = mat_vec(s.left, list(b))
    r = s.rank
    for i in range(r, len(c)):
        if c[i] != 0:
            return None
    k = 1
    for i in range(r):
        d = s.diag[i][i]
        num = c[i]
        if num % d:
            g = gcd(abs(num), d)
            step = d // g
            k = k * step // gcd(k, step)
    y = [0] * (len(a[0]) if a else 0)
    for i in range(r):
        y[i] = k * c[i] // s.diag[i][i]
    x = mat_vec(s.right, y)
    return k, x


# ---------------------------------------------------------------------------
# dense decomposition checks


def dense_decomposition_total(dec):
    """Per-ray coefficient of Sigma, orbifold tax included, summed over
    every part and every ray."""
    total = [Fraction(1) - Fraction(1, n) for n in dec.orbifold]
    for p in dec.parts:
        for i, c in enumerate(p.coeffs):
            total[i] += p.weight * c
    return tuple(total)


def dense_validate_decomposition(pair, dec):
    """Raise what the package's validate_decomposition raises, checking
    every coefficient of every part in Fraction arithmetic."""
    nrays = len(pair.fan.rays)
    if len(dec.orbifold) != nrays:
        raise IncompatibleOrbifoldError(
            f"expected {nrays} orbifold indices, got {len(dec.orbifold)}")
    for i, n in enumerate(dec.orbifold):
        if not isinstance(n, int) or n < 1:
            raise IncompatibleOrbifoldError(f"orbifold index {n!r} at ray {i}")
        if n > 1 and pair.boundary[i] < 1 - Fraction(1, n):
            raise IncompatibleOrbifoldError(
                f"index {n} at ray {i} needs boundary coefficient >= "
                f"{1 - Fraction(1, n)}, found {pair.boundary[i]}")
    local = set(pair.local_rays())
    for j, p in enumerate(dec.parts):
        if p.weight <= 0:
            raise InvalidDecompositionError(f"part {j} has weight {p.weight}")
        if len(p.coeffs) != nrays:
            raise InvalidDecompositionError(
                f"part {j} has {len(p.coeffs)} coefficients, expected {nrays}")
        if all(c == 0 for c in p.coeffs):
            raise InvalidDecompositionError(f"part {j} is the zero divisor")
        for i, c in enumerate(p.coeffs):
            if c < 0:
                raise InvalidDecompositionError(
                    f"part {j} has negative coefficient at ray {i}")
            if (c * dec.orbifold[i]).denominator != 1:
                raise InvalidDecompositionError(
                    f"part {j} is not integral against orbifold index "
                    f"{dec.orbifold[i]} at ray {i}")
        if pair.mode == "local" and not any(p.coeffs[i] > 0 for i in local):
            raise InvalidDecompositionError(
                f"part {j} misses the chosen point (no ray of the cone)")
    total = dense_decomposition_total(dec)
    for i, t in enumerate(total):
        if t > pair.boundary[i]:
            raise InvalidDecompositionError(
                f"total coefficient {t} at ray {i} exceeds boundary "
                f"{pair.boundary[i]}")


def dense_span_dimension(pair, dec):
    """dim_Q of the span of the part classes: each class is the free map
    applied to the part's coefficients on the working rays, in Fractions."""
    pres = pair.class_group
    rays = pair.local_rays()
    divisors = [[p.coeffs[i] for i in rays] for p in dec.parts]
    classes = [[sum((Fraction(x) * c for x, c in zip(f, d)), Fraction(0))
                for f in pres.free_map] for d in divisors]
    return gauss_rank([v for v in classes if any(v)])
