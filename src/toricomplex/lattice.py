"""Exact lattice linear algebra: Smith normal form, finitely generated
abelian group presentations, and rational cones with their H-forms,
extremal rays and Hilbert bases.

Everything here is exact: matrices are lists of lists of Python ints,
rational data uses fractions.Fraction.  No floats anywhere.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from operator import mul
from typing import NamedTuple


class ToricomplexError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ToricomplexError):
    """Malformed or inconsistent input: the job never got off the ground.
    The command line exits 1 on it."""


class ClaimFailedError(ToricomplexError):
    """Well-formed input on which the checked statement, or one of its
    hypotheses, fails.  The command line exits 2 on it."""


class InputTooLargeError(InvalidInputError):
    """The job exceeds a work limit: the exhaustive search's partition
    limit or close budget, or the Hilbert basis box budget."""


class InternalInvariantError(ToricomplexError):
    """A self-check of the library failed: the bug is here, not in the input."""


def _check(cond, msg):
    """A self-check that stays on under ``python -O``, unlike ``assert``."""
    if not cond:
        raise InternalInvariantError(msg)


class NotPointedError(ToricomplexError):
    """Raised when a cone expected to be pointed has a lineality space."""


# ---------------------------------------------------------------------------
# basic integer matrix helpers
# ---------------------------------------------------------------------------

def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def vec_dot(u, v):
    return sum(map(mul, u, v))


def transpose(a):
    return [list(col) for col in zip(*a)]


def vec_gcd(v):
    return gcd(*v)


def primitive_vector(v):
    """Divide an integer vector by the gcd of its entries (direction kept).

    Raises ValueError on the zero vector.
    """
    g = vec_gcd(v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def is_primitive(v):
    return vec_gcd(v) == 1


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SmithForm(NamedTuple):
    """Result of a Smith normal form computation.

    left * original * right == diag, where left and right are unimodular and
    diag has a non-negative diagonal d_1 | d_2 | ... .  The three matrices
    are tuples of row tuples, so a Smith form cached on a shared fan
    cannot be changed by a reader.  No inverse is carried:
    original * right == left^-1 * diag, so for i below the rank, column i
    of left^-1 is column i of original * right divided by d_i, and that
    division is exact.
    """

    diag: tuple
    left: tuple
    right: tuple

    @property
    def invariants(self):
        n = min(len(self.diag), len(self.diag[0]) if self.diag else 0)
        return [self.diag[i][i] for i in range(n) if self.diag[i][i] != 0]

    @property
    def rank(self):
        return len(self.invariants)


def snf(m):
    """Smith normal form with transformation witnesses.

    Pivot selection: the entry of smallest non-zero absolute value in the
    remaining submatrix, ties broken lexicographically by (row, col).

    Args:
        m: integer matrix as list of rows (may be empty or ragged-free).

    Returns:
        SmithForm with left*m*right == diag.
    """
    a = [list(row) for row in m]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    left = identity_matrix(nr)
    right = identity_matrix(nc)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row_i += c * row_j
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        left[i] = [x + c * y for x, y in zip(left[i], left[j])]

    def col_add(j, i, c):
        # col_j += c * col_i
        for r in a:
            r[j] += c * r[i]
        for r in right:
            r[j] += c * r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    def find_pivot(k):
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        return best

    k = 0
    while k < min(nr, nc):
        piv = find_pivot(k)
        if piv is None:
            break
        while True:
            _, pi, pj = piv
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            if a[k][k] < 0:
                row_neg(k)
            p = a[k][k]
            dirty = False
            for i in range(k + 1, nr):
                if a[i][k]:
                    row_add(i, k, -(a[i][k] // p))
                    if a[i][k]:
                        dirty = True
            for j in range(k + 1, nc):
                if a[k][j]:
                    col_add(j, k, -(a[k][j] // p))
                    if a[k][j]:
                        dirty = True
            if dirty:
                piv = find_pivot(k)
                continue
            # pivot must divide every entry of the remaining submatrix
            stain = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if a[i][j] % p:
                        stain = i
                        break
                if stain is not None:
                    break
            if stain is None:
                break
            row_add(k, stain, 1)
            piv = find_pivot(k)
        k += 1
    for i in range(min(nr, nc)):
        if a[i][i] < 0:
            row_neg(i)
    return SmithForm(diag=tuple(map(tuple, a)), left=tuple(map(tuple, left)),
                     right=tuple(map(tuple, right)))


def kernel_basis(m):
    """Basis of the integer kernel {x : m x = 0} (saturated sublattice).

    Returns a list of integer vectors (possibly empty).
    """
    if not m or not m[0]:
        nc = len(m[0]) if m else 0
        return [tuple(row) for row in identity_matrix(nc)]
    s = snf(m)
    r = s.rank
    nc = len(m[0])
    cols = transpose(s.right)
    return [tuple(cols[j]) for j in range(r, nc)]


def _bareiss(rows):
    """Fraction-free forward elimination of integer rows, in place.

    Bareiss elimination (Bareiss 1968): the pivot of each column is its
    first non-zero entry at or below the current row, so the pivot
    columns are the leftmost independent ones.  Each update divides by
    the previous pivot, which divides it exactly, so every entry stays
    an int; after the last step the pivot of row i is a minor of order
    i + 1.  Returns (pivot columns, sign of the row permutation).
    """
    nrows = len(rows)
    pivots = []
    sign = 1
    prev = 1  # the previous pivot, which divides every updated entry
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pr = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if pr is None:
            continue
        if pr != rank:
            rows[rank], rows[pr] = rows[pr], rows[rank]
            sign = -sign
        pivot_row = rows[rank]
        p = pivot_row[col]
        for i in range(rank + 1, nrows):
            f = rows[i][col]
            rows[i] = [(p * a - f * b) // prev
                       for a, b in zip(rows[i], pivot_row)]
        prev = p
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return pivots, sign


def solve_rational(a, b):
    """One exact rational solution x of a x = b, or None if inconsistent.

    Free variables are set to zero.  a is a list of integer rows, b a
    vector of ints or Fractions.  Each row is scaled by the denominator
    of its entry of b and the augmented rows are eliminated by
    _bareiss: the system is inconsistent exactly when b's column is a
    pivot.  Otherwise, with d the last pivot (the minor of the pivot
    rows and columns), d * x is integral by Cramer's rule and comes out
    of back-substitution by exact divisions.
    """
    nc = len(a[0]) if a else 0
    rows = [[x * y.denominator for x in row] + [y.numerator]
            for row, y in zip(a, b)]
    pivots, _ = _bareiss(rows)
    if pivots and pivots[-1] == nc:
        return None
    x = [Fraction(0)] * nc
    if not pivots:
        return x
    d = rows[len(pivots) - 1][pivots[-1]]
    dx = [0] * nc  # d * x
    for i in range(len(pivots) - 1, -1, -1):
        row = rows[i]
        t = d * row[nc] - sum(row[c] * dx[c] for c in pivots[i + 1:])
        dx[pivots[i]] = t // row[pivots[i]]
    for c in pivots:
        x[c] = Fraction(dx[c], d)
    return x


def rank_q(vectors):
    """Rank over Q of a list of rational (int or Fraction) vectors.

    Each row is scaled by the lcm of its denominators, then reduced by
    _bareiss, so all intermediate entries stay Python ints.
    """
    rows = []
    for v in vectors:
        den = lcm(*(x.denominator for x in v))
        row = [(x * den).numerator for x in v]
        if any(row):
            rows.append(row)
    return len(_bareiss(rows)[0])


# ---------------------------------------------------------------------------
# finitely generated abelian groups (cokernels)
# ---------------------------------------------------------------------------

class AbelianGroupPresentation(NamedTuple):
    """Cokernel Z^n / im(m) in Smith-normal coordinates.

    free_rank: number of Z summands.
    torsion: invariant factors d_1 | d_2 | ... (all >= 2).
    free_map / torsion_map: integer functionals on Z^n computing the free and
    torsion coordinates of a class (torsion coordinates live mod torsion[i]).
    All are tuples (the maps of row tuples), as a fan's class groups are
    shared by every holder of the fan.
    """

    free_rank: int
    torsion: tuple
    free_map: tuple
    torsion_map: tuple

    def class_of(self, v):
        free = tuple(vec_dot(row, v) for row in self.free_map)
        tors = tuple(vec_dot(row, v) % d
                     for row, d in zip(self.torsion_map, self.torsion))
        return free, tors

    def is_zero_class(self, v):
        free, tors = self.class_of(v)
        return not any(free) and not any(tors)


def cokernel(m):
    """Presentation of Z^rows / (column span of m)."""
    return cokernel_from_snf(snf(m))


def cokernel_from_snf(s):
    """cokernel(m) read off the Smith form s of m."""
    nr = len(s.left)
    r = s.rank
    torsion_idx = [i for i in range(r) if s.diag[i][i] >= 2]
    return AbelianGroupPresentation(
        free_rank=nr - r,
        torsion=tuple(s.diag[i][i] for i in torsion_idx),
        free_map=s.left[r:],
        torsion_map=tuple(s.left[i] for i in torsion_idx),
    )


# ---------------------------------------------------------------------------
# rational cones
# ---------------------------------------------------------------------------

def in_hform(hform, v):
    """Does v satisfy the H-form (equalities, inequalities) of a cone?"""
    eqs, ineqs = hform
    return all(vec_dot(e, v) == 0 for e in eqs) and \
        all(vec_dot(f, v) >= 0 for f in ineqs)


def extremal_rays(gens, hform):
    """The sorted primitive extremal rays of cone(gens), or None when the
    cone is not pointed; hform is its H-form (see cone_hform).

    A zero generator makes 0 a non-trivial positive combination: not
    pointed.  Otherwise the lineality space is where every equality and
    inequality vanishes, so the cone is pointed exactly when they have
    rank dim, and then g spans an extremal ray exactly when the
    equalities and the facet normals vanishing on g have rank dim - 1.
    The equalities are independent (see cone_hform), so the cone has
    dimension dim - len(equalities), and that many distinct primitive
    generators are independent: the cone is simplicial, hence pointed,
    and each generator spans an extremal ray; no rank is needed.
    """
    if not gens:
        return []
    if not all(any(g) for g in gens):
        return None
    prims = sorted({primitive_vector(g) for g in gens})
    dim = len(prims[0])
    eqs, ineqs = list(hform[0]), hform[1]
    if len(prims) == dim - len(eqs):
        return prims
    if rank_q(eqs + list(ineqs)) < dim:
        return None
    return [g for g in prims
            if rank_q(eqs + [phi for phi in ineqs
                             if vec_dot(phi, g) == 0]) == dim - 1]


def _det(m):
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in m]
    pivots, sign = _bareiss(a)
    if len(pivots) < len(a):
        return 0
    return sign * a[-1][-1]


def _double_description(vectors, dim):
    """(lineality basis, sorted primitive extreme rays) of the cone
    D = {phi : phi.v >= 0 for v in vectors} in R^dim.

    The double description method (Motzkin, Raiffa, Thompson and Thrall
    1953, "The double description method"; Fukuda and Prodon 1996,
    "Double description method revisited").  D starts as R^dim, with the
    unit vectors as lineality basis L and no rays, and is cut by one
    half-space {a >= 0} at a time.  Throughout, L spans the lineality
    space of D, the primitive rays R span the extreme rays of D / span(L)
    (pointed, as the vectors so far vanish together only on span(L)),
    D = span(L) + cone(R), and each ray is tagged with the indices of the
    vectors it vanishes on.  A zero vector cuts nothing.

    Lineality step, when a.l != 0 for some l in L (negated so a.l > 0).
    Every other x in L and every ray x is cleared to (a.l)x - (a.x)l,
    made primitive: it vanishes on a, and as l vanishes on every earlier
    vector it is a positive multiple of x there, so tags only gain a.
    The cleared L is a basis of span(L) & {a = 0}, and
    x -> (x mod span(L), a.x) is an isomorphism from R^dim modulo that
    span onto R^dim / span(L) x R.  It carries D & {a >= 0} onto
    (D / span(L)) x R_>=0, the cleared rays onto the rays of the first
    factor and l onto (0, 1): the new rays are the cleared ones and l,
    whose tag is every earlier index.

    Ray step, when a vanishes on L.  A face of D' = D & {a >= 0} is
    G & {a >= 0} or G & {a = 0} for the smallest face G of D containing
    it.  So an extreme ray of D' is an extreme ray r of D with a.r >= 0,
    or is G & {a = 0} for a two-dimensional face G of D, modulo span(L),
    whose two rays r, s have a.r > 0 > a.s; that ray is (a.r)s - (a.s)r,
    a positive combination, tagged (Z(r) & Z(s)) + {a}.  Conversely each
    such G & {a = 0} is a face of D'.  Adjacency test: the smallest face
    of D containing r and s is cut out by the vectors in Z = Z(r) & Z(s)
    and spanned by the rays whose tag contains Z, so it is
    two-dimensional exactly when no third ray's tag contains Z, as a
    pointed cone of dimension >= 3 has >= 3 extreme rays (Fukuda and
    Prodon, Proposition 7).  That face's span is the kernel of the
    vectors in Z, so they number at least dim - len(L) - 2: a cheaper
    necessary test, tried first.
    """
    lin = [tuple(row) for row in identity_matrix(dim)]
    rays = []  # (primitive ray, frozenset of indices it vanishes on)
    for k, a in enumerate(vectors):
        vals = [vec_dot(a, x) for x in lin]
        p = next((i for i, v in enumerate(vals) if v), None)
        if p is not None:
            l, al = lin.pop(p), vals.pop(p)
            if al < 0:
                l, al = tuple(-x for x in l), -al

            def clear(x, ax):
                return primitive_vector([al * y - ax * z
                                         for y, z in zip(x, l)])
            lin = [clear(x, ax) for x, ax in zip(lin, vals)]
            rays = [(clear(r, vec_dot(a, r)), z | {k}) for r, z in rays]
            rays.append((l, frozenset(range(k))))
            continue
        vals = [vec_dot(a, r) for r, _ in rays]
        kept = [(r, z | {k} if v == 0 else z)
                for (r, z), v in zip(rays, vals) if v >= 0]
        least = dim - len(lin) - 2
        for i, vr in enumerate(vals):
            if vr <= 0:
                continue
            for j, vs in enumerate(vals):
                if vs >= 0:
                    continue
                meet = rays[i][1] & rays[j][1]
                if len(meet) < least or any(
                        meet <= z for m, (_, z) in enumerate(rays)
                        if m != i and m != j):
                    continue
                r, s = rays[i][0], rays[j][0]
                kept.append((primitive_vector(
                    [vr * y - vs * x for x, y in zip(r, s)]), meet | {k}))
        rays = kept
    return lin, sorted(r for r, _ in rays)


def cone_hform(gens, dim):
    """Half-space description of cone(gens) in R^dim.

    Returns (equalities, inequalities): integer functionals with
    cone = {x : e.x == 0 for e in equalities, f.x >= 0 for f in inequalities}.
    By duality the cone is {x : phi.x >= 0 for phi in D}, where
    D = {phi : phi.g >= 0 on gens} is the span of its lineality basis
    plus the cone of its extreme rays (see _double_description): those
    are the equalities and the facet normals, sorted.  The equalities
    are empty exactly when the cone is full-dimensional.  They are a
    Q-basis of the functionals vanishing on gens, not necessarily a
    Z-basis, and that suffices: every reader (in_hform, the ranks of
    extremal_rays and fan.wall_partners, the emptiness tests of
    fan._covers_once, cone_vform) sees only their common zero set, their
    rank or whether there are any, and those are fixed by the Q-span.
    """
    return _double_description(gens, dim)


def cone_vform(equalities, inequalities, dim):
    """The sorted primitive extremal rays of {x : eq.x == 0, ineq.x >= 0},
    or None when that region is not pointed.

    The region is {x : a.x >= 0} over the inequalities and each equality
    with both signs, so _double_description gives its lineality basis
    and extreme rays directly; it is pointed exactly when the basis is
    empty.  The equalities go first: each cuts the lineality space, then
    removes the one ray its first sign made.
    """
    normals = [v for e in equalities for v in (e, tuple(-x for x in e))]
    lin, rays = _double_description(normals + list(inequalities), dim)
    return None if lin else rays


def cone_intersection(hform1, hform2, dim):
    """Extremal rays of the intersection of two cones given by their
    H-forms (see cone_hform)."""
    (e1, f1), (e2, f2) = hform1, hform2
    rays = cone_vform(list(e1) + list(e2), list(f1) + list(f2), dim)
    if rays is None:
        raise NotPointedError("intersection has a lineality space")
    return rays


def smallest_face_containing(gens, hform, sub):
    """Indices of the smallest face of cone(gens) containing the rays at
    sub; hform is the cone's H-form (see cone_hform)."""
    _, ineqs = hform
    idx = set(range(len(gens)))
    for phi in ineqs:
        if all(vec_dot(phi, gens[i]) == 0 for i in sub):
            idx &= {i for i in idx if vec_dot(phi, gens[i]) == 0}
    return frozenset(idx)


# ---------------------------------------------------------------------------
# Hilbert bases
# ---------------------------------------------------------------------------

def _pulling_triangulation(rays, normals, cdim):
    """Triangulate a pointed cone of dimension cdim into simplicial subcones.

    rays are its extremal rays and normals its facet normals, both in the
    ambient coordinates: the cone need not be full-dimensional.
    Recursive pulling triangulation from the lexicographically smallest
    ray; it introduces no new rays.  Each facet missing the apex is
    triangulated and coned from the apex.  A facet spans a subspace of
    dimension cdim - 1, so a facet with cdim - 1 rays has independent
    rays: it is a simplex, and so is its cone from the apex, which lies
    off that subspace.  Any other facet recurses on the facet normals of
    its own double description, in the same coordinates.  Returns lists
    of rays.
    """
    rays = sorted(rays)
    if len(rays) == cdim:
        return [rays]
    apex = rays[0]
    pieces = []
    # each facet normal cuts out one facet: the rays on its hyperplane
    for phi in normals:
        if vec_dot(phi, apex) == 0:
            continue
        sub = [r for r in rays if vec_dot(phi, r) == 0]
        if len(sub) == cdim - 1:
            pieces.append([apex] + sub)
            continue
        for tri in _pulling_triangulation(
                sub, _double_description(sub, len(apex))[1], cdim - 1):
            pieces.append([apex] + tri)
    return pieces


def _simplicial_box_points(vmat, s):
    """Non-zero lattice points of the half-open parallelepiped of a
    simplicial cone, via the quotient group (Z^n & span V) / V Z^k.

    V = vmat is the n x k matrix whose columns are the k independent
    rays, and k < n is allowed; s is its Smith form.  With
    left * V * right = D, left * V = D * right^-1 vanishes below row k,
    so a lattice point y of the span has (left * y)_i = 0 for i >= k:
    the quotient is the Z^k / D Z^k of the first k rows, and its class
    acc is y = left^-1 * (acc, 0).  Then V^-1 y = right * D^-1 * acc, so
    the box point is V * frac(right * D^-1 * acc), computed in integers
    over lcm(D).  The classes number the product of the invariants.
    """
    ds = s.invariants
    den = lcm(*ds)
    scale = [den // d for d in ds]
    pts = set()
    for acc in product(*map(range, ds)):
        scaled = [a * c for a, c in zip(acc, scale)]
        num = [vec_dot(row, scaled) % den for row in s.right]
        p = tuple(vec_dot(row, num) // den for row in vmat)
        if any(p):
            pts.add(p)
    return pts


# Box points hilbert_basis may list, summed over the simplices of its
# triangulation, before it raises InputTooLargeError.  With its share of
# the candidate table and the reduction, a point costs about 15-18 us and
# 0.5 KB: the README's germ with a box of 10^6 points took 15-18 s of CPU
# and 0.54 GB on a 2-vCPU Xeon, so this budget is about half a minute
# and 1 GB.
_BOX_BUDGET = 2_000_000


def hilbert_basis(gens, dim=None):
    """Minimal generating set of cone(gens) & Z^dim (the Hilbert basis).

    The cone may have any dimension, and it is read in the ambient
    coordinates throughout: one double description gives its H-form,
    and the triangulation takes one more per non-simplicial face it
    visits.  Simplicial cones are handled by direct parallelepiped
    enumeration; a non-simplicial cone is first pulled apart into
    simplicial pieces and the union of the piece bases is then reduced
    to the unique minimal set.

    Args:
        gens: integer generators of a pointed rational cone.
        dim: ambient dimension (inferred from gens when omitted).

    Returns:
        Sorted list of primitive-or-not integer tuples; the unique minimal
        generating set of the monoid.

    Raises:
        NotPointedError: if the cone has a non-trivial lineality space.
        InputTooLargeError: if the simplices' boxes hold more than
            ``_BOX_BUDGET`` points in all.
    """
    gens = [tuple(g) for g in gens if any(g)]
    if dim is None:
        if not gens:
            raise ValueError("cannot infer dimension from an empty generator list")
        dim = len(gens[0])
    if not gens:
        return []
    hform = _double_description(gens, dim)
    rays = extremal_rays(gens, hform)
    if rays is None:
        raise NotPointedError("Hilbert basis requires a pointed cone")
    # the equalities are a basis of the functionals vanishing on the cone
    eqs, ineqs = hform
    # each simplex's box has as many points as the product of its Smith
    # invariants, so the work is known before any point is listed
    pieces = []
    for piece in _pulling_triangulation(rays, ineqs, dim - len(eqs)):
        vmat = transpose(piece)  # columns are the rays
        pieces.append((vmat, snf(vmat)))
    size = sum(prod(s.invariants) for _, s in pieces)
    if size > _BOX_BUDGET:
        raise InputTooLargeError(
            f"the Hilbert basis would enumerate {size} box points, more "
            f"than the budget of {_BOX_BUDGET}; the cone's simplicial "
            "pieces have too large a determinant")
    candidates = set(rays)
    for vmat, s in pieces:
        candidates.update(_simplicial_box_points(vmat, s))
    # Candidates lie in the cone's span, where the equalities hold, so
    # c - h lies in the cone exactly when it is >= 0 on every facet
    # normal.  The sum of those values grades the cone, positive off the
    # origin as the cone is pointed, so a reducible candidate is reduced
    # by a kept one of smaller degree.  Candidates are distinct, so
    # c - h is never zero.
    values = {c: [vec_dot(phi, c) for phi in ineqs] for c in candidates}
    ordered = sorted(candidates, key=lambda c: (sum(values[c]), c))
    kept = []
    for c in ordered:
        vc = values[c]
        if not any(all(x >= y for x, y in zip(vc, values[h])) for h in kept):
            kept.append(c)
    return sorted(kept)
