from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

import toricomplex.lattice
from toricomplex.lattice import (
    InputTooLargeError,
    NotPointedError,
    _det,
    cartier_scale,
    cokernel,
    cone_hform,
    cone_intersection,
    cone_vform,
    extremal_rays,
    hilbert_basis,
    identity_matrix,
    in_hform,
    kernel_basis,
    mat_vec,
    primitive_vector,
    rank_q,
    snf,
    solve_rational,
    vec_dot,
)

from bruteforce import (
    _hyperplane_normal,
    brute_hilbert_basis,
    facet_normals,
    gauss_jordan_solve,
    lp_cone_is_pointed,
    lp_extremal_rays,
    simplex_solve,
    vform_by_vertex_subsets,
)
from helpers import faces_of_cone, mat_mul, order_of_class, solve_integral

small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda nr: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda nc: st.lists(
                st.lists(small_int, min_size=nc, max_size=nc),
                min_size=nr, max_size=nr)))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_identity_fixed():
    s = snf(identity_matrix(3))
    assert s.diag == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_snf_zero():
    s = snf([[0, 0], [0, 0]])
    assert s.diag == ((0, 0), (0, 0))
    assert s.rank == 0


def test_snf_diag_2_3():
    m = [[2, 0], [0, 3]]
    s = snf(m)
    assert s.diag == ((1, 0), (0, 6))
    assert tuple(map(tuple, mat_mul(mat_mul(s.left, m), s.right))) == s.diag


@settings(max_examples=150)
@given(matrices())
def test_snf_properties(m):
    s = snf(m)
    nr, nc = len(m), len(m[0])
    assert tuple(map(tuple, mat_mul(mat_mul(s.left, m), s.right))) == s.diag
    assert abs(_det(s.left)) == 1
    assert abs(_det(s.right)) == 1
    inv = s.invariants
    assert all(d > 0 for d in inv)
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0
    # off-diagonal zero
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert s.diag[i][j] == 0


@settings(max_examples=100)
@given(matrices())
def test_kernel_basis(m):
    ker = kernel_basis(m)
    for v in ker:
        assert all(x == 0 for x in mat_vec(m, list(v)))
    assert len(ker) == len(m[0]) - rank_q(m) if any(any(r) for r in m) else True


# ---------------------------------------------------------------------------
# cokernels / abelian groups
# ---------------------------------------------------------------------------

def test_cokernel_free():
    g = cokernel([[0], [0], [0]])
    assert g.free_rank == 3
    assert g.torsion == ()


def test_cokernel_p2():
    # rays of the projective plane as rows: class group is Z,
    # all three ray divisors in the same generating class
    g = cokernel([[1, 0], [0, 1], [-1, -1]])
    assert g.free_rank == 1
    assert g.torsion == ()
    cls = [g.class_of(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    assert len(set(cls)) == 1
    assert cls[0][0] in ((1,), (-1,))


def test_cokernel_a1():
    g = cokernel([[0, 1], [2, 1]])
    assert g.free_rank == 0
    assert g.torsion == (2,)
    assert g.class_of([1, 0]) == ((), (1,))
    assert not g.is_zero_class([1, 0])
    assert g.is_zero_class([1, 1]) or g.class_of([1, 1]) == ((), (0,))
    assert order_of_class(g, [1, 0]) == 2
    assert order_of_class(g, [1, 1]) == 1


@settings(max_examples=100)
@given(matrices())
def test_cokernel_kills_image(m):
    g = cokernel(m)
    for col in zip(*m):
        assert g.is_zero_class(list(col))
    nr = len(m)
    assert g.free_rank == nr - rank_q(m) if any(any(r) for r in m) else nr


# ---------------------------------------------------------------------------
# rational solving
# ---------------------------------------------------------------------------

rational_entry = st.one_of(
    small_int, st.fractions(min_value=-5, max_value=5, max_denominator=7))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_rank_q_matches_sympy(data):
    ncols = data.draw(st.integers(min_value=1, max_value=7))
    rows = data.draw(st.lists(
        st.lists(rational_entry, min_size=ncols, max_size=ncols),
        max_size=7))
    # zero, duplicate and proportional rows: multiples of drawn rows
    if rows:
        for i, c in data.draw(st.lists(st.tuples(
                st.integers(min_value=0, max_value=len(rows) - 1),
                st.sampled_from([0, 1, -2, Fraction(3, 5)])), max_size=3)):
            rows.append([c * x for x in rows[i]])
    expected = sympy.Matrix(
        len(rows), ncols,
        [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r]
    ).rank()
    assert rank_q(rows) == expected


def test_solve_rational():
    x = solve_rational([[2, 0], [0, 3]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 3)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


@st.composite
def linear_systems(draw):
    """1-6 integer rows of length 1-5 with entries in [-4, 4] and a
    right-hand side of ints and Fractions; often a row is a combination
    of others, with a right-hand side that keeps or breaks consistency."""
    nc = draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(st.integers(-4, 4), min_size=nc, max_size=nc),
                      min_size=1, max_size=6))
    b = draw(st.lists(rational_entry, min_size=len(a), max_size=len(a)))
    for _ in range(draw(st.integers(0, 2))):
        if len(a) == 6:
            break
        coeffs = draw(st.lists(st.integers(-2, 2),
                               min_size=len(a), max_size=len(a)))
        a.append([sum(c * r[j] for c, r in zip(coeffs, a))
                  for j in range(nc)])
        b.append(sum((c * y for c, y in zip(coeffs, b)), Fraction(0))
                 + draw(st.sampled_from([0, 0, 1, Fraction(-1, 3)])))
    return a, b


@settings(max_examples=300, deadline=None)
@given(linear_systems())
@example(([[0, 0]], [0]))
@example(([[0, 0]], [Fraction(1, 2)]))
@example(([[1, 2], [2, 4]], [1, 2]))
@example(([[1, 2], [2, 4]], [1, 3]))
@example(([[0, 2, 4], [0, 1, 3], [0, 3, 5]], [Fraction(1, 3), 0, 1]))
def test_solve_rational_matches_gauss_jordan(system):
    a, b = system
    got = solve_rational(a, b)
    assert got == gauss_jordan_solve(a, b)
    if got is not None:
        assert all(sum(x * y for x, y in zip(row, got)) == y
                   for row, y in zip(a, b))


def test_solve_integral():
    assert solve_integral([[1, 0], [0, 1]], [3, 4]) == [3, 4]
    assert solve_integral([[0, 1], [2, 1]], [-1, 0]) is None


def test_cartier_scale_a1():
    # divisor at ray (0,1) of the quadric cone singularity: index 2
    k, x = cartier_scale([[0, 1], [2, 1]], [-1, 0])
    assert k == 2
    assert mat_vec([[0, 1], [2, 1]], x) == [-2, 0]


def test_cartier_scale_unsolvable():
    # inconsistent over Q
    assert cartier_scale([[1, 0], [1, 0]], [1, 2]) is None


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

SQUARE_CONE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]


def test_primitive_vector():
    assert primitive_vector((3, 6)) == (1, 2)
    assert primitive_vector((-2, 4)) == (-1, 2)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_cone_member():
    quadrant = cone_hform([(1, 0), (0, 1)], 2)
    assert in_hform(quadrant, (5, 7))
    assert not in_hform(quadrant, (-1, 0))
    assert in_hform(cone_hform([], 2), (0, 0))


def test_pointedness():
    quadrant = [(1, 0), (0, 1)]
    assert extremal_rays(quadrant, cone_hform(quadrant, 2)) is not None
    halfplane = [(1, 0), (-1, 0), (0, 1)]
    assert extremal_rays(halfplane, cone_hform(halfplane, 2)) is None


def test_extremal_rays():
    gens = [(1, 0), (1, 1), (0, 1)]
    assert extremal_rays(gens, cone_hform(gens, 2)) == [(0, 1), (1, 0)]
    gens = [(2, 0), (0, 3)]
    assert extremal_rays(gens, cone_hform(gens, 2)) == [(0, 1), (1, 0)]


def test_faces_of_square_cone():
    faces = faces_of_cone(SQUARE_CONE, cone_hform(SQUARE_CONE, 3))
    sizes = sorted(len(f) for f in faces)
    assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2, 4]
    # diagonals are not faces
    assert frozenset({0, 3}) not in faces
    assert frozenset({1, 2}) not in faces


def test_hform_vform_roundtrip():
    eqs, ineqs = cone_hform(SQUARE_CONE, 3)
    assert eqs == []
    rays = cone_vform(eqs, ineqs, 3)
    assert rays == sorted(primitive_vector(g) for g in SQUARE_CONE)


def test_lower_dim_cone_hform():
    eqs, ineqs = cone_hform([(1, 1)], 2)
    assert len(eqs) == 1
    assert cone_vform(eqs, ineqs, 2) == [(1, 1)]


def test_lower_dim_cone_hform_takes_one_smith_form(monkeypatch):
    """Equalities and facet normals come from one double-description
    pass, with no Smith form; the equality is the primitive functional
    vanishing on the cone."""
    calls = []
    real = toricomplex.lattice.snf

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(toricomplex.lattice, "snf", counting)
    gens = [(1, 1, 0), (0, 1, 1)]
    eqs, ineqs = cone_hform(gens, 3)
    assert len(calls) == 0
    assert eqs in ([(1, -1, 1)], [(-1, 1, -1)])
    assert cone_vform(eqs, ineqs, 3) == sorted(gens)


def test_cone_intersection():
    got = cone_intersection(cone_hform([(1, 0), (0, 1)], 2),
                            cone_hform([(1, -1), (1, 1)], 2), 2)
    assert got == [(1, 0), (1, 1)]


@st.composite
def cone_generators(draw):
    """1-6 generators in rank 1-4 with entries in [-3, 3]; up to two
    zero, duplicate, non-extremal (sum) or opposite generators are added."""
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                         min_size=1, max_size=4))
    return _add_degenerate(draw, gens, d)


def _add_degenerate(draw, gens, d):
    """gens with up to two zero, duplicate, sum or opposite generators
    appended."""
    for kind in draw(st.lists(st.sampled_from(
            ("zero", "duplicate", "sum", "opposite")), max_size=2)):
        a = gens[draw(st.integers(0, len(gens) - 1))]
        b = gens[draw(st.integers(0, len(gens) - 1))]
        gens.append({"zero": (0,) * d,
                     "duplicate": a,
                     "sum": tuple(x + y for x, y in zip(a, b)),
                     "opposite": tuple(-x for x in a)}[kind])
    return gens


@st.composite
def full_rank_generators(draw):
    """Generators of rank d in dimension 2 <= d <= 4, entries in [-3, 3]:
    1-4 drawn vectors, plus a signed unit vector at each column that is
    not a pivot of their reduced echelon form, plus degenerate ones as in
    cone_generators, in a drawn order."""
    d = draw(st.integers(2, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                         min_size=1, max_size=4))
    pivots = sympy.Matrix(gens).rref()[1]
    gens += [tuple(sign * (i == j) for i in range(d))
             for j in range(d) if j not in pivots
             for sign in [draw(st.sampled_from((1, -1)))]]
    return draw(st.permutations(_add_degenerate(draw, gens, d)))


@settings(max_examples=300, deadline=None)
@given(cone_generators())
@example([(0, 0), (1, 0)])
@example([(0, 0, 0)])
@example([(1, 0), (1, 0), (0, 1)])
@example([(1, 0), (1, 1), (0, 1)])
@example([(1, 0), (-1, 0), (0, 1)])
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0)])
@example([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)])
@example([(1, 1, 0, 0), (0, 1, 1, 0), (1, 2, 1, 0)])
@example([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)])
@example([(2,), (-1,)])
@example([(2, 0), (0, 3)])
@example([(1, 0, 0), (0, 2, 0), (0, 0, 1), (0, 0, 1)])
@example([(1, 0), (2, 0), (0, 1)])
@example([(1, 0), (-1, 0)])
def test_pointedness_and_extremality_match_lp(gens):
    hform = cone_hform(gens, len(gens[0]))
    pointed = lp_cone_is_pointed(gens)
    rays = extremal_rays(gens, hform)
    assert (rays is not None) == pointed
    if pointed:
        assert rays == lp_extremal_rays(gens)
    rays = cone_vform(*hform, len(gens[0]))
    if rays is None:
        assert not pointed
    else:
        assert rays == lp_extremal_rays(gens)


def _sympy_rank(vectors):
    return sympy.Matrix([list(v) for v in vectors]).rank() if vectors else 0


@st.composite
def lower_dim_generators(draw):
    """Generators of a cone of rank 1 to d - 1 in dimension 2 <= d <= 5:
    1-5 integer combinations, coefficients in [-2, 2], of d - 1 or fewer
    drawn vectors with entries in [-3, 3], plus up to three duplicate,
    antiparallel or scaled generators, in a drawn order."""
    d = draw(st.integers(2, 5))
    basis = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                          min_size=1, max_size=d - 1))
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis),
                               max_size=len(basis)))
        gens.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis))
                          for j in range(d)))
    gens = [g for g in gens if any(g)]
    assume(gens)
    for kind in draw(st.lists(st.sampled_from(
            ("duplicate", "antiparallel", "scaled")), max_size=3)):
        a = gens[draw(st.integers(0, len(gens) - 1))]
        gens.append({"duplicate": a,
                     "antiparallel": tuple(-x for x in a),
                     "scaled": tuple(3 * x for x in a)}[kind])
    return draw(st.permutations(gens))


@settings(max_examples=200, deadline=None)
@given(lower_dim_generators())
@example([(1, 1, 0), (0, 1, 1)])
@example([(1, 0), (-1, 0)])
@example([(1, 0, 0, 0, 0), (2, 0, 0, 0, 0), (0, 1, 1, 0, 0),
          (0, -1, -1, 0, 0), (1, 1, 1, 0, 0)])
def test_lower_dim_hform_matches_lp(gens):
    """The equalities of a lower-dimensional cone are some basis of the
    functionals vanishing on it, and each inequality is a facet normal:
    whatever basis is chosen, the V-form and pointedness match the LP."""
    d = len(gens[0])
    rank = _sympy_rank(gens)
    eqs, ineqs = cone_hform(gens, d)
    assert len(eqs) == _sympy_rank(eqs) == d - rank
    assert all(vec_dot(e, g) == 0 for e in eqs for g in gens)
    for phi in ineqs:
        assert all(vec_dot(phi, g) >= 0 for g in gens)
        assert _sympy_rank([g for g in gens if vec_dot(phi, g) == 0]) \
            == rank - 1
    rays = cone_vform(eqs, ineqs, d)
    assert (rays is None) == (not lp_cone_is_pointed(gens))
    if rays is not None:
        assert rays == lp_extremal_rays(gens)


@pytest.mark.parametrize("d", [6, 7, 8])
def test_cube_cone_hform_at_larger_ranks(d):
    """The cone over the (d - 1)-cube has 2^(d-1) rays and 2(d - 1)
    facets; enumerating the (d - 1)-subsets of its rays would take hours
    at d = 7 and 8."""
    cube = _cube_cone(d)
    eqs, ineqs = cone_hform(cube, d)
    assert eqs == [] and len(ineqs) == 2 * (d - 1)
    for phi in ineqs:
        assert all(vec_dot(phi, r) >= 0 for r in cube)
        assert _sympy_rank([r for r in cube if vec_dot(phi, r) == 0]) \
            == d - 1


@settings(max_examples=200, deadline=None)
@given(full_rank_generators())
def test_facet_normals_match_sympy(gens):
    d = len(gens[0])
    assert cone_hform(gens, d) == ([], sorted(facet_normals(gens, d)))
    square = [list(g) for g in gens[:d]]
    if len(square) == d:
        assert _det(square) == sympy.Matrix(square).det()


@st.composite
def stacked_hforms(draw):
    """(equalities, inequalities, d): the H-forms of two cones in R^d
    stacked, as cone_intersection stacks them, with up to three
    antiparallel, repeated or scaled inequalities added; the equalities
    are sometimes rewritten as inequalities of both signs."""
    d = draw(st.integers(1, 4))
    gens = st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                    min_size=1, max_size=4)
    (e1, f1), (e2, f2) = (cone_hform(draw(gens), d) for _ in range(2))
    eqs, ineqs = list(e1) + list(e2), list(f1) + list(f2)
    for kind in draw(st.lists(st.sampled_from(
            ("antiparallel", "repeated", "scaled")), max_size=3)):
        if ineqs:
            f = ineqs[draw(st.integers(0, len(ineqs) - 1))]
            ineqs.append({"antiparallel": tuple(-x for x in f),
                          "repeated": f,
                          "scaled": tuple(2 * x for x in f)}[kind])
    if draw(st.booleans()):
        ineqs += eqs + [tuple(-x for x in e) for e in eqs]
        eqs = []
    return eqs, ineqs, d


@settings(max_examples=200, deadline=None)
@given(stacked_hforms())
@example(([], [(1, 0), (-1, 0), (0, 1)], 2))
@example(([(0, 0, 1)], [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (1, 0, 0)], 3))
def test_vform_matches_vertex_subsets(hform):
    eqs, ineqs, d = hform
    rays, lineality = vform_by_vertex_subsets(eqs, ineqs, d)
    assert cone_vform(eqs, ineqs, d) == (None if lineality else rays)


@st.composite
def hyperplane_rows(draw):
    """d - 1 integer rows of length d (2 <= d <= 5), entries in [-3, 3];
    often the last row is an integer combination of the others."""
    d = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                         min_size=d - 1, max_size=d - 1))
    if d > 2 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2),
                               min_size=d - 2, max_size=d - 2))
        rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows))
                    for j in range(d)]
    return rows


@settings(max_examples=300, deadline=None)
@given(hyperplane_rows())
@example([[0, 0]])
@example([[1, 2, 3], [2, 4, 6]])
@example([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
@example([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 2, 2]])
def test_hyperplane_normal_matches_sympy(rows):
    kernel = sympy.Matrix(rows).nullspace()
    got = _hyperplane_normal(rows)
    if len(kernel) != 1:
        assert got is None
        return
    den = lcm(*(int(x.q) for x in kernel[0]))
    v = [int(x * den) for x in kernel[0]]
    g = gcd(*v)
    v = tuple(x // g for x in v)
    assert got in (v, tuple(-x for x in v))


# ---------------------------------------------------------------------------
# Hilbert bases
# ---------------------------------------------------------------------------

def _in_cone(hform, v):
    eqs, ineqs = hform
    return all(vec_dot(e, v) == 0 for e in eqs) and \
        all(vec_dot(f, v) >= 0 for f in ineqs)


def _generates(hb, target, hform):
    # brute-force oracle: is target an N-combination of hb?
    seen = set()
    stack = [tuple(target)]
    while stack:
        cur = stack.pop()
        if not any(cur):
            return True
        if cur in seen:
            continue
        seen.add(cur)
        for h in hb:
            nxt = tuple(a - b for a, b in zip(cur, h))
            if _in_cone(hform, nxt):
                stack.append(nxt)
    return False


def test_hilbert_quadrant():
    assert hilbert_basis([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]


def test_hilbert_quadric_cone():
    assert hilbert_basis([(0, 1), (2, 1)]) == [(0, 1), (1, 1), (2, 1)]


def test_hilbert_halfline():
    assert hilbert_basis([(3, 6)]) == [(1, 2)]


def test_hilbert_square_cone():
    assert hilbert_basis(SQUARE_CONE) == sorted(SQUARE_CONE)


def test_hilbert_not_pointed():
    with pytest.raises(NotPointedError):
        hilbert_basis([(1, 0), (-1, 0), (0, 1)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(small_int, small_int), min_size=1, max_size=4))
def test_hilbert_generates_and_minimal_2d(gens):
    gens = [g for g in gens if any(g)]
    if not gens or extremal_rays(gens, cone_hform(gens, 2)) is None:
        return
    hb = hilbert_basis(gens, 2)
    hform = cone_hform(gens, 2)
    # every small lattice point of the cone is generated
    for x in range(-8, 9):
        for y in range(-8, 9):
            v = (x, y)
            if any(v) and _in_cone(hform, v):
                assert _generates(hb, v, hform)
    # minimality: no basis element is generated by the others
    for i, h in enumerate(hb):
        rest = hb[:i] + hb[i + 1:]
        assert not _generates(rest, h, hform)


def _cube_cone(d):
    """The cone over the (d - 1)-cube: 2^(d-1) rays (+-1, ..., +-1, 1)."""
    return [s + (1,) for s in product((-1, 1), repeat=d - 1)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                          st.integers(1, 2)), min_size=4, max_size=6))
def test_hilbert_matches_enumeration_3d(gens):
    """Pointed rank-3 cones (every generator has last coordinate > 0)
    with at least four extremal rays, so the pulling triangulation
    splits them."""
    assume(len(lp_extremal_rays(gens)) >= 4)
    assert hilbert_basis(gens) == brute_hilbert_basis(gens)


def test_hilbert_matches_enumeration_on_the_cube_cone():
    """The facets of the cone over the 3-cube are squares, so the
    triangulation recurses on each facet missing its apex, in the
    ambient coordinates."""
    cube = _cube_cone(4)
    assert hilbert_basis(cube) == brute_hilbert_basis(cube)


def _unimodular(entries, n):
    """L * U for the unit lower- and upper-triangular matrices whose
    off-diagonal entries are taken, in order, from entries."""
    it = iter(entries)
    low = [[1 if i == j else next(it) if j < i else 0 for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else next(it) if j > i else 0 for j in range(n)]
          for i in range(n)]
    return mat_mul(low, up)


@st.composite
def embedded_cones(draw):
    """A pointed full-dimensional cone of rank d = 2 or 3 (every
    generator has last coordinate > 0, as in
    test_hilbert_matches_enumeration_3d), padded with zeros to rank
    d + 1 or d + 2, and a unimodular matrix of that rank."""
    d = draw(st.sampled_from((2, 3)))
    entry = st.integers(-2, 2)
    gens = draw(st.lists(st.tuples(*[entry] * (d - 1), st.integers(1, 2)),
                         min_size=d, max_size=6))
    n = d + draw(st.integers(1, 2))
    u = _unimodular(draw(st.lists(st.integers(-1, 1), min_size=n * (n - 1),
                                  max_size=n * (n - 1))), n)
    return gens, n, u


@settings(max_examples=30, deadline=None)
@given(embedded_cones())
def test_hilbert_matches_enumeration_on_embedded_cones(cone):
    """A lower-dimensional cone has the Hilbert basis of its preimage
    under a unimodular embedding: its span meets Z^n in the image of
    the smaller lattice."""
    gens, n, u = cone
    d = len(gens[0])
    assume(sympy.Matrix([list(g) for g in gens]).rank() == d)

    def embed(v):
        return tuple(mat_vec(u, list(v) + [0] * (n - d)))

    expected = sorted(embed(h) for h in brute_hilbert_basis(gens))
    assert hilbert_basis([embed(g) for g in gens]) == expected


def test_hilbert_box_points_take_no_linear_solve(monkeypatch):
    """Box points are reduced through the Smith form of their simplex,
    not by one rational solve each."""
    calls = []
    real = toricomplex.lattice.solve_rational

    def counting(a, b):
        calls.append(a)
        return real(a, b)

    monkeypatch.setattr(toricomplex.lattice, "solve_rational", counting)
    assert len(hilbert_basis(_cube_cone(4))) == 27
    assert calls == []


def test_hilbert_basis_ranks_a_lower_dimensional_cone_once(monkeypatch):
    """The double description of the dual cone tells the dimension (its
    lineality basis has length dim - rank), so the generators are not
    ranked.  The 4 calls are extremal_rays' in the ambient coordinates:
    one for pointedness, one per generator."""
    calls = []
    real = toricomplex.lattice.rank_q

    def counting(vectors):
        calls.append(vectors)
        return real(vectors)

    monkeypatch.setattr(toricomplex.lattice, "rank_q", counting)
    gens = [(1, 1, 0), (0, 1, 1), (1, 2, 1)]
    assert hilbert_basis(gens) == [(0, 1, 1), (1, 1, 0)]
    assert len(calls) == 4


def test_hilbert_basis_describes_a_lower_dimensional_cone_once(monkeypatch):
    """A lower-dimensional cone is not projected to its span: the one
    double description of its generators gives its equalities and its
    facet normals, and a simplicial cone needs no other."""
    calls = []
    real = toricomplex.lattice._double_description

    def counting(vectors, dim):
        calls.append((len(vectors), dim))
        return real(vectors, dim)

    monkeypatch.setattr(toricomplex.lattice, "_double_description", counting)
    gens = [(1, 1, 0), (0, 1, 1), (1, 2, 1)]
    assert hilbert_basis(gens) == [(0, 1, 1), (1, 1, 0)]
    assert calls == [(3, 3)]


def test_hilbert_basis_takes_one_smith_form_per_simplex(monkeypatch):
    """The pulling triangulation of the cone over the 3-cube has six
    simplices, one per half of each of the three square facets missing
    the apex; the triangulation itself takes no Smith form."""
    calls = []
    real = toricomplex.lattice.snf

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(toricomplex.lattice, "snf", counting)
    assert len(hilbert_basis(_cube_cone(4))) == 27
    assert len(calls) == 6


def test_hilbert_basis_stops_at_its_box_budget(monkeypatch):
    """The simplex on (1, 0, 0), (0, 1, 0), (3, 7, 5) has a box of 5
    points: a budget of 5 admits it, and one of 4 stops it before any
    box point is listed."""
    listed = []
    real = toricomplex.lattice._simplicial_box_points

    def listing(vmat, s):
        listed.append(vmat)
        return real(vmat, s)

    monkeypatch.setattr(toricomplex.lattice, "_simplicial_box_points",
                        listing)
    gens = [(1, 0, 0), (0, 1, 0), (3, 7, 5)]
    monkeypatch.setattr(toricomplex.lattice, "_BOX_BUDGET", 5)
    assert hilbert_basis(gens) == brute_hilbert_basis(gens)
    assert len(listed) == 1
    listed.clear()
    monkeypatch.setattr(toricomplex.lattice, "_BOX_BUDGET", 4)
    with pytest.raises(InputTooLargeError, match="enumerate 5 box points"):
        hilbert_basis(gens)
    assert listed == []


def test_hilbert_simplicial_3d_singular():
    hb = hilbert_basis([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert (1, 1, 1) in hb
    assert len(hb) == 4


# ---------------------------------------------------------------------------
# simplex (the LP oracles' solver in bruteforce.py)
# ---------------------------------------------------------------------------

def test_simplex_basic():
    st_, x, v = simplex_solve([3, 2], a_ub=[[1, 1], [1, 0]], b_ub=[4, 2])
    assert st_ == "optimal" and x == [2, 2] and v == 10


def test_simplex_infeasible():
    st_, _, _ = simplex_solve([1], a_eq=[[1]], b_eq=[-2])
    assert st_ == "infeasible"


def test_simplex_unbounded():
    st_, _, _ = simplex_solve([1], a_ub=[[-1]], b_ub=[0])
    assert st_ == "unbounded"


def test_simplex_negative_rhs():
    st_, x, v = simplex_solve([-1], a_ub=[[-1]], b_ub=[-1])
    assert st_ == "optimal" and x == [1] and v == -1


def test_simplex_fractional():
    st_, x, v = simplex_solve([1, 1], a_eq=[[2, 0], [0, 3]], b_eq=[1, 1])
    assert st_ == "optimal"
    assert x == [Fraction(1, 2), Fraction(1, 3)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_int, small_int, st.integers(0, 8)),
                min_size=1, max_size=5),
       st.tuples(small_int, small_int))
def test_simplex_duality(rows, c):
    # max c.x st Ax <= b, x >= 0   vs   min b.y st A^T y >= c, y >= 0
    a = [[r[0], r[1]] for r in rows]
    b = [r[2] for r in rows]
    st_p, xp, vp = simplex_solve(list(c), a_ub=a, b_ub=b)
    at = [list(col) for col in zip(*a)]
    st_d, xd, vd = simplex_solve([-bi for bi in b],
                                 a_ub=[[-x for x in row] for row in at],
                                 b_ub=[-ci for ci in c])
    if st_p == "optimal":
        # primal feasibility of the reported point
        assert all(xi >= 0 for xi in xp)
        for row, bi in zip(a, b):
            assert vec_dot(row, xp) <= bi
        assert st_d == "optimal"
        assert vp == -vd
    if st_p == "unbounded":
        assert st_d == "infeasible"
