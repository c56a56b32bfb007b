from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from toricomplex.divisor import (
    NotQCartierError,
    canonical_coeffs,
    is_ample,
    is_nef,
    q_span_dim,
    support_value,
)
from toricomplex.lattice import vec_dot

from fans import A1_SING, A2, BLP2, CONIFOLD, P1, P1XP1, P2, P3, SUITE
from helpers import (cartier_index, divisor_class, is_q_cartier,
                     is_q_principal, principal_witness, q_class,
                     solve_integral)


def test_class_group_ranks():
    assert P1.class_group.free_rank == 1
    assert P2.class_group.free_rank == 1
    assert P3.class_group.free_rank == 1
    assert P1XP1.class_group.free_rank == 2
    assert BLP2.class_group.free_rank == 2
    assert CONIFOLD.class_group.free_rank == 1
    assert all(f.class_group.torsion == () for f in SUITE.values())


def test_local_class_group_a1():
    g = A1_SING.local_class_group((0, 1))
    assert g.free_rank == 0 and g.torsion == (2,)


def test_local_class_group_smooth_point_trivial():
    g = P2.local_class_group((0, 1))
    assert g.free_rank == 0 and g.torsion == ()


def test_q_span_two_lines_p2():
    pres = P2.class_group
    lines = [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
    assert q_span_dim(pres, lines) == 1
    assert q_span_dim(pres, []) == 0


def test_divisor_class_additive():
    pres = P1XP1.class_group
    a = divisor_class(pres, (1, 0, 0, 0))
    b = divisor_class(pres, (0, 0, 1, 0))
    # opposite rulings are linearly equivalent
    assert a == b


def test_cartier_index_quadric_cone():
    assert cartier_index(A1_SING, (F(1), F(0))) == 2
    assert cartier_index(A1_SING, (F(1), F(1))) == 1


def test_cartier_index_fractional():
    # half a line on the plane: index 2 forced by the denominator
    assert cartier_index(P2, (F(1, 2), F(0), F(0))) == 2


def test_not_q_cartier_on_conifold():
    d = (F(1), F(0), F(0), F(0))
    assert not is_q_cartier(CONIFOLD, d)
    with pytest.raises(NotQCartierError):
        cartier_index(CONIFOLD, d)


def test_cartier_index_certifies():
    for fan, coeffs in ((A1_SING, (F(1), F(0))),
                        (P2, (F(1, 2), F(1, 3), F(0)))):
        k = cartier_index(fan, coeffs)
        for cone in fan.max_cones:
            a = [list(fan.rays[i]) for i in cone]
            b = [int(-k * coeffs[i]) for i in cone]
            assert solve_integral(a, b) is not None


def test_nef_exceptional_curve():
    from toricomplex.fan import make_fan
    bl = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
    e = (F(0), F(0), F(1))
    assert not is_nef(bl, e)
    me = (F(0), F(0), F(-1))
    assert is_nef(bl, me)
    assert is_ample(bl, me)


def test_anticanonical_p2():
    mk = tuple(-x for x in canonical_coeffs(P2))
    assert is_nef(P2, mk) and is_ample(P2, mk)
    zero = (F(0),) * 3
    assert is_nef(P2, zero) and not is_ample(P2, zero)


def test_principal_witness():
    w = principal_witness(P2, (F(1), F(1), F(-2)))
    assert w is not None
    for u, c in zip(P2.rays, (1, 1, -2)):
        assert sum(F(x) * m for x, m in zip(u, w)) == c
    assert principal_witness(P2, (F(1), F(0), F(0))) is None


def test_full_boundary_is_cy():
    for fan in (P2, P1XP1, CONIFOLD, A1_SING):
        kb = tuple(x + 1 for x in canonical_coeffs(fan))
        assert is_q_principal(fan, kb)


def test_support_value_canonical():
    # the blow-up weight of the origin of the plane
    assert support_value(A2, canonical_coeffs(A2), (1, 1)) == 2
    assert support_value(A2, canonical_coeffs(A2), (1, 2)) == 3


@settings(max_examples=50)
@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_principal_divisors_have_zero_class(m):
    pres = P1XP1.class_group
    coeffs = tuple(F(vec_dot(m, u)) for u in P1XP1.rays)
    assert all(x == 0 for x in q_class(pres, coeffs))
    assert is_q_principal(P1XP1, coeffs)
    assert is_nef(P1XP1, coeffs)  # trivial divisor class is nef


@settings(max_examples=30)
@given(st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.lists(st.integers(0, 3), min_size=4, max_size=4))
def test_nef_cone_is_convex(a, b):
    da, db = tuple(map(F, a)), tuple(map(F, b))
    if is_nef(P1XP1, da) and is_nef(P1XP1, db):
        assert is_nef(P1XP1, tuple(x + y for x, y in zip(da, db)))
