"""Shared fan fixtures for the test suite."""

from toricomplex.fan import make_fan

P1 = make_fan(1, [(1,), (-1,)], [(0,), (1,)])

P2 = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])

P3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])

P1XP1 = make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                 [(0, 1), (1, 2), (2, 3), (0, 3)])

BLP2 = make_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)],
                [(0, 2), (0, 3), (1, 2), (1, 3)])

F1 = make_fan(2, [(1, 0), (0, 1), (-1, 1), (0, -1)],
              [(0, 1), (1, 2), (2, 3), (0, 3)])

F2 = make_fan(2, [(1, 0), (0, 1), (-1, 2), (0, -1)],
              [(0, 1), (1, 2), (2, 3), (0, 3)])

# affine germs
A2 = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])

A1_SING = make_fan(2, [(0, 1), (2, 1)], [(0, 1)])  # quadric cone point

CONIFOLD = make_fan(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
                    [(0, 1, 2, 3)])

A3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])

SUITE = {
    "P1": P1, "P2": P2, "P3": P3, "P1xP1": P1XP1,
    "BlP2": BLP2, "F1": F1, "F2": F2,
}


def projective_space(n):
    """The fan of P^n: e_1, ..., e_n, -(e_1 + ... + e_n)."""
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return make_fan(n, rays, [tuple(j for j in range(n + 1) if j != i)
                              for i in range(n + 1)])


def fan_product(f, g):
    """The product fan in N_f + N_g: cones are sums of a cone of each."""
    rays = [r + (0,) * g.rank for r in f.rays] + \
        [(0,) * f.rank + r for r in g.rays]
    k = len(f.rays)
    return make_fan(f.rank + g.rank, rays,
                    [c + tuple(i + k for i in d)
                     for c in f.max_cones for d in g.max_cones])
