"""Reference element families on the unit triangle.

Vertices of the reference cell are v0=(0,0), v1=(1,0), v2=(0,1); local edge i
is opposite local vertex i.  Scalar Lagrange-type families are tabulated here;
Raviart-Thomas bases are constructed per physical cell by
``spaces.FESpace._rt_data`` from the vector monomials below, so that global
edge orientation and moment conventions are built in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ScalarElement:
    name: str
    degree: int
    dofs_per_vertex: int
    dofs_per_edge: int
    dofs_per_cell: int
    continuous: bool
    nodes: np.ndarray | None       # reference coords of nodal dofs, or None
    _tabulate: Callable

    @property
    def n_dofs(self) -> int:
        return 3 * self.dofs_per_vertex + 3 * self.dofs_per_edge + self.dofs_per_cell

    def tabulate(self, points: np.ndarray):
        """Values (n_dofs, n_pts) and reference gradients (n_dofs, n_pts, 2)."""
        return self._tabulate(np.atleast_2d(points))


def _bary(points):
    x, y = points[:, 0], points[:, 1]
    return 1.0 - x - y, x, y


def _tab_p0(points):
    n = len(points)
    return np.ones((1, n)), np.zeros((1, n, 2))


def _tab_p1(points):
    l0, l1, l2 = _bary(points)
    vals = np.stack([l0, l1, l2])
    grads = np.broadcast_to(
        np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])[:, None, :], (3, len(points), 2)
    ).copy()
    return vals, grads


def _tab_p2(points):
    l = np.stack(_bary(points))                       # (3, n)
    gl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    n = points.shape[0]
    vals = np.empty((6, n))
    grads = np.empty((6, n, 2))
    for i in range(3):
        vals[i] = l[i] * (2.0 * l[i] - 1.0)
        grads[i] = (4.0 * l[i] - 1.0)[:, None] * gl[i]
    # edge dof i sits on the edge opposite vertex i: 4 l_j l_k
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        vals[3 + i] = 4.0 * l[j] * l[k]
        grads[3 + i] = 4.0 * (l[j][:, None] * gl[k] + l[k][:, None] * gl[j])
    return vals, grads


def _tab_p1bubble(points):
    v1, g1 = _tab_p1(points)
    l0, l1, l2 = _bary(points)
    gl = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    bub = 27.0 * l0 * l1 * l2
    gbub = 27.0 * (
        (l1 * l2)[:, None] * gl[0] + (l0 * l2)[:, None] * gl[1] + (l0 * l1)[:, None] * gl[2]
    )
    vals = np.vstack([v1, bub[None, :]])
    grads = np.concatenate([g1, gbub[None, :, :]], axis=0)
    return vals, grads


_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_MIDPOINTS = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])  # midpoint of edge i

P0 = ScalarElement("P0", 0, 0, 0, 1, False, np.array([[1 / 3, 1 / 3]]), _tab_p0)
P1 = ScalarElement("P1", 1, 1, 0, 0, True, _VERTS, _tab_p1)
P1DC = ScalarElement("P1dc", 1, 0, 0, 3, False, _VERTS, _tab_p1)
P2 = ScalarElement("P2", 2, 1, 1, 0, True, np.vstack([_VERTS, _MIDPOINTS]), _tab_p2)
P1BUBBLE = ScalarElement("P1bubble", 3, 1, 0, 1, True, None, _tab_p1bubble)

SCALAR_ELEMENTS = {e.name: e for e in (P0, P1, P1DC, P2, P1BUBBLE)}


def _check_in_reference(points, tol=1e-12):
    l0, l1, l2 = _bary(np.atleast_2d(points))
    if np.min([l0.min(), l1.min(), l2.min()]) < -tol:
        raise ValueError("point outside the reference triangle")


def eval_basis(family: str, points: np.ndarray):
    """Reference-element basis values and gradients at ``points``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_in_reference(points)
    if family not in SCALAR_ELEMENTS:
        raise ValueError(f"unknown element family {family!r}")
    return SCALAR_ELEMENTS[family].tabulate(points)


# ---------------------------------------------------------------------------
# Raviart-Thomas monomials
#
# ``spaces.FESpace`` builds its per-cell RT bases from these.  Degrees of
# freedom are defined against *global* edge conventions so that normal
# traces are single-valued across cells:
#   n_e   = (t_y, -t_x) where t is the unit vector from the lower- to the
#           higher-numbered global endpoint,
#   s     = arclength parameter from the lower- to the higher-numbered end.
# RT0 has one mean-flux dof per edge; RT1 adds a first edge moment against
# (2s - 1) and two interior mean-value dofs.


def _rt_monomials(order: int, X: np.ndarray):
    """Vector monomial basis of RT_k and its divergence, at points (..., 2)."""
    x, y = X[..., 0], X[..., 1]
    z = np.zeros_like(x)
    o = np.ones_like(x)
    if order == 0:
        comp = [([o, z], z), ([z, o], z), ([x, y], 2 * o)]
    elif order == 1:
        comp = [
            ([o, z], z), ([x, z], o), ([y, z], z),
            ([z, o], z), ([z, x], z), ([z, y], o),
            ([x * x, x * y], 3 * x), ([x * y, y * y], 3 * y),
        ]
    else:
        raise ValueError(f"unsupported RT order {order}")
    vals = np.stack([np.stack(v, axis=-1) for v, _ in comp])   # (k, n, 2)
    divs = np.stack([d for _, d in comp])                       # (k, n)
    return vals, divs
