"""Helpers that only the tests use: interpolation, re-parsing and norms
that check the package from outside its production paths."""

import math

import numpy as np

from stokesbiot.elements import SCALAR_ELEMENTS, _bary
from stokesbiot.mesh import Mesh2D
from stokesbiot.quadrature import edge_rule, triangle_rule
from stokesbiot.verify import _darcy_extension


def rt_interpolate(space, f) -> np.ndarray:
    """Edge-moment (and interior-moment) interpolation onto an RT space."""
    mesh = space.mesh
    eq = edge_rule(7)
    ends = mesh.nodes[mesh.edges]          # (ne, 2, 2), sorted endpoints
    A, B = ends[:, 0], ends[:, 1]
    t = B - A
    L = np.linalg.norm(t, axis=1)
    n = np.column_stack([t[:, 1], -t[:, 0]]) / L[:, None]
    pts = A[:, None, :] + eq.points[None, :, None] * t[:, None, :]
    fx = np.asarray(f(pts.reshape(-1, 2))).reshape(pts.shape)
    fn = np.einsum("eqd,ed->eq", fx, n)
    out = np.zeros(space.n_dofs)
    flux0 = (fn * eq.weights[None, :]).sum(axis=1) * L
    if space.rt_order == 0:
        out[: len(mesh.edges)] = flux0
        return out
    out[0::2][: len(mesh.edges)] = flux0
    mom = eq.weights * (2.0 * eq.points - 1.0)
    out[1::2][: len(mesh.edges)] = (fn * mom[None, :]).sum(axis=1) * L
    geo = space.geometry
    p, w = geo.quadrature(triangle_rule(5))
    fx = np.asarray(f(p.reshape(-1, 2))).reshape(p.shape)
    mean = np.einsum("mqd,mq->md", fx, w) / geo.areas[:, None]
    ne = len(mesh.edges)
    out[2 * ne + 0::2] = mean[:, 0]
    out[2 * ne + 1::2] = mean[:, 1]
    return out


def read_vtk_points(path) -> np.ndarray:
    """Re-parse the coordinates written by ``vtkio.write_vtk``."""
    with open(path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("POINTS"):
            n = int(line.split()[1])
            pts = [tuple(map(float, lines[i + 1 + k].split())) for k in range(n)]
            return np.array(pts)[:, :2]
    raise ValueError("no POINTS section found")


def read_mesh_file(path) -> Mesh2D:
    """Re-parse a mesh written by ``mesh.write_mesh`` (no error handling)."""
    with open(path) as f:
        lines = f.read().splitlines()
    n_nodes, n_tris, n_bedges = map(int, lines[1].split())
    rows = [line.split() for line in lines[2:]]
    nodes, tris, bedges = rows[:n_nodes], rows[n_nodes:n_nodes + n_tris], rows[n_nodes + n_tris:]
    assert len(bedges) == n_bedges
    return Mesh2D(nodes=np.array(nodes, dtype=float),
                  tris=np.array([r[:3] for r in tris], dtype=np.int64),
                  tri_tags=np.array([r[3] for r in tris]),
                  bedges=np.array([r[:2] for r in bedges], dtype=np.int64).reshape(-1, 2),
                  bedge_tags=np.array([r[2] for r in bedges]))


def eval_basis(family: str, points: np.ndarray):
    """Reference-element basis values and gradients at ``points``;
    ``ValueError`` for a point outside the reference triangle or an unknown
    family."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if np.min(_bary(points)) < -1e-12:
        raise ValueError("point outside the reference triangle")
    if family not in SCALAR_ELEMENTS:
        raise ValueError(f"unknown element family {family!r}")
    return SCALAR_ELEMENTS[family].tabulate(points)


def multiplier_seminorm(mu_coeffs: np.ndarray, system) -> float:
    """|mu|_Lambda via the discrete Darcy extension with Dirichlet data mu."""
    ustar = _darcy_extension(system, mu_coeffs)
    return math.sqrt(max(0.0, ustar @ (system.blocks["Ap"] @ ustar)))
