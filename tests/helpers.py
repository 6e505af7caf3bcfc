"""Helpers that only the tests use: interpolation, re-parsing and norms
that check the package from outside its production paths."""

import math

import numpy as np

from stokesbiot.elements import SCALAR_ELEMENTS, _bary
from stokesbiot.mesh import Mesh2D
from stokesbiot.quadrature import edge_rule, triangle_rule
from stokesbiot.solver import FluxBC
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


def write_vtk_per_value(path, mesh: Mesh2D, point_data: dict | None = None,
                        cell_data: dict | None = None) -> None:
    """``vtkio.write_vtk`` one value at a time: the reference its bulk
    formatting must match byte for byte."""
    def fmt(x):
        return f"{x:.16e}"

    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("stokesbiot fields\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_nodes} double\n")
        for x, y in mesh.nodes:
            f.write(f"{fmt(x)} {fmt(y)} {fmt(0.0)}\n")
        f.write(f"CELLS {mesh.n_tris} {4 * mesh.n_tris}\n")
        for i, j, k in mesh.tris:
            f.write(f"3 {i} {j} {k}\n")
        f.write(f"CELL_TYPES {mesh.n_tris}\n")
        for _ in range(mesh.n_tris):
            f.write("5\n")
        for tag, n, data in (("POINT_DATA", mesh.n_nodes, point_data),
                             ("CELL_DATA", mesh.n_tris, cell_data)):
            if not data:
                continue
            f.write(f"{tag} {n}\n")
            for name, arr in data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 1:
                    f.write(f"SCALARS {name} double 1\n")
                    f.write("LOOKUP_TABLE default\n")
                    for v in arr:
                        f.write(fmt(v) + "\n")
                else:
                    f.write(f"VECTORS {name} double\n")
                    for row in arr:
                        z = row[2] if len(row) > 2 else 0.0
                        f.write(f"{fmt(row[0])} {fmt(row[1])} {fmt(z)}\n")


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


def constraints_node_by_node(spaces: dict, offsets: dict, bcs: list):
    """The essential conditions of ``bcs`` built one tagged edge and one node
    at a time, as a reference for ``solver.build_constraints``.

    Returns ``(fixed, pairs, normals, values)`` with ``values(t)`` the data
    on ``fixed``, each full node's value taken at that node alone.
    """
    full, normal, fixed = {}, {}, set()      # dof_x -> (dof_y, point, fn) / (dof_y, normals)
    for bc in bcs:
        space, off = spaces[bc.field], offsets[bc.field]
        mesh = space.mesh
        for be in mesh.boundary_edge_ids(bc.tags):
            e = mesh.bedge_edge_ids()[be]
            if isinstance(bc, FluxBC):
                fixed.update((off + space.edge_dofs([e])).ravel().tolist())
                continue
            a, b = mesh.bedges[be]
            nodes = [(space.vertex_dofs([v])[0], mesh.nodes[v]) for v in (a, b)]
            if space.scalar_name == "P2":
                nodes.append((space.edge_dofs([e])[0], 0.5 * (mesh.nodes[a] + mesh.nodes[b])))
            for (dx, dy), p in nodes:
                dx, dy = off + int(dx), off + int(dy)
                if not bc.normal_only:
                    full[dx] = (dy, p, bc.value)
                    normal.pop(dx, None)
                elif dx not in full:
                    normal.setdefault(dx, (dy, []))[1].append(mesh.bedge_normals()[be])
    pairs, normals = [], []
    for dx, (dy, ns) in sorted(normal.items()):
        base = ns[0] / np.linalg.norm(ns[0])
        if any(abs(base[0] * n[1] - base[1] * n[0]) > 1e-8 * np.linalg.norm(n) for n in ns[1:]):
            fixed.update((dx, dy))
        else:
            mean = np.mean(ns, axis=0)
            pairs.append((dx, dy))
            normals.append(mean / np.linalg.norm(mean))
            fixed.add(dx)
    fixed.update(d for dx, (dy, _, _) in full.items() for d in (dx, dy))
    fixed = np.array(sorted(fixed), dtype=np.int64)

    def values(t):
        g = np.zeros(len(fixed))
        for dx, (dy, p, fn) in full.items():
            g[np.searchsorted(fixed, [dx, dy])] = np.asarray(fn(p[None, :], t))[0]
        return g

    return (fixed, np.array(pairs, dtype=np.int64).reshape(-1, 2),
            np.array(normals, dtype=float).reshape(-1, 2), values)
