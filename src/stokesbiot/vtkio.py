"""Result emitters: legacy ASCII VTK, convergence CSV tables, manifests.

All emitters format numbers explicitly so output is byte-reproducible for
identical inputs.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .mesh import Mesh2D

CSV_HEADER = ("h,e_uf_H1,rate,e_pf_L2,rate,e_up_L2,rate,"
              "e_pp_LinfL2,rate,e_eta_LinfH1,rate")


def write_output(path, text: str) -> None:
    """Write ``text`` to ``path`` over the file's old bytes, then cut it to
    the new length: rewriting an existing file in place costs a fraction of
    truncating it first, which frees its blocks before writing them again."""
    data = memoryview(text.encode())
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
        os.ftruncate(fd, size)
    finally:
        os.close(fd)


_VECTOR_ROW = {2: "%.16e %.16e 0.0000000000000000e+00\n", 3: "%.16e %.16e %.16e\n"}


def _vtk_geometry(mesh: Mesh2D) -> str:
    """Header, POINTS, CELLS and CELL_TYPES text of ``mesh``, formatted once
    per mesh (meshes are immutable)."""
    if "vtk_geometry" not in mesh._cache:
        n, m = mesh.n_nodes, mesh.n_tris
        mesh._cache["vtk_geometry"] = "".join([
            "# vtk DataFile Version 3.0\nstokesbiot fields\nASCII\nDATASET UNSTRUCTURED_GRID\n",
            f"POINTS {n} double\n", _VECTOR_ROW[2] * n % tuple(mesh.nodes.ravel().tolist()),
            f"CELLS {m} {4 * m}\n", "3 %d %d %d\n" * m % tuple(mesh.tris.ravel().tolist()),
            f"CELL_TYPES {m}\n", "5\n" * m])
    return mesh._cache["vtk_geometry"]


def write_vtk(path, mesh: Mesh2D, point_data: dict | None = None,
              cell_data: dict | None = None) -> None:
    """Legacy ASCII VTK unstructured grid of triangles (cell type 5).

    Each array is a scalar field (n,) or a vector field (n, 2) or (n, 3),
    written with z = 0 for two columns; every number as ``f"{x:.16e}"``.
    """
    parts = [_vtk_geometry(mesh)]
    for tag, n, what, data in (("POINT_DATA", mesh.n_nodes, "nodes", point_data),
                               ("CELL_DATA", mesh.n_tris, "cells", cell_data)):
        if not data:
            continue
        parts.append(f"{tag} {n}\n")
        for name, arr in data.items():
            if len(arr) != n:
                raise ValueError(f"{tag} {name!r} has length {len(arr)}, mesh has {n} {what}")
            arr = np.asarray(arr, dtype=float)
            if arr.ndim == 1:
                head, row = f"SCALARS {name} double 1\nLOOKUP_TABLE default\n", "%.16e\n"
            elif arr.ndim == 2 and arr.shape[1] in _VECTOR_ROW:
                head, row = f"VECTORS {name} double\n", _VECTOR_ROW[arr.shape[1]]
            else:
                raise ValueError(f"{tag} {name!r} has shape {arr.shape}, "
                                 "expected (n,), (n, 2) or (n, 3)")
            parts += [head, row * n % tuple(arr.ravel().tolist())]
    write_output(path, "".join(parts))


def convergence_csv(table) -> str:
    """CSV with the five tracked error norms and their observed rates."""
    from .verify import NORM_KEYS

    rates = table.rates()
    lines = [CSV_HEADER]
    for i, row in enumerate(table.rows):
        cells = [f"{row.h:.4e}"]
        for k in NORM_KEYS:
            cells.append(f"{row.rel_errors[k]:.3e}")
            cells.append("" if i == 0 else f"{rates[k][i - 1]:.2f}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_manifest(path, payload: dict) -> None:
    write_output(path, json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)}")


# ---------------------------------------------------------------------------
# scenario field extraction


def scenario_fields(system, state):
    """Point / cell data dictionaries for the fluid and poro meshes."""
    mesh_f, mesh_p = system.spaces["uf"].mesh, system.spaces["pp"].mesh

    uf = system.view(state.X, "uf")
    vel_f = uf.reshape(-1, 2)[: mesh_f.n_nodes]       # vertex part of P2 / MINI
    pf = system.view(state.X, "pf")[: mesh_f.n_nodes]

    eta = system.view(state.X, "eta").reshape(-1, 2)[: mesh_p.n_nodes]
    from .scenarios import _rt_at_centroids, cell_mean_pressure
    cell_pp = cell_mean_pressure(system, state)
    up_c = _rt_at_centroids(system.spaces["up"], system.view(state.X, "up"))

    fluid = {"point": {"velocity": vel_f, "pressure_f": pf}, "cell": {}}
    poro = {"point": {"displacement": eta},
            "cell": {"pressure_p": cell_pp, "darcy_velocity": up_c,
                     "darcy_speed": np.linalg.norm(up_c, axis=1)}}
    return fluid, poro


def write_scenario_snapshots(outdir, name, system, states) -> None:
    mesh_f = system.spaces["uf"].mesh
    mesh_p = system.spaces["pp"].mesh
    for state in states:
        fluid, poro = scenario_fields(system, state)
        stamp = f"{int(round(state.t)):06d}"
        write_vtk(os.path.join(outdir, f"{name}_fluid_{stamp}.vtk"), mesh_f,
                  point_data=fluid["point"], cell_data=fluid["cell"])
        write_vtk(os.path.join(outdir, f"{name}_poro_{stamp}.vtk"), mesh_p,
                  point_data=poro["point"], cell_data=poro["cell"])
