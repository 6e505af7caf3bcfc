"""Result emitters: legacy ASCII VTK, convergence CSV tables, manifests.

All emitters format numbers explicitly so output is byte-reproducible for
identical inputs.
"""

from __future__ import annotations

import json

import numpy as np

from .mesh import Mesh2D

CSV_HEADER = ("h,e_uf_H1,rate,e_pf_L2,rate,e_up_L2,rate,"
              "e_pp_LinfL2,rate,e_eta_LinfH1,rate")


def write_vtk(path, mesh: Mesh2D, point_data: dict | None = None,
              cell_data: dict | None = None) -> None:
    """Legacy ASCII VTK unstructured grid of triangles (cell type 5)."""
    point_data = point_data or {}
    cell_data = cell_data or {}
    for name, arr in point_data.items():
        if len(arr) != mesh.n_nodes:
            raise ValueError(f"point data {name!r} has length {len(arr)}, mesh has {mesh.n_nodes} nodes")
    for name, arr in cell_data.items():
        if len(arr) != mesh.n_tris:
            raise ValueError(f"cell data {name!r} has length {len(arr)}, mesh has {mesh.n_tris} cells")

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

        def write_section(tag, n, data):
            if not data:
                return
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

        write_section("POINT_DATA", mesh.n_nodes, point_data)
        write_section("CELL_DATA", mesh.n_tris, cell_data)


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
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")


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
    import os

    mesh_f = system.spaces["uf"].mesh
    mesh_p = system.spaces["pp"].mesh
    for state in states:
        fluid, poro = scenario_fields(system, state)
        stamp = f"{int(round(state.t)):06d}"
        write_vtk(os.path.join(outdir, f"{name}_fluid_{stamp}.vtk"), mesh_f,
                  point_data=fluid["point"], cell_data=fluid["cell"])
        write_vtk(os.path.join(outdir, f"{name}_poro_{stamp}.vtk"), mesh_p,
                  point_data=poro["point"], cell_data=poro["cell"])
