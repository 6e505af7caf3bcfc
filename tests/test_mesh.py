import hashlib
import math

import numpy as np
import pytest

from stokesbiot.mesh import (FRACTURE_HALF_LENGTH, Mesh2D, _mesh_from_rows, apply_domain_map,
                             build_fracture_domain, build_structured, fracture_half_width,
                             polyline_hausdorff, reservoir_domain_map, write_mesh)

from helpers import read_mesh_file

TAGS = {"left": "left", "right": "right", "bottom": "bottom", "top": "top"}


def test_structured_counts():
    mesh = build_structured((0, 1, 0, 1), 8, 8, "fluid", TAGS)
    assert mesh.n_nodes == 81
    assert mesh.n_tris == 128
    assert len(mesh.bedges) == 32
    assert set(mesh.tri_tags) == {"fluid"}


@pytest.mark.parametrize("nx,ny", [(0, 8), (8, 0), (-1, 3)])
def test_structured_bad_counts(nx, ny):
    with pytest.raises(ValueError):
        build_structured((0, 1, 0, 1), nx, ny, "fluid", TAGS)


def test_structured_degenerate_rect():
    with pytest.raises(ValueError):
        build_structured((0, 0, 0, 1), 4, 4, "fluid", TAGS)


def test_max_edge_length_exact():
    mesh = build_structured((0, 2, 0, 1), 4, 8, "fluid", TAGS)
    dx, dy = 2 / 4, 1 / 8
    assert mesh.h_max() == pytest.approx(max(dx, dy, math.hypot(dx, dy)), abs=0)


def test_boundary_tags_partition():
    mesh = build_structured((0, 1, 0, 1), 5, 3, "fluid", TAGS)
    assert len(mesh.bedges) == 2 * (5 + 3)
    for tag, count in (("left", 3), ("right", 3), ("bottom", 5), ("top", 5)):
        assert len(mesh.boundary_edge_ids(tag)) == count


def test_positive_areas_and_validate():
    mesh = build_structured((0, 1, -1, 0), 6, 6, "poro", TAGS)
    assert np.all(mesh.signed_areas() > 0)
    mesh.validate()


def test_nonmatching_interface_nodes_do_not_coincide():
    fluid = build_structured((0, 1, 0, 1), 13, 13, "fluid", TAGS)
    poro = build_structured((0, 1, -1, 0), 8, 8, "poro", TAGS)
    xf = np.unique(fluid.nodes[np.abs(fluid.nodes[:, 1]) < 1e-14][:, 0])
    xp = np.unique(poro.nodes[np.abs(poro.nodes[:, 1]) < 1e-14][:, 0])
    interior_f = xf[(xf > 1e-12) & (xf < 1 - 1e-12)]
    common = {round(v, 12) for v in interior_f} & {round(v, 12) for v in xp}
    assert not common


@pytest.mark.parametrize("collapsed_row", [0, 2])
def test_collapsed_row_becomes_one_node(collapsed_row):
    row_x = np.array([[0.0, 1.0, 2.0]] * 3)
    row_x[collapsed_row] = 1.0
    mesh = _mesh_from_rows(np.array([0.0, 1.0, 2.0]), row_x, "fluid", TAGS)   # validates
    assert mesh.n_nodes == 7
    assert np.sum(mesh.nodes[:, 1] == collapsed_row) == 1      # the row's y is its index
    assert mesh.n_tris == 6
    assert np.all([len(set(t)) == 3 for t in mesh.tris.tolist()])
    assert np.all(mesh.bedges[:, 0] != mesh.bedges[:, 1])
    side = "top" if collapsed_row == 2 else "bottom"
    assert side not in set(mesh.bedge_tags) and len(mesh.bedges) == 6


# -- fracture geometry -------------------------------------------------------


def test_fracture_boundary_curve_values():
    assert fracture_half_width(np.array([0.0]))[0] == pytest.approx(math.sqrt(0.5), abs=1e-14)
    assert fracture_half_width(np.array([0.05]))[0] == 0.0
    assert fracture_half_width(np.array([-0.05]))[0] == 0.0
    assert FRACTURE_HALF_LENGTH == pytest.approx(0.70711, abs=1e-5)


def test_fracture_domain_containment_and_traces():
    fluid, poro = build_fracture_domain(0.05)
    x, y = fluid.nodes[:, 0], fluid.nodes[:, 1]
    assert np.all(x**2 <= 200 * (0.05 - y) * (0.05 + y) + 1e-10)
    assert np.all(fluid.signed_areas() > 0)
    assert np.all(poro.signed_areas() > 0)
    # both traces sample the same curve
    fi = fluid.nodes[np.unique(fluid.bedges[fluid.boundary_edge_ids("interface")])]
    pi = poro.nodes[np.unique(poro.bedges[poro.boundary_edge_ids("interface")])]
    assert polyline_hausdorff(fi, pi) < 1e-10 * math.sqrt(5.0)


def _digest(a):
    """First 16 hex digits of the SHA-256 of an integer or string array."""
    a = np.asarray(a)
    data = ("\n".join(a.tolist()).encode() if a.dtype.kind == "U"
            else np.ascontiguousarray(a, dtype="<i8").tobytes())
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("resolution,pinned", [
    (0.05, [(722, 1350, 92, "5c699371b0723f45", "4dfc36246732bae4", "c5ac5824cdc67929", "583f6ff34cf03f4d"),
            (1785, 3360, 208, "d42435f2cd0ec89e", "b76d913eaafdfa6b", "06c45280607933e5", "d74f71d492d1d1de")]),
    (0.2, [(57, 88, 24, "94b06d2b746b02d0", "67319c4d7be0949e", "0e609af9620f33e6", "03bbbacc23862896"),
           (138, 220, 54, "67502c13b09f85b3", "ea0139ef29efdb37", "6e7265612b745969", "af383cfb789950c5")]),
])
def test_fracture_domain_connectivity_pinned(resolution, pinned):
    # connectivity and tags of (fluid, poro), integer and string arrays only
    for mesh, pin in zip(build_fracture_domain(resolution), pinned):
        got = (mesh.n_nodes, mesh.n_tris, len(mesh.bedges),
               *(_digest(a) for a in (mesh.tris, mesh.bedges, mesh.tri_tags, mesh.bedge_tags)))
        assert got == pin


def test_fracture_domain_too_coarse():
    with pytest.raises(ValueError):
        build_fracture_domain(2.0)
    with pytest.raises(ValueError):
        build_fracture_domain(-0.1)


def test_flat_interface_traces_identical():
    fluid = build_structured((0, 1, 0, 1), 8, 8, "fluid",
                             {**TAGS, "bottom": "interface"})
    poro = build_structured((0, 1, -1, 0), 8, 8, "poro",
                            {**TAGS, "top": "interface"})
    fi = fluid.nodes[np.unique(fluid.bedges[fluid.boundary_edge_ids("interface")])]
    pi = poro.nodes[np.unique(poro.bedges[poro.boundary_edge_ids("interface")])]
    assert polyline_hausdorff(fi, pi) == 0.0


# -- domain map ---------------------------------------------------------------


def test_domain_map_origin():
    dmap = reservoir_domain_map()
    out = dmap.fn(np.array([[0.0, 0.0]]))
    assert out[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert out[0, 1] == pytest.approx(5.0, abs=1e-12)


def test_domain_map_preserves_x_and_counts():
    mesh = build_structured((0, 1, -1, 1), 6, 12, "poro", TAGS)
    mapped = apply_domain_map(mesh, reservoir_domain_map())
    assert np.allclose(mapped.nodes[:, 0], mesh.nodes[:, 0])
    assert mapped.n_nodes == mesh.n_nodes
    assert mapped.n_tris == mesh.n_tris
    assert np.array_equal(mapped.tris, mesh.tris)
    assert np.array_equal(mapped.bedge_tags, mesh.bedge_tags)
    assert np.all(mapped.signed_areas() > 0)


def test_domain_map_jacobian_vs_fd():
    dmap = reservoir_domain_map()
    pts = np.array([[0.3, -0.4], [0.8, 0.9], [0.05, 0.0]])
    J = dmap.jacobian(pts)
    h = 1e-6
    for d, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        fd = (dmap.fn(pts + e) - dmap.fn(pts - e)) / (2 * h)
        assert np.allclose(J[:, :, d], fd, atol=1e-8)


def test_degenerate_map_rejected():
    from stokesbiot.mesh import DomainMap

    collapse = DomainMap(fn=lambda p: np.column_stack([p[:, 0], 0 * p[:, 1]]),
                         jacobian=lambda p: np.broadcast_to(np.diag([1.0, 0.0]), (len(p), 2, 2)))
    mesh = build_structured((0, 1, 0, 1), 2, 2, "fluid", TAGS)
    with pytest.raises(ValueError):
        apply_domain_map(mesh, collapse)


def test_mapped_example_mesh_min_area_positive():
    _, poro = build_fracture_domain(0.08)
    mapped = apply_domain_map(poro, reservoir_domain_map())
    assert mapped.signed_areas().min() > 0


# -- mesh file output ----------------------------------------------------------


def test_mesh_roundtrip(tmp_path):
    mesh = build_structured((0, 1, -1, 0), 5, 4, "poro", TAGS)
    path = tmp_path / "m.mesh"
    write_mesh(mesh, path)
    back = read_mesh_file(path)
    assert np.array_equal(back.tris, mesh.tris)
    assert np.array_equal(back.bedges, mesh.bedges)
    assert np.array_equal(back.bedge_tags, mesh.bedge_tags)
    assert np.allclose(back.nodes, mesh.nodes, atol=0)


def test_fracture_roundtrip(tmp_path):
    fluid, _ = build_fracture_domain(0.06)
    path = tmp_path / "f.mesh"
    write_mesh(fluid, path)
    back = read_mesh_file(path)
    assert np.array_equal(back.tris, fluid.tris)
    assert np.allclose(back.nodes, fluid.nodes, atol=0)


def test_read_edge_of_three_cells():
    # edge (0, 1) borders all three triangles; each area is positive and
    # every other edge is a tagged boundary edge
    mesh = Mesh2D(nodes=np.array([[0, 0], [1, 0], [0, 1], [0, -1], [0.5, 1]], dtype=float),
                  tris=np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]), tri_tags=np.array(["poro"] * 3),
                  bedges=np.array([[1, 2], [2, 0], [0, 3], [3, 1], [1, 4], [4, 0]]),
                  bedge_tags=np.array(["b"] * 6))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) borders 3 cells"):
        mesh.validate()


def _bedge_owner_by_dict(mesh):
    """The per-edge dictionary lookup that ``bedge_owner`` used to make."""
    lookup = {tuple(e): i for i, e in enumerate(mesh.edges)}
    ecells = mesh.edge_cells()
    owner, local, eid = [], [], []
    for a, b in mesh.bedges:
        e = lookup[(min(a, b), max(a, b))]
        owner.append(ecells[e][0])
        local.append(int(np.nonzero(mesh.cell_edges[ecells[e][0]] == e)[0][0]))
        eid.append(e)
    return np.array(owner), np.array(local), np.array(eid)


def test_bedge_owner_matches_dict_lookup():
    tags = {"left": "l", "right": "r", "bottom": "b", "top": "t"}
    meshes = [build_structured((0, 1, 0, 1), 5, 3, "fluid", tags),
              *build_fracture_domain(0.1),
              *(apply_domain_map(m, reservoir_domain_map()) for m in build_fracture_domain(0.2))]
    for mesh in meshes:
        owner, local = mesh.bedge_owner()
        want = _bedge_owner_by_dict(mesh)
        assert np.array_equal(owner, want[0]) and np.array_equal(local, want[1])
        assert np.array_equal(mesh.bedge_edge_ids(), want[2])
        # the owner's local edge is the boundary edge, opposite its local vertex
        tri = mesh.tris[owner]
        ends = np.sort(np.stack([tri[np.arange(len(tri)), (local + 1) % 3],
                                 tri[np.arange(len(tri)), (local + 2) % 3]], axis=1), axis=1)
        assert np.array_equal(ends, np.sort(mesh.bedges, axis=1))


def test_bedge_owner_rejects_bad_boundary_edges():
    from stokesbiot.mesh import Mesh2D

    tags = {"left": "l", "right": "r", "bottom": "b", "top": "t"}
    good = build_structured((0, 1, 0, 1), 2, 2, "fluid", tags)
    for edge, message in (([0, 8], "not a mesh edge"), ([0, 4], "is interior")):
        mesh = Mesh2D(nodes=good.nodes, tris=good.tris, tri_tags=good.tri_tags,
                      bedges=np.vstack([good.bedges, edge]),
                      bedge_tags=np.append(good.bedge_tags, "x"))
        with pytest.raises(ValueError, match=message):
            mesh.bedge_owner()
