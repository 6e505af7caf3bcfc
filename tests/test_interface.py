import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesbiot.interface import (GeometryMismatchError, common_refinement, project_to_polyline,
                                  segment_quadrature, tangential_permeability)
from stokesbiot.mesh import (Mesh2D, apply_domain_map, build_fracture_domain, build_structured,
                             reservoir_domain_map)

TAGS = {"left": "left", "right": "right", "bottom": "bottom", "top": "top"}


def flat_pair(n_f, n_p):
    fluid = build_structured((0, 1, 0, 1), n_f, n_f, "fluid", {**TAGS, "bottom": "interface"})
    poro = build_structured((0, 1, -1, 0), n_p, n_p, "poro", {**TAGS, "top": "interface"})
    return fluid, poro


def overlay_oracle(n_f, n_p):
    """Brute-force merge of the two 1D breakpoint sets on [0, 1]."""
    breaks = sorted(set(np.round(np.concatenate([np.linspace(0, 1, n_f + 1),
                                                 np.linspace(0, 1, n_p + 1)]), 12)))
    return len(breaks) - 1


def test_matching_grids_one_segment_per_edge():
    pairing = common_refinement(*flat_pair(8, 8))
    assert pairing.n_segments == 8
    assert pairing.length == pytest.approx(1.0, abs=1e-12)


def test_five_vs_eight_overlay():
    pairing = common_refinement(*flat_pair(5, 8))
    oracle = overlay_oracle(5, 8)
    assert pairing.n_segments == oracle
    assert 8 <= pairing.n_segments <= 12
    assert pairing.length == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(n_f=st.integers(2, 17), n_p=st.integers(2, 17))
def test_overlay_matches_oracle(n_f, n_p):
    pairing = common_refinement(*flat_pair(n_f, n_p))
    assert pairing.n_segments == overlay_oracle(n_f, n_p)
    assert pairing.length == pytest.approx(1.0, abs=1e-10)


def test_overlay_symmetric():
    f13, p8 = flat_pair(13, 8)
    a = common_refinement(f13, p8)
    # swapping roles: tag the poro mesh bottom as master side instead
    lengths_a = np.sort(a.seg_length)
    f8, p13 = flat_pair(8, 13)
    b = common_refinement(f8, p13)
    assert a.n_segments == b.n_segments
    assert np.allclose(lengths_a, np.sort(b.seg_length), atol=1e-12)


def test_normals_opposite_and_tangent():
    pairing = common_refinement(*flat_pair(5, 8))
    assert np.allclose(pairing.seg_n_f, [0.0, -1.0], atol=1e-14)
    assert np.allclose(pairing.seg_n_p, [0.0, 1.0], atol=1e-14)
    dots = np.einsum("kd,kd->k", pairing.seg_n_f, pairing.seg_n_p)
    assert np.allclose(dots, -1.0, atol=1e-14)
    assert np.allclose(np.abs(pairing.seg_tau @ np.array([1.0, 0.0])), 1.0, atol=1e-14)


def test_mismatched_traces_rejected():
    fluid = build_structured((0, 1, 0.1, 1.1), 4, 4, "fluid", {**TAGS, "bottom": "interface"})
    poro = build_structured((0, 1, -1, 0), 4, 4, "poro", {**TAGS, "top": "interface"})
    with pytest.raises(GeometryMismatchError):
        common_refinement(fluid, poro)


def test_two_interface_chains_rejected():
    fluid = build_structured((0, 1, 0, 1), 4, 4, "fluid", {**TAGS, "bottom": "interface"})
    poro = build_structured((0, 1, -1, 0), 4, 4, "poro",
                            {**TAGS, "top": "interface", "bottom": "interface"})
    with pytest.raises(GeometryMismatchError, match="not a single open chain"):
        common_refinement(fluid, poro)


def test_closed_interface_loop_rejected():
    fluid = build_structured((0, 1, 0, 1), 4, 4, "fluid", {**TAGS, "bottom": "interface"})
    poro = build_structured((0, 1, -1, 0), 4, 4, "poro", dict.fromkeys(TAGS, "interface"))
    with pytest.raises(GeometryMismatchError, match="not a single open chain"):
        common_refinement(fluid, poro)


def test_branched_interface_rejected():
    """Two triangles that touch at one node: four trace edges meet there."""
    fluid = build_structured((0, 1, 0, 1), 4, 4, "fluid", {**TAGS, "bottom": "interface"})
    poro = Mesh2D(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                  tris=np.array([[0, 1, 2], [0, 3, 4]]), tri_tags=np.array(["poro"] * 2),
                  bedges=np.array([[0, 1], [1, 2], [2, 0], [0, 3], [3, 4], [4, 0]]),
                  bedge_tags=np.array(["interface"] * 6))
    with pytest.raises(GeometryMismatchError, match="branches"):
        common_refinement(fluid, poro)


def test_missing_interface_tag_rejected():
    fluid = build_structured((0, 1, 0, 1), 4, 4, "fluid", TAGS)
    poro = build_structured((0, 1, -1, 0), 4, 4, "poro", {**TAGS, "top": "interface"})
    with pytest.raises(GeometryMismatchError):
        common_refinement(fluid, poro)


def test_segment_quadrature_preimages_and_length():
    pairing = common_refinement(*flat_pair(5, 8))
    sq = segment_quadrature(pairing, 3)
    # the two sides' quadrature points coincide (also asserted inside);
    # the weights add up to the interface length
    np.testing.assert_allclose(sq.points_f, sq.points_p, rtol=0, atol=1e-15)
    assert sq.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_segment_quadrature_midpoint_rule():
    pairing = common_refinement(*flat_pair(4, 4))
    sq = segment_quadrature(pairing, 1)
    assert sq.weights.shape[1] == 1
    assert np.allclose(sq.weights[:, 0], pairing.seg_length)
    assert np.allclose(sq.points_p[:, 0, 1], 0.0, atol=1e-14)


def test_line_integral_of_x():
    pairing = common_refinement(*flat_pair(5, 8))
    sq = segment_quadrature(pairing, 4)
    val = np.sum(sq.weights * sq.points_p[:, :, 0])
    assert val == pytest.approx(0.5, abs=1e-12)


def test_cross_mesh_monomial_products_exact():
    """Traces from both sides integrate products exactly (mortar consistency)."""
    pairing = common_refinement(*flat_pair(5, 8))
    sq = segment_quadrature(pairing, 7)
    x = sq.points_p[:, :, 0]
    for (i, j) in [(0, 0), (1, 1), (2, 1), (3, 2), (2, 3)]:
        val = np.sum(sq.weights * x**i * x**j)
        exact = 1.0 / (i + j + 1)
        assert val == pytest.approx(exact, rel=1e-12)


def test_fracture_pairing_arclength_and_normals():
    fluid, poro = build_fracture_domain(0.05)
    pairing = common_refinement(fluid, poro)
    n_trace = len(poro.boundary_edge_ids("interface"))
    assert pairing.n_segments == n_trace       # shared polyline: 1 to 1
    dots = np.einsum("kd,kd->k", pairing.seg_n_f, pairing.seg_n_p)
    assert np.all(dots < -1 + 1e-10)
    # half-ellipse perimeter with semi-axes (sqrt(0.5), 0.05)
    from scipy.special import ellipe

    a, b = np.sqrt(0.5), 0.05
    perimeter = 2 * a * ellipe(1 - (b / a) ** 2)
    assert pairing.length == pytest.approx(perimeter, rel=5e-3)


def mapped_fracture(resolution):
    return tuple(apply_domain_map(m, reservoir_domain_map()) for m in build_fracture_domain(resolution))


def test_poro_polyline_vertices_are_mesh_nodes():
    """The poro trace is parameterized by the mesh nodes themselves: sorted
    along the interface, its edges' parameters are the cumulative lengths of
    the edges, starting at exactly 0."""
    pairing = common_refinement(*mapped_fracture(0.05))
    poro = pairing.poro
    order = np.argsort(poro.s.min(axis=1))
    ids = pairing.mesh_p.bedges[poro.bedges[order]]
    assert np.all(np.isin(ids[:-1], ids[1:]).any(axis=1))    # consecutive edges share a node
    cum = np.cumsum(np.linalg.norm(poro.b - poro.a, axis=1)[order])
    np.testing.assert_array_equal(poro.s.min(axis=1)[order], np.concatenate([[0.0], cum[:-1]]))
    np.testing.assert_array_equal(poro.s.max(axis=1)[order], cum)


def shuffled(mesh, seed):
    """The same mesh with its boundary edges stored in another order."""
    perm = np.random.default_rng(seed).permutation(len(mesh.bedges))
    return Mesh2D(nodes=mesh.nodes, tris=mesh.tris, tri_tags=mesh.tri_tags,
                  bedges=mesh.bedges[perm], bedge_tags=mesh.bedge_tags[perm])


def segment_table(pairing):
    """Per segment: node ids of its fluid and poro edges, parameters, length."""
    return (pairing.mesh_f.bedges[pairing.fluid.bedges[pairing.seg_fluid]],
            pairing.mesh_p.bedges[pairing.poro.bedges[pairing.seg_poro]],
            pairing.seg_t_f, pairing.seg_t_p, pairing.seg_length)


@pytest.mark.parametrize("meshes", [flat_pair(5, 8), mapped_fracture(0.08)], ids=["flat", "fracture"])
def test_segment_table_independent_of_edge_order(meshes):
    fluid, poro = meshes
    base = segment_table(common_refinement(fluid, poro))
    for pair in ((shuffled(fluid, 1), poro), (fluid, shuffled(poro, 2)),
                 (shuffled(fluid, 3), shuffled(poro, 4))):
        for got, want in zip(segment_table(common_refinement(*pair)), base):
            np.testing.assert_array_equal(got, want)


def test_tangential_permeability_per_segment():
    pairing = common_refinement(*flat_pair(4, 4))
    K = np.array([[3.0, 1.0], [1.0, 2.0]])
    Kj = tangential_permeability(pairing, K)
    # flat interface: tau = (+-1, 0) so K_j = K_xx
    assert np.allclose(Kj, 3.0, atol=1e-13)
    m = pairing.mesh_p.n_tris
    Kcells = np.broadcast_to(K, (m, 2, 2))
    assert np.allclose(tangential_permeability(pairing, Kcells), 3.0, atol=1e-13)


def check_projection(points, a, b):
    """``project_to_polyline`` against a point-by-point, segment-by-segment
    search in plain floats."""
    seg, t, dist = project_to_polyline(points, a, b)
    scale = max(1.0, float(np.abs(points).max()), float(np.abs(a).max()), float(np.abs(b).max()))
    for p, k, tk, dk in zip(points, seg, t, dist):
        best = np.inf
        for (ax, ay), (bx, by) in zip(a.tolist(), b.tolist()):
            dx, dy = bx - ax, by - ay
            u = min(1.0, max(0.0, ((p[0] - ax) * dx + (p[1] - ay) * dy) / (dx * dx + dy * dy)))
            best = min(best, math.hypot(p[0] - ax - u * dx, p[1] - ay - u * dy))
        assert 0.0 <= tk <= 1.0
        assert dk == pytest.approx(best, abs=1e-12 * scale)
        foot = a[k] + tk * (b[k] - a[k])
        assert np.linalg.norm(p - foot) == pytest.approx(dk, abs=1e-12 * scale)


coords = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(vertices=st.lists(st.tuples(coords, coords), min_size=2, max_size=8),
       points=st.lists(st.tuples(coords, coords), min_size=1, max_size=12))
def test_project_to_polyline_matches_brute_force(vertices, points):
    poly = np.array(vertices)
    a, b = poly[:-1], poly[1:]
    keep = np.linalg.norm(b - a, axis=1) > 1e-6
    if not keep.any():
        return
    check_projection(np.array(points), a[keep], b[keep])


def test_project_to_polyline_on_mapped_fracture_trace():
    fluid, poro = (apply_domain_map(m, reservoir_domain_map()) for m in build_fracture_domain(0.08))
    ends = poro.nodes[poro.bedges[poro.boundary_edge_ids("interface")]]
    fluid_ends = fluid.nodes[fluid.bedges[fluid.boundary_edge_ids("interface")]].reshape(-1, 2)
    rng = np.random.default_rng(7)
    lo, hi = poro.nodes.min(axis=0), poro.nodes.max(axis=0)
    points = np.vstack([fluid_ends, lo + rng.random((20, 2)) * (hi - lo)])
    check_projection(points, ends[:, 0], ends[:, 1])
    # the fluid trace lies on the poro trace
    assert project_to_polyline(fluid_ends, ends[:, 0], ends[:, 1])[2].max() < 1e-12 * np.abs(hi).max()
