import numpy as np
import pytest

from stokesbiot.mesh import Mesh2D
from stokesbiot.quadrature import edge_rule, triangle_rule
from stokesbiot.spaces import make_space

from helpers import eval_basis

VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
MIDS = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])


def test_p1_nodal_delta():
    vals, _ = eval_basis("P1", VERTS)
    assert np.allclose(vals, np.eye(3), atol=1e-14)


def test_p2_nodal_delta():
    vals, _ = eval_basis("P2", np.vstack([VERTS, MIDS]))
    assert np.allclose(vals, np.eye(6), atol=1e-14)


@pytest.mark.parametrize("family", ["P1", "P2", "P1bubble"])
def test_partition_of_unity(family):
    pts = triangle_rule(4).points
    vals, grads = eval_basis(family, pts)
    if family == "P1bubble":
        vals, grads = vals[:3], grads[:3]   # the bubble is not part of the P1 partition
    assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-14)
    assert np.allclose(grads.sum(axis=0), 0.0, atol=1e-13)


def test_bubble_value_at_barycenter():
    vals, _ = eval_basis("P1bubble", np.array([[1 / 3, 1 / 3]]))
    assert vals[3, 0] == pytest.approx(1.0, abs=1e-14)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    pts = rng.dirichlet((1, 1, 1), size=5)[:, 1:]   # interior points
    h = 1e-6
    for family in ("P1", "P2", "P1bubble"):
        vals, grads = eval_basis(family, pts)
        for d, e in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
            vp, _ = eval_basis(family, pts + e)
            vm, _ = eval_basis(family, pts - e)
            fd = (vp - vm) / (2 * h)
            assert np.allclose(grads[:, :, d], fd, atol=1e-6)


def test_point_outside_reference_rejected():
    with pytest.raises(ValueError):
        eval_basis("P1", np.array([[1.2, 0.4]]))


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        eval_basis("P7", np.array([[0.3, 0.3]]))


# ---------------------------------------------------------------------------
# Raviart-Thomas bases, through the production path: make_space on one cell


def one_cell_space(family, verts):
    """``family`` on the mesh of the single counterclockwise triangle ``verts``."""
    mesh = Mesh2D(nodes=np.asarray(verts, dtype=float), tris=np.array([[0, 1, 2]]),
                  tri_tags=np.array(["poro"]), bedges=np.array([[0, 1], [1, 2], [2, 0]]),
                  bedge_tags=np.array(["a", "b", "c"]))
    mesh.validate()
    return make_space(mesh, family)


def edge_frames(space):
    """Per local edge: sorted endpoints (2, 2), unit global normal, sign of
    that normal against the outward one."""
    mesh = space.mesh
    v = mesh.nodes[mesh.tris[0]]
    frames = []
    for i in range(3):
        a, b = mesh.nodes[mesh.edges[mesh.cell_edges[0, i]]]
        t = b - a
        n = np.array([t[1], -t[0]]) / np.linalg.norm(t)
        ccw = v[(i + 2) % 3] - v[(i + 1) % 3]
        sign = 1.0 if n @ np.array([ccw[1], -ccw[0]]) > 0 else -1.0
        frames.append((np.array([a, b]), n, sign))
    return frames


def rt_values(space, phys_points):
    """Basis values (n_loc, q, 2) of a one-cell RT space at physical points."""
    return space.basis_values(np.array([0]), phys_points[None])[0]


def test_rt0_reference_normal_traces():
    """On edge j the normal trace of an edge-j basis function is nonzero
    (constant for RT0); every other basis function has zero trace there."""
    for family in ("RT0", "RT1"):
        space = one_cell_space(family, VERTS)
        per_edge = 1 if family == "RT0" else 2
        s = np.linspace(0.05, 0.95, 7)
        for j, (ends, n, _) in enumerate(edge_frames(space)):
            pts = ends[0] + s[:, None] * (ends[1] - ends[0])
            tr = np.einsum("iqd,d->iq", rt_values(space, pts), n)
            own = np.arange(per_edge * j, per_edge * (j + 1))
            others = np.setdiff1d(np.arange(space.n_loc), own)
            assert np.allclose(tr[others], 0.0, atol=1e-12)
            assert np.abs(tr[own]).max() > 0
            if family == "RT0":
                assert np.allclose(tr[j], tr[j, 0], atol=1e-12)
        if family == "RT0":
            _, divs = space.tabulate(triangle_rule(2))
            assert np.allclose(np.abs(divs), 2.0, atol=1e-12)


@pytest.mark.parametrize("order", [0, 1])
def test_rt_cell_basis_dof_duality(order):
    """The space's basis is nodal for its edge/interior moment dofs."""
    verts = np.array([[0.1, 0.0], [1.1, 0.3], [0.3, 0.9]])
    space = one_cell_space(f"RT{order}", verts)
    eq = edge_rule(9)
    nd = space.n_loc
    F = np.zeros((nd, nd))
    row = 0
    for ends, n, _ in edge_frames(space):
        t = ends[1] - ends[0]
        L = np.linalg.norm(t)
        pts = ends[0] + eq.points[:, None] * t[None, :]
        flux = np.einsum("nqd,d->nq", rt_values(space, pts), n)
        F[row] = flux @ (eq.weights * L)
        row += 1
        if order == 1:
            F[row] = flux @ (eq.weights * L * (2 * eq.points - 1))
            row += 1
    if order == 1:
        tq = triangle_rule(6)
        area = space.geometry.areas[0]
        vals, _ = space.tabulate(tq)
        mean = np.einsum("nqd,q->nd", vals[0], tq.weights * 2 * area) / area
        F[6], F[7] = mean[:, 0], mean[:, 1]
    assert np.allclose(F, np.eye(nd), atol=1e-11)


def piola_reference_rt0(verts, ref_points):
    """Piola image J (x - v_i) / det J of the reference RT0 fields, whose
    flux through reference edge i is 1 (outward) and 0 through the others."""
    J = np.stack([verts[1] - verts[0], verts[2] - verts[0]], axis=-1)
    det = np.linalg.det(J)
    ref = ref_points[None, :, :] - VERTS[:, None, :]         # (3, q, 2)
    return np.einsum("ab,iqb->iqa", J, ref) / det, np.full((3, len(ref_points)), 2.0 / det)


def test_piola_identity_map_is_identity():
    """On the reference cell the RT0 basis is x - v_i up to orientation signs."""
    space = one_cell_space("RT0", VERTS)
    rule = triangle_rule(2)
    vals, divs = space.tabulate(rule)
    signs = np.array([sign for _, _, sign in edge_frames(space)])
    ref_vals = rule.points[None, :, :] - VERTS[:, None, :]
    assert np.allclose(vals[0], signs[:, None, None] * ref_vals, atol=1e-13)
    assert np.allclose(divs[0], 2.0 * signs[:, None], atol=1e-13)


def test_piola_divergence_scaling():
    """Scaling the cell by s scales the edge-dof basis values by 1 / s and
    their divergences by 1 / s^2 (det J = s^2), at the same reference
    points.  Interior mean-value dofs scale by 1 / s themselves, so the RT1
    interior basis functions carry an extra factor s."""
    s = 2.5
    rule = triangle_rule(3)
    for family, n_edge in (("RT0", 3), ("RT1", 6)):
        vals, divs = one_cell_space(family, VERTS).tabulate(rule)
        vals_s, divs_s = one_cell_space(family, s * VERTS).tabulate(rule)
        assert np.allclose(vals_s[:, :n_edge], vals[:, :n_edge] / s, atol=1e-13)
        assert np.allclose(divs_s[:, :n_edge], divs[:, :n_edge] / s**2, atol=1e-13)
        assert np.allclose(vals_s[:, n_edge:], vals[:, n_edge:], atol=1e-13)
        assert np.allclose(divs_s[:, n_edge:], divs[:, n_edge:] / s, atol=1e-13)


def test_piola_matches_cell_basis_construction():
    """The space's RT0 basis equals the Piola image of the reference basis
    up to the edge-orientation signs."""
    verts = np.array([[0.2, 0.1], [1.1, 0.4], [0.4, 1.2]])
    space = one_cell_space("RT0", verts)
    rule = triangle_rule(2)
    vals, divs = space.tabulate(rule)
    mapped, mapped_divs = piola_reference_rt0(verts, rule.points)
    for i, (_, _, sign) in enumerate(edge_frames(space)):
        assert np.allclose(vals[0, i], sign * mapped[i], atol=1e-12)
        assert np.allclose(divs[0, i], sign * mapped_divs[i], atol=1e-12)


def test_rt_divergence_consistency():
    """Divergence of the basis matches finite differences of its values."""
    verts = np.array([[0.0, 0.0], [1.0, 0.2], [0.2, 0.8]])
    rule = triangle_rule(3)
    h = 1e-6
    for family in ("RT0", "RT1"):
        space = one_cell_space(family, verts)
        _, divs = space.tabulate(rule)
        p = space.geometry.map_points(rule.points)[0]
        fd = sum((rt_values(space, p + e)[:, :, d] - rt_values(space, p - e)[:, :, d]) / (2 * h)
                 for d, e in ((0, [h, 0.0]), (1, [0.0, h])))
        assert np.allclose(divs[0], fd, atol=1e-6)
