import math

import numpy as np
import pytest
import sympy as sym
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesbiot.assembly import Separable
from stokesbiot.elements import SCALAR_ELEMENTS
from stokesbiot.mesh import apply_domain_map, build_structured, reservoir_domain_map
from stokesbiot.quadrature import triangle_rule
from stokesbiot.spaces import (FESpace, default_quad_degree, l2_project, load_vector,
                               make_space, mass_matrix, nodal_interpolate)
from stokesbiot.verify import _field_norms, _norm_rule

from helpers import rt_interpolate

TAGS = {"left": "left", "right": "right", "bottom": "bottom", "top": "top"}


@pytest.fixture(scope="module")
def mesh():
    return build_structured((0, 1, 0, 1), 4, 4, "fluid", TAGS)


EXPECTED_DOFS = {
    "P0": lambda m: m.n_tris,
    "P1": lambda m: m.n_nodes,
    "P1dc": lambda m: 3 * m.n_tris,
    "P2": lambda m: m.n_nodes + len(m.edges),
    "P1bubble": lambda m: m.n_nodes + m.n_tris,
    "VecP1": lambda m: 2 * m.n_nodes,
    "VecP2": lambda m: 2 * (m.n_nodes + len(m.edges)),
    "VecP1bubble": lambda m: 2 * (m.n_nodes + m.n_tris),
    "RT0": lambda m: len(m.edges),
    "RT1": lambda m: 2 * len(m.edges) + 2 * m.n_tris,
}


@pytest.mark.parametrize("family", sorted(EXPECTED_DOFS))
def test_dof_counts(mesh, family):
    assert make_space(mesh, family).n_dofs == EXPECTED_DOFS[family](mesh)


@pytest.mark.parametrize("family", ["P0", "P1", "P1dc", "P2", "P1bubble", "RT0", "RT1"])
def test_mass_matrices_spd(mesh, family):
    M = mass_matrix(make_space(mesh, family)).toarray()
    assert np.allclose(M, M.T, atol=1e-14 * np.abs(M).max())
    np.linalg.cholesky(M)   # raises if not positive definite


def test_l2_project_constant(mesh):
    for family in ("P0", "P1", "P1dc", "P2"):
        space = make_space(mesh, family)
        c = l2_project(space, lambda p: np.full(len(p), 1000.0))
        rule = triangle_rule(4)
        vals, _ = space.tabulate(rule)
        approx = np.einsum("iq,mi->mq", vals, c[space.cell_dofs])
        assert np.allclose(approx, 1000.0, atol=1e-9)


def test_l2_project_p0_sine_cell_averages():
    # P0 projection = per-cell average; oracle by exact symbolic integration
    mesh = build_structured((0, 1, 0, 1), 4, 4, "fluid", TAGS)
    space = make_space(mesh, "P0")
    c = l2_project(space, lambda p: np.sin(np.pi * p[:, 0]))
    x, y = sym.symbols("x y")
    for cell in (0, 5, 17, 31):
        verts = mesh.nodes[mesh.tris[cell]]
        xi, eta = sym.symbols("xi eta")
        xs = verts[0, 0] + xi * (verts[1, 0] - verts[0, 0]) + eta * (verts[2, 0] - verts[0, 0])
        J = abs((verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
                - (verts[2, 0] - verts[0, 0]) * (verts[1, 1] - verts[0, 1]))
        integral = sym.integrate(sym.integrate(sym.sin(sym.pi * xs) * J, (eta, 0, 1 - xi)), (xi, 0, 1))
        area = J / 2
        assert c[cell] == pytest.approx(float(integral / area), rel=1e-10)


def _eval_p1_field(mesh, coeffs, points):
    """Evaluate a nodal P1 field by brute-force cell location."""
    verts = mesh.nodes[mesh.tris]
    out = np.empty(len(points))
    for k, p in enumerate(points):
        for cell in range(mesh.n_tris):
            v0, v1, v2 = verts[cell]
            T = np.column_stack([v1 - v0, v2 - v0])
            lam = np.linalg.solve(T, p - v0)
            if lam.min() >= -1e-12 and lam.sum() <= 1 + 1e-12:
                bary = np.array([1 - lam.sum(), lam[0], lam[1]])
                out[k] = bary @ coeffs[mesh.tris[cell]]
                break
        else:
            raise AssertionError(f"point {p} not located")
    return out


def test_l2_project_idempotent():
    mesh = build_structured((0, 1, 0, 1), 2, 2, "fluid", TAGS)
    space = make_space(mesh, "P1")
    c1 = l2_project(space, lambda p: np.sin(p[:, 0]) * p[:, 1])
    c2 = l2_project(space, lambda p: _eval_p1_field(mesh, c1, p))
    assert np.allclose(c1, c2, atol=1e-10)


def test_nodal_interpolation_reproduces_polynomials(mesh):
    lin = lambda p: 2.0 + 3.0 * p[:, 0] - p[:, 1]
    quad = lambda p: 1.0 - p[:, 0] * p[:, 1] + p[:, 1] ** 2
    c = nodal_interpolate(make_space(mesh, "P1"), lin)
    pts, _ = make_space(mesh, "P1").dof_points()
    assert np.allclose(c, lin(pts), atol=1e-14)
    sp2 = make_space(mesh, "P2")
    c2 = nodal_interpolate(sp2, quad)
    rule = triangle_rule(5)
    vals, _ = sp2.tabulate(rule)
    approx = np.einsum("iq,mi->mq", vals, c2[sp2.cell_dofs])
    pq = sp2.geometry.map_points(rule.points)
    assert np.allclose(approx, quad(pq.reshape(-1, 2)).reshape(approx.shape), atol=1e-13)


def test_nodal_interpolation_zero(mesh):
    c = nodal_interpolate(make_space(mesh, "VecP1"),
                          lambda p: np.zeros((len(p), 2)))
    assert np.all(c == 0)


def test_nodal_interpolation_rejects_non_nodal(mesh):
    with pytest.raises(ValueError):
        nodal_interpolate(make_space(mesh, "P1bubble"), lambda p: p[:, 0])
    with pytest.raises(ValueError):
        nodal_interpolate(make_space(mesh, "RT0"), lambda p: p)


@pytest.mark.parametrize("family,exact", [("RT0", 0), ("RT1", 1)])
def test_rt_interpolation_normal_continuity(mesh, family, exact):
    space = make_space(mesh, family)
    f = lambda p: np.column_stack([np.sin(2 * p[:, 0]) + p[:, 1] ** 2,
                                   np.cos(p[:, 1]) - p[:, 0]])
    co = rt_interpolate(space, f)
    scale = np.abs(co).max()
    ec = mesh.edge_cells()
    for e in np.nonzero(ec[:, 1] >= 0)[0]:
        a, b = mesh.edges[e]
        pts = mesh.nodes[a] + np.linspace(0.1, 0.9, 5)[:, None] * (mesh.nodes[b] - mesh.nodes[a])
        t = mesh.nodes[b] - mesh.nodes[a]
        n = np.array([t[1], -t[0]]) / np.linalg.norm(t)
        traces = []
        for cell in ec[e]:
            vals = space.basis_values(np.array([cell]), pts[None])[0]
            traces.append(np.einsum("nq,n->q", vals @ n, co[space.cell_dofs[cell]]))
        assert np.abs(traces[0] - traces[1]).max() < 1e-12 * max(1.0, scale)


def test_rt0_unit_flux_normalization(mesh):
    """Integral of phi_e . n over its own edge is 1 on any affine cell."""
    space = make_space(mesh, "RT0")
    from stokesbiot.quadrature import edge_rule

    eq = edge_rule(5)
    for cell in (0, 7, 12):
        for loc in range(3):
            e = mesh.cell_edges[cell, loc]
            a, b = mesh.edges[e]
            t = mesh.nodes[b] - mesh.nodes[a]
            L = np.linalg.norm(t)
            n = np.array([t[1], -t[0]]) / L
            pts = mesh.nodes[a] + eq.points[:, None] * t[None, :]
            vals = space.basis_values(np.array([cell]), pts[None])[0]
            flux = np.einsum("nqd,d,q->n", vals, n, eq.weights) * L
            expected = np.zeros(3)
            expected[loc] = 1.0
            assert np.allclose(flux, expected, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3), c=st.floats(-3, 3), d=st.floats(-3, 3))
def test_rt1_reproduces_linear_fields(a, b, c, d):
    mesh = build_structured((0, 1, 0, 1), 2, 2, "fluid", TAGS)
    space = make_space(mesh, "RT1")
    f = lambda p: np.column_stack([a + b * p[:, 0] - c * p[:, 1], d - a * p[:, 0] + b * p[:, 1]])
    co = rt_interpolate(space, f)
    rule = triangle_rule(3)
    vals, _ = space.tabulate(rule)
    approx = np.einsum("mnqd,mn->mqd", vals, co[space.cell_dofs])
    pq = space.geometry.map_points(rule.points)
    exact = f(pq.reshape(-1, 2)).reshape(approx.shape)
    scale = max(1.0, np.abs(exact).max())
    assert np.abs(approx - exact).max() < 1e-12 * scale


def test_multiplier_dimension_matches_trace():
    from stokesbiot.assembly import make_multiplier_space
    from stokesbiot.interface import common_refinement

    fluid = build_structured((0, 1, 0, 1), 8, 8, "fluid", {**TAGS, "bottom": "interface"})
    poro = build_structured((0, 1, -1, 0), 8, 8, "poro", {**TAGS, "top": "interface"})
    pairing = common_refinement(fluid, poro)
    n_trace = len(poro.boundary_edge_ids("interface"))
    assert make_multiplier_space(pairing, 0).n_dofs == n_trace
    assert make_multiplier_space(pairing, 1).n_dofs == 2 * n_trace
    with pytest.raises(ValueError):
        make_multiplier_space(pairing, 2)


# ---------------------------------------------------------------------------
# quadrature data and the matmul kernels, against einsum oracles


@pytest.fixture(scope="module")
def skewed_mesh():
    return apply_domain_map(build_structured((0, 60, 0, 40), 5, 4, "poro", TAGS),
                            reservoir_domain_map())


def _scalar_data(p):
    return np.sin(p[:, 0] / 7.0) * np.cos(p[:, 1] / 5.0) + p[:, 0] * p[:, 1] / 100.0


def _vector_data(p):
    return np.column_stack([_scalar_data(p), np.exp(-p[:, 0] / 50.0) * p[:, 1]])


def _tensor_data(p):
    return np.stack([_vector_data(p), _vector_data(p[:, ::-1])], axis=-1)


def _assert_rel_close(actual, oracle, rtol=1e-13):
    assert np.abs(np.asarray(actual) - oracle).max() <= rtol * np.abs(oracle).max()


def _einsum_quadrature(space, rule):
    geo = space.geometry
    pts = geo.v0[:, None, :] + np.einsum("mab,qb->mqa", geo.J, rule.points)
    return pts, rule.weights[None, :] * (2.0 * geo.areas)[:, None]


def _load_vector_oracle(space, f, rule):
    pts, w = _einsum_quadrature(space, rule)
    fx = np.asarray(f(pts.reshape(-1, 2)))
    vals, _ = space.tabulate(rule)
    if space.rt_order is not None:
        eloc = np.einsum("miqd,mqd,mq->mi", vals, fx.reshape(pts.shape), w)
    elif space.vector:
        eloc = np.einsum("iq,mqd,mq->mid", vals, fx.reshape(pts.shape), w)
    else:
        eloc = np.einsum("iq,mq,mq->mi", vals, fx.reshape(pts.shape[:2]), w)
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.cell_dofs.ravel(), eloc.ravel())
    return out


def _field_norms_oracle(space, coeffs, exact, exact_grad, rule):
    pts, w = _einsum_quadrature(space, rule)
    flat = pts.reshape(-1, 2)
    c = coeffs[space.cell_dofs]
    vals, grads = space.tabulate(rule)
    if space.rt_order is not None:
        uh = np.einsum("miqd,mi->mqd", vals, c)
        ue = exact(flat).reshape(pts.shape)
        return (np.einsum("mqd,mq->", (uh - ue) ** 2, w), 0.0, np.einsum("mqd,mq->", ue**2, w), 0.0)
    if space.vector:
        c3 = c.reshape(c.shape[0], -1, 2)
        uh = np.einsum("iq,mid->mqd", vals, c3)
        ue = exact(flat).reshape(pts.shape)
        gh = np.einsum("miqa,mid->mqda", grads, c3)
        ge = exact_grad(flat).reshape(gh.shape)
        return (np.einsum("mqd,mq->", (uh - ue) ** 2, w), np.einsum("mqda,mq->", (gh - ge) ** 2, w),
                np.einsum("mqd,mq->", ue**2, w), np.einsum("mqda,mq->", ge**2, w))
    ph = np.einsum("iq,mi->mq", vals, c)
    pe = exact(flat).reshape(pts.shape[:2])
    return np.einsum("mq,mq->", (ph - pe) ** 2, w), 0.0, np.einsum("mq,mq->", pe**2, w), 0.0


ALL_FAMILIES = sorted(EXPECTED_DOFS)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_quadrature_maps_points_and_weights(skewed_mesh, family):
    space = make_space(skewed_mesh, family)
    geo = space.geometry
    rule = triangle_rule(default_quad_degree(space) + 2)
    pts, w = geo.quadrature(rule)
    np.testing.assert_array_equal(pts, geo.map_points(rule.points))
    np.testing.assert_array_equal(w, rule.weights * 2.0 * geo.areas[:, None])
    _assert_rel_close(pts, _einsum_quadrature(space, rule)[0])


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_load_vector_matches_einsum(skewed_mesh, family):
    space = make_space(skewed_mesh, family)
    f = _vector_data if space.vector else _scalar_data
    rule = triangle_rule(default_quad_degree(space) + 2)
    _assert_rel_close(load_vector(space, f), _load_vector_oracle(space, f, rule))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_tabulate_matches_einsum(skewed_mesh, family):
    space = make_space(skewed_mesh, family)
    rule = _norm_rule(space)
    vals, grads = space.tabulate(rule)
    if space.rt_order is not None:
        pts, _ = _einsum_quadrature(space, rule)
        _assert_rel_close(vals, space.basis_values(np.arange(skewed_mesh.n_tris), pts))
        return
    _, gref = SCALAR_ELEMENTS[space.scalar_name].tabulate(rule.points)
    _assert_rel_close(grads, np.einsum("mab,iqb->miqa", space.geometry.invJT, gref))


@pytest.mark.parametrize("family", ["P1", "VecP1bubble", "VecP2", "RT0", "RT1"])
def test_tabulate_on_cells_is_a_slice_of_the_whole(skewed_mesh, family):
    """Quadrature and basis data on a range of cells equal, bit for bit, the
    same rows of those on every cell."""
    space = make_space(skewed_mesh, family)
    rule = _norm_rule(space)
    cells = slice(3, skewed_mesh.n_tris - 2)
    whole = [*space.geometry.quadrature(rule), *space.tabulate(rule)]
    part = [*space.geometry.quadrature(rule, cells), *space.tabulate(rule, cells)]
    if space.rt_order is None:        # reference values, the same on every cell
        np.testing.assert_array_equal(part.pop(2), whole.pop(2))
    for w, p in zip(whole, part):
        np.testing.assert_array_equal(p, w[cells])


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_basis_values_match_tabulate(skewed_mesh, family):
    """The per-cell evaluator at the cached quadrature points gives the values
    of ``tabulate``; a vector field built from it with ``cell_dofs`` has the
    even coefficients as x and the odd ones as y component."""
    space = make_space(skewed_mesh, family)
    rule = _norm_rule(space)
    m = skewed_mesh.n_tris
    pts, _ = space.geometry.quadrature(rule)
    got = space.basis_values(np.arange(m), pts)
    vals, _ = space.tabulate(rule)
    if space.rt_order is not None or not space.vector:
        _assert_rel_close(got, np.broadcast_to(vals, got.shape))
        return
    assert got.shape == (m, space.n_loc, len(rule.weights), 2)
    c = np.random.default_rng(3).standard_normal(space.n_dofs)
    uh = np.einsum("mnqd,mn->mqd", got, c[space.cell_dofs])
    scalar_dofs = space.cell_dofs[:, 0::2] // 2
    for d in range(2):
        _assert_rel_close(uh[..., d], c[d::2][scalar_dofs] @ vals)


def _two_terms(f):
    """A two-term ``Separable`` with distinct time functions and spatial terms."""
    return Separable({math.exp: f, (lambda t: math.sin(3.0 * t) + 0.5): lambda p: f(0.7 * p[:, ::-1])})


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_field_norms_match_einsum(skewed_mesh, family):
    space = make_space(skewed_mesh, family)
    times = [0.0, 0.4, 1.3]
    coeffs = np.random.default_rng(7).standard_normal((space.n_dofs, len(times)))
    if space.vector:
        exact = _two_terms(_vector_data)
        exact_grad = None if space.rt_order is not None else _two_terms(_tensor_data)
    else:
        exact, exact_grad = _two_terms(_scalar_data), None
    got = _field_norms(space, coeffs, times, exact, exact_grad)
    assert got.shape == (4, len(times))
    for s, t in enumerate(times):
        grad = None if exact_grad is None else (lambda p: exact_grad(p, t))
        want = _field_norms_oracle(space, coeffs[:, s], lambda p: exact(p, t), grad,
                                   _norm_rule(space))
        for g, o in zip(got[:, s], want):
            _assert_rel_close(g, o)


@pytest.mark.parametrize("family,k,columns", [
    ("VecP1bubble", 2, [6, 7]), ("P1bubble", 1, [3]), ("RT1", 2, [6, 7]),
    ("P0", 1, [0]), ("P1dc", 3, [0, 1, 2]),
    ("P1", 0, []), ("P2", 0, []), ("VecP1", 0, []), ("VecP2", 0, []), ("RT0", 0, []),
])
def test_interior_dofs(mesh, family, k, columns):
    space = make_space(mesh, family)
    interior = space.interior_dofs()
    assert interior.shape == (mesh.n_tris, k)
    assert np.array_equal(interior, space.cell_dofs[:, columns])
    # each interior dof belongs to its own cell only
    counts = np.bincount(space.cell_dofs.ravel(), minlength=space.n_dofs)
    assert np.all(counts[interior] == 1)


def test_values_only_callers_build_no_gradients(mesh, monkeypatch):
    """Divergence, mass and scalar norms read reference values only: they
    never tabulate the scalar space's physical gradients, and the values are
    those ``tabulate`` returns."""
    from stokesbiot.assembly import assemble_divergence

    V, W = make_space(mesh, "VecP1bubble"), make_space(mesh, "P1")
    tabulated, tabulate = [], FESpace.tabulate

    def spy(self, rule):
        tabulated.append(self)
        return tabulate(self, rule)

    monkeypatch.setattr(FESpace, "tabulate", spy)
    assemble_divergence(V, W)
    mass_matrix(W)
    _field_norms(W, np.ones((W.n_dofs, 2)), [0.0, 1.0], Separable(lambda p: np.ones(len(p))))
    assert any(s is V for s in tabulated)        # the velocity's gradients are read
    assert not any(s is W for s in tabulated)
    monkeypatch.undo()
    rule = triangle_rule(default_quad_degree(V, W))
    assert np.array_equal(W.ref_values(rule), W.tabulate(rule)[0])
