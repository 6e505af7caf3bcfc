"""Element matrices against exact (symbolic) integration oracles, plus the
structural properties of the assembled blocks."""

import numpy as np
import pytest
import sympy as sym

from stokesbiot.assembly import (PhysicalParams, Separable, assemble_bgamma, assemble_bjs,
                                 assemble_darcy_mass, assemble_divergence,
                                 assemble_elasticity, assemble_loads,
                                 assemble_stokes_viscous, constant, darcy_pressure_load,
                                 make_multiplier_space)
from stokesbiot.interface import common_refinement
from stokesbiot.mesh import build_structured
from stokesbiot.spaces import make_space

from helpers import rt_interpolate

X, Y = sym.symbols("x y")
TAGS = {"left": "left", "right": "right", "bottom": "bottom", "top": "top"}


# ---------------------------------------------------------------------------
# symbolic helpers


def sym_tri_integral(expr, verts):
    xi, eta = sym.symbols("xi eta")
    v0, v1, v2 = [sym.Matrix(v) for v in verts]
    xs = v0 + xi * (v1 - v0) + eta * (v2 - v0)
    J = (v1 - v0)[0] * (v2 - v0)[1] - (v1 - v0)[1] * (v2 - v0)[0]
    sub = sym.expand(expr.subs({X: xs[0], Y: xs[1]}, simultaneous=True)) * J
    return sym.integrate(sym.integrate(sub, (eta, 0, 1 - xi)), (xi, 0, 1))


def sym_p1_basis(verts):
    out = []
    for i in range(3):
        a, b, c = sym.symbols(f"a{i} b{i} c{i}")
        f = a + b * X + c * Y
        eqs = [f.subs({X: verts[j][0], Y: verts[j][1]}) - (1 if j == i else 0) for j in range(3)]
        sol = sym.solve(eqs, (a, b, c))
        out.append(f.subs(sol))
    return out


def sym_p2_basis(verts):
    nodes = list(verts) + [0.5 * (verts[(i + 1) % 3] + verts[(i + 2) % 3]) for i in range(3)]
    out = []
    coeffs = sym.symbols("c0:6")
    monos = [1, X, Y, X**2, X * Y, Y**2]
    for i in range(6):
        f = sum(c * m for c, m in zip(coeffs, monos))
        eqs = [f.subs({X: nodes[j][0], Y: nodes[j][1]}) - (1 if j == i else 0) for j in range(6)]
        sol = sym.solve(eqs, coeffs)
        out.append(f.subs(sol))
    return out


def sym_bubble(verts):
    lam = sym_p1_basis(verts)
    return 27 * lam[0] * lam[1] * lam[2]


def _sorted_edge_ends(verts, local_edges):
    return [(verts[min(a, b)], verts[max(a, b)]) for a, b in local_edges]


def sym_rt_basis(verts, order):
    """RT basis with the package's dof conventions, in exact arithmetic."""
    local_edges = [(1, 2), (2, 0), (0, 1)]
    ends = _sorted_edge_ends(verts, local_edges)
    if order == 0:
        monos = [sym.Matrix([1, 0]), sym.Matrix([0, 1]), sym.Matrix([X, Y])]
    else:
        monos = [sym.Matrix([1, 0]), sym.Matrix([X, 0]), sym.Matrix([Y, 0]),
                 sym.Matrix([0, 1]), sym.Matrix([0, X]), sym.Matrix([0, Y]),
                 sym.Matrix([X**2, X * Y]), sym.Matrix([X * Y, Y**2])]
    nd = len(monos)
    s = sym.symbols("s")
    rows = []
    for (A, B) in ends:
        A, B = sym.Matrix(A), sym.Matrix(B)
        t = B - A
        L = sym.sqrt(t.dot(t))
        n = sym.Matrix([t[1], -t[0]]) / L
        pt = A + s * t
        row0, row1 = [], []
        for m in monos:
            tr = m.subs({X: pt[0], Y: pt[1]}, simultaneous=True).dot(n)
            row0.append(sym.integrate(tr * L, (s, 0, 1)))
            row1.append(sym.integrate(tr * (2 * s - 1) * L, (s, 0, 1)))
        rows.append(row0)
        if order == 1:
            rows.append(row1)
    if order == 1:
        area = sym_tri_integral(sym.Integer(1), verts)
        rows.append([sym_tri_integral(m[0], verts) / area for m in monos])
        rows.append([sym_tri_integral(m[1], verts) / area for m in monos])
    M = sym.Matrix(rows)
    C = M.inv()
    out = []
    for i in range(nd):
        f = sym.zeros(2, 1)
        for k in range(nd):
            f += C[k, i] * monos[k]
        out.append(f)
    return out


def sym_D(u):
    g = sym.Matrix([[sym.diff(u[0], X), sym.diff(u[0], Y)],
                    [sym.diff(u[1], X), sym.diff(u[1], Y)]])
    return (g + g.T) / 2


# ---------------------------------------------------------------------------
# Stokes viscous term


def test_stokes_viscous_reference_cell_oracle(single_cell_mesh):
    V = make_space(single_cell_mesh, "VecP1")
    A = assemble_stokes_viscous(V, PhysicalParams(mu=1.0)).toarray()
    lam = sym_p1_basis(single_cell_mesh.nodes)
    basis = []
    for i in range(3):
        basis.append(sym.Matrix([lam[i], 0]))
        basis.append(sym.Matrix([0, lam[i]]))
    for i in range(6):
        for j in range(6):
            Di, Dj = sym_D(basis[i]), sym_D(basis[j])
            exact = float(sym_tri_integral(2 * sum(Di[a, b] * Dj[a, b] for a in range(2) for b in range(2)),
                                           single_cell_mesh.nodes))
            assert A[i, j] == pytest.approx(exact, abs=1e-13)


def test_stokes_viscous_mini_affine_oracle(affine_cell_mesh):
    V = make_space(affine_cell_mesh, "VecP1bubble")
    mu = 0.7
    A = assemble_stokes_viscous(V, PhysicalParams(mu=mu)).toarray()
    lam = sym_p1_basis(affine_cell_mesh.nodes)
    scal = lam + [sym_bubble(affine_cell_mesh.nodes)]
    basis = []
    for f in scal:
        basis.append(sym.Matrix([f, 0]))
        basis.append(sym.Matrix([0, f]))
    idx = [0, 1, 2, 3, 4, 5, 6, 7]
    for i in idx:
        for j in idx:
            Di, Dj = sym_D(basis[i]), sym_D(basis[j])
            exact = float(sym_tri_integral(2 * mu * sum(Di[a, b] * Dj[a, b]
                                                        for a in range(2) for b in range(2)),
                                           affine_cell_mesh.nodes))
            assert A[i, j] == pytest.approx(exact, abs=1e-12, rel=1e-12)


def test_stokes_rigid_modes_in_kernel(fluid_mesh8):
    V = make_space(fluid_mesh8, "VecP1bubble")
    A = assemble_stokes_viscous(V, PhysicalParams(mu=2.0))
    n = V.n_dofs
    nv = fluid_mesh8.n_nodes
    trans = np.zeros(n)
    trans[0:2 * nv:2] = 1.0        # translation (1, 0): vertex dofs only
    rot = np.zeros(n)
    rot[0:2 * nv:2] = -fluid_mesh8.nodes[:, 1]
    rot[1:2 * nv:2] = fluid_mesh8.nodes[:, 0]
    scale = np.abs(A).max()
    assert np.abs(A @ trans).max() < 1e-12 * scale
    assert np.abs(A @ rot).max() < 1e-12 * scale


def test_stokes_linearity_in_mu(fluid_mesh8):
    V = make_space(fluid_mesh8, "VecP2")
    A1 = assemble_stokes_viscous(V, PhysicalParams(mu=1.0))
    A2 = assemble_stokes_viscous(V, PhysicalParams(mu=2.0))
    diff = (A2 - 2 * A1).toarray()
    assert np.abs(diff).max() < 1e-14 * np.abs(A1.toarray()).max()


# ---------------------------------------------------------------------------
# Darcy mass term


# global dof order on the one-cell mesh: edges sorted lexicographically,
# (0,1) bottom -> 0, (0,2) left -> 1, (1,2) hyp -> 2
RT0_REF_MASS_GLOBAL = np.array([[1 / 3, 1 / 6, 0], [1 / 6, 1 / 3, 0], [0, 0, 1 / 6]])


def _rt_dof_map(mesh, order):
    """Global dof index of each symbolic-oracle dof (local edge order)."""
    g = mesh.cell_edges[0]            # global edge id of local edges (1,2),(2,0),(0,1)
    if order == 0:
        return list(g)
    out = []
    for e in g:
        out.extend([2 * e, 2 * e + 1])
    out.extend([2 * len(mesh.edges), 2 * len(mesh.edges) + 1])
    return out


def test_darcy_mass_reference_cell_frozen(single_cell_mesh):
    V = make_space(single_cell_mesh, "RT0")
    A = assemble_darcy_mass(V, PhysicalParams(mu=1.0, K=1.0)).toarray()
    assert np.allclose(A, RT0_REF_MASS_GLOBAL, atol=1e-13)


@pytest.mark.parametrize("order", [0, 1])
def test_darcy_mass_affine_anisotropic_oracle(affine_cell_mesh, order):
    fam = "RT0" if order == 0 else "RT1"
    V = make_space(affine_cell_mesh, fam)
    K = np.array([[2.0, 0.5], [0.5, 1.0]])
    mu = 1.3
    A = assemble_darcy_mass(V, PhysicalParams(mu=mu, K=K)).toarray()
    basis = sym_rt_basis(affine_cell_mesh.nodes, order)
    gmap = _rt_dof_map(affine_cell_mesh, order)
    Kinv = sym.Matrix(K).inv()
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            integrand = mu * (Kinv * basis[j]).dot(basis[i])
            exact = float(sym_tri_integral(integrand, affine_cell_mesh.nodes))
            assert A[gmap[i], gmap[j]] == pytest.approx(exact, abs=1e-12, rel=1e-12)


def test_darcy_mass_halves_when_K_doubles(poro_mesh8):
    V = make_space(poro_mesh8, "RT0")
    A1 = assemble_darcy_mass(V, PhysicalParams(K=1.0))
    A2 = assemble_darcy_mass(V, PhysicalParams(K=2.0))
    assert np.abs((A1 - 2 * A2).toarray()).max() < 1e-13 * np.abs(A1.toarray()).max()


def test_darcy_mass_symmetry(poro_mesh8):
    A = assemble_darcy_mass(make_space(poro_mesh8, "RT1"), PhysicalParams(K=np.diag([2e-12, 5e-13]), mu=1e-6))
    d = np.abs((A - A.T).toarray()).max()
    assert d < 1e-14 * np.abs(A.toarray()).max()


def test_darcy_mass_singular_K_rejected(poro_mesh8):
    V = make_space(poro_mesh8, "RT0")
    K = np.zeros((poro_mesh8.n_tris, 2, 2))
    K[:, 0, 0] = K[:, 1, 1] = 1.0
    K[5] = 0.0
    with pytest.raises(ValueError, match="cell"):
        assemble_darcy_mass(V, PhysicalParams(K=K))


# ---------------------------------------------------------------------------
# elasticity


def test_elasticity_symmetric_gradient_reduction_oracle(single_cell_mesh):
    V = make_space(single_cell_mesh, "VecP1")
    A = assemble_elasticity(V, PhysicalParams(lam_p=0.0, mu_p=0.5)).toarray()
    lam = sym_p1_basis(single_cell_mesh.nodes)
    basis = []
    for i in range(3):
        basis.append(sym.Matrix([lam[i], 0]))
        basis.append(sym.Matrix([0, lam[i]]))
    for i in range(6):
        for j in range(6):
            Di, Dj = sym_D(basis[i]), sym_D(basis[j])
            exact = float(sym_tri_integral(sum(Di[a, b] * Dj[a, b] for a in range(2) for b in range(2)),
                                           single_cell_mesh.nodes))
            assert A[i, j] == pytest.approx(exact, abs=1e-13)


def test_elasticity_full_affine_oracle(affine_cell_mesh):
    V = make_space(affine_cell_mesh, "VecP1")
    lam_p, mu_p = 0.7, 0.3
    A = assemble_elasticity(V, PhysicalParams(lam_p=lam_p, mu_p=mu_p)).toarray()
    lam = sym_p1_basis(affine_cell_mesh.nodes)
    basis = []
    for i in range(3):
        basis.append(sym.Matrix([lam[i], 0]))
        basis.append(sym.Matrix([0, lam[i]]))
    for i in range(6):
        for j in range(6):
            Di, Dj = sym_D(basis[i]), sym_D(basis[j])
            divi = sym.diff(basis[i][0], X) + sym.diff(basis[i][1], Y)
            divj = sym.diff(basis[j][0], X) + sym.diff(basis[j][1], Y)
            integ = 2 * mu_p * sum(Di[a, b] * Dj[a, b] for a in range(2) for b in range(2)) \
                + lam_p * divi * divj
            exact = float(sym_tri_integral(integ, affine_cell_mesh.nodes))
            assert A[i, j] == pytest.approx(exact, abs=1e-13)


def test_elasticity_rigid_modes_and_clamped_spd(poro_mesh8):
    V = make_space(poro_mesh8, "VecP1")
    A = assemble_elasticity(V, PhysicalParams(lam_p=1.0, mu_p=1.0))
    n = V.n_dofs
    trans = np.zeros(n)
    trans[1::2] = 1.0
    rot = np.zeros(n)
    rot[0::2] = -poro_mesh8.nodes[:, 1]
    rot[1::2] = poro_mesh8.nodes[:, 0]
    scale = np.abs(A).max()
    assert np.abs(A @ trans).max() < 1e-12 * scale
    assert np.abs(A @ rot).max() < 1e-12 * scale
    # positive definite after clamping the full boundary
    boundary = np.unique(poro_mesh8.bedges)
    fixed = np.concatenate([2 * boundary, 2 * boundary + 1])
    free = np.setdiff1d(np.arange(n), fixed)
    sub = A.toarray()[np.ix_(free, free)]
    np.linalg.cholesky(sub)


def test_elasticity_linearity(poro_mesh8):
    V = make_space(poro_mesh8, "VecP1")
    A1 = assemble_elasticity(V, PhysicalParams(lam_p=1.0, mu_p=2.0))
    A2 = assemble_elasticity(V, PhysicalParams(lam_p=2.0, mu_p=4.0))
    assert np.abs((A2 - 2 * A1).toarray()).max() < 1e-14 * np.abs(A1.toarray()).max()


def test_elasticity_rejects_negative_mu(poro_mesh8):
    with pytest.raises(ValueError):
        assemble_elasticity(make_space(poro_mesh8, "VecP1"), PhysicalParams(lam_p=1.0, mu_p=-1.0))


# ---------------------------------------------------------------------------
# divergence coupling


def test_div_rt0_p0_entries(single_cell_mesh):
    V = make_space(single_cell_mesh, "RT0")
    W = make_space(single_cell_mesh, "P0")
    D = assemble_divergence(V, W).toarray()
    # unit-flux dofs: (div phi_j, 1) = net outward flux = +-1, exactly
    assert np.allclose(np.abs(D), 1.0, atol=1e-13)
    # b = -D against the divergence theorem: here sigma = (+1, -1, +1)
    assert np.allclose(D, [[1.0, -1.0, 1.0]], atol=1e-13)


def test_div_vecp1_p1_single_cell_oracle(single_cell_mesh):
    V = make_space(single_cell_mesh, "VecP1")
    W = make_space(single_cell_mesh, "P1")
    D = assemble_divergence(V, W).toarray()
    lam = sym_p1_basis(single_cell_mesh.nodes)
    for iw in range(3):
        for j in range(3):
            for a in range(2):
                u = sym.Matrix([lam[j], 0]) if a == 0 else sym.Matrix([0, lam[j]])
                div = sym.diff(u[0], X) + sym.diff(u[1], Y)
                exact = float(sym_tri_integral(div * lam[iw], single_cell_mesh.nodes))
                assert D[iw, 2 * j + a] == pytest.approx(exact, abs=1e-14)


def test_divfree_rt0_field_annihilated(poro_mesh8):
    V = make_space(poro_mesh8, "RT0")
    W = make_space(poro_mesh8, "P0")
    D = assemble_divergence(V, W)
    co = rt_interpolate(V, lambda p: np.column_stack([np.full(len(p), 1.5), np.full(len(p), -0.5)]))
    assert np.abs(D @ co).max() < 1e-12


def test_constant_pressure_zero_boundary_flux(poro_mesh8):
    V = make_space(poro_mesh8, "RT0")
    W = make_space(poro_mesh8, "P0")
    D = assemble_divergence(V, W)
    rng = np.random.default_rng(3)
    co = rng.standard_normal(V.n_dofs)
    bdofs = poro_mesh8.bedge_edge_ids()
    co[bdofs] = 0.0
    w = np.ones(W.n_dofs)
    # sum_cells (B v) . w = -boundary flux = 0
    assert abs(w @ (D @ co)) < 1e-12 * max(1.0, np.abs(co).max())


def test_div_pairing_guard(poro_mesh8):
    with pytest.raises(ValueError):
        assemble_divergence(make_space(poro_mesh8, "RT0"), make_space(poro_mesh8, "P1"))


def test_div_mesh_mismatch_guard(fluid_mesh8, poro_mesh8):
    with pytest.raises(ValueError):
        assemble_divergence(make_space(fluid_mesh8, "VecP2"), make_space(poro_mesh8, "P1"))


# ---------------------------------------------------------------------------
# interface blocks


def flat_pair(n_f=8, n_p=8):
    fluid = build_structured((0, 1, 0, 1), n_f, n_f, "fluid", {**TAGS, "bottom": "interface"})
    poro = build_structured((0, 1, -1, 0), n_p, n_p, "poro", {**TAGS, "top": "interface"})
    return fluid, poro


@pytest.fixture(scope="module")
def flat_setup():
    fluid, poro = flat_pair()
    pairing = common_refinement(fluid, poro)
    spaces = {
        "uf": make_space(fluid, "VecP2"),
        "up": make_space(poro, "RT0"),
        "eta": make_space(poro, "VecP1"),
    }
    return pairing, spaces


def test_bjs_zero_friction(flat_setup):
    pairing, spaces = flat_setup
    M_ff, M_fe, M_ee = assemble_bjs(pairing, spaces["uf"], spaces["eta"],
                                    PhysicalParams(alpha_bjs=0.0))
    assert M_ff.nnz == 0 or np.abs(M_ff.data).max() == 0.0
    assert M_fe.nnz == 0 or np.abs(M_fe.data).max() == 0.0
    assert M_ee.nnz == 0 or np.abs(M_ee.data).max() == 0.0


def test_bjs_quadratic_form_psd_and_kernel(flat_setup):
    pairing, spaces = flat_setup
    V, Xp = spaces["uf"], spaces["eta"]
    M_ff, M_fe, M_ee = assemble_bjs(pairing, V, Xp, PhysicalParams(alpha_bjs=1.0, K=1.0, mu=1.0))

    def quad_form(vf, xi):
        return vf @ (M_ff @ vf) - 2 * vf @ (M_fe @ xi) + xi @ (M_ee @ xi)

    rng = np.random.default_rng(11)
    for _ in range(5):
        vf = rng.standard_normal(V.n_dofs)
        xi = rng.standard_normal(Xp.n_dofs)
        assert quad_form(vf, xi) >= -1e-10
    # identical tangential traces: constant fields u = xi = (c, d)
    vf = np.zeros(V.n_dofs)
    vf[0::2], vf[1::2] = 1.7, -0.4
    xi = np.zeros(Xp.n_dofs)
    xi[0::2], xi[1::2] = 1.7, -0.4
    assert abs(quad_form(vf, xi)) < 1e-12


def test_bjs_tangential_mass_oracle_1d(flat_setup):
    """Flat interface, K_j = 1, mu = 1: A_ff is the tangential P2 edge mass.

    The oracle assembles the full 1D P2 mass matrix on the trace (shared
    vertex dofs accumulate), independent of the 2D code path.
    """
    pairing, spaces = flat_setup
    V = spaces["uf"]
    M_ff, _, _ = assemble_bjs(pairing, V, spaces["eta"], PhysicalParams(alpha_bjs=1.0, K=1.0, mu=1.0))
    M = M_ff.toarray()
    mesh = V.mesh
    s = sym.symbols("s")
    p2_1d = [2 * (s - sym.Rational(1, 2)) * (s - 1), 2 * s * (s - sym.Rational(1, 2)), 4 * s * (1 - s)]
    h = sym.Rational(1, 8)
    m_loc = np.array([[float(sym.integrate(a * b * h, (s, 0, 1))) for b in p2_1d] for a in p2_1d])
    ids = mesh.boundary_edge_ids("interface")
    eids = mesh.bedge_edge_ids()[ids]
    all_dofs = []
    oracle = np.zeros((M.shape[0], M.shape[0]))
    for be, e in zip(ids, eids):
        a, b = mesh.bedges[be]
        dofs = [2 * a, 2 * b, 2 * (mesh.n_nodes + e)]   # x-components: a, b, midpoint
        oracle[np.ix_(dofs, dofs)] += m_loc
        all_dofs.extend(dofs)
    all_dofs = sorted(set(all_dofs))
    assert np.allclose(M[np.ix_(all_dofs, all_dofs)], oracle[np.ix_(all_dofs, all_dofs)], atol=1e-12)
    # y-components carry no tangential weight on a horizontal interface
    dofs_y = [d + 1 for d in all_dofs]
    assert np.abs(M[np.ix_(dofs_y, dofs_y)]).max() < 1e-14


def test_bgamma_rt0_identity_pattern(flat_setup):
    pairing, spaces = flat_setup
    L = make_multiplier_space(pairing, 0)
    Bf, Bp, Be = assemble_bgamma(pairing, spaces["uf"], spaces["up"], spaces["eta"], L)
    Bp = Bp.toarray()
    # matching grids: one multiplier per poro edge; entry = +-1 on its own edge
    for k, bedge in enumerate(pairing.poro.bedges):
        mesh = spaces["up"].mesh
        e = mesh.bedge_edge_ids()[bedge]
        row = Bp[k]
        assert abs(abs(row[e]) - 1.0) < 1e-12
        row = row.copy()
        row[e] = 0.0
        assert np.abs(row).max() < 1e-12


def test_bgamma_zero_normal_trace_column(flat_setup):
    pairing, spaces = flat_setup
    L = make_multiplier_space(pairing, 0)
    _, Bp, _ = assemble_bgamma(pairing, spaces["uf"], spaces["up"], spaces["eta"], L)
    mesh = spaces["up"].mesh
    interface_edges = set(mesh.bedge_edge_ids()[mesh.boundary_edge_ids("interface")])
    co = rt_interpolate(spaces["up"], lambda p: np.column_stack([p[:, 0], 0 * p[:, 1]]))
    co[list(interface_edges)] = 0.0   # kill the normal trace on the interface
    assert np.abs(Bp @ co).max() < 1e-12


def test_bgamma_constant_flux_value(flat_setup):
    pairing, spaces = flat_setup
    L = make_multiplier_space(pairing, 0)
    Bf, _, _ = assemble_bgamma(pairing, spaces["uf"], spaces["up"], spaces["eta"], L)
    c = 2.5
    vf = np.zeros(spaces["uf"].n_dofs)
    vf[1::2] = -c     # u = (0, -c): u . n_f = c on the bottom interface
    total = np.ones(L.n_dofs) @ (Bf @ vf)
    assert total == pytest.approx(c, abs=1e-12)   # <c, 1> over unit-length interface


def test_bgamma_continuous_triple_annihilated(flat_setup):
    pairing, spaces = flat_setup
    L = make_multiplier_space(pairing, 0)
    Bf, Bp, Be = assemble_bgamma(pairing, spaces["uf"], spaces["up"], spaces["eta"], L)
    c = 0.8
    vf = np.zeros(spaces["uf"].n_dofs)
    vf[1::2] = c      # u_f . n_f = -c
    xi = np.zeros(spaces["eta"].n_dofs)
    xi[1::2] = 0.3    # xi . n_p = 0.3
    up = rt_interpolate(spaces["up"], lambda p: np.column_stack([0 * p[:, 0], np.full(len(p), c - 0.3)]))
    res = Bf @ vf + Bp @ up + Be @ xi
    assert np.abs(res).max() < 1e-12


def test_bgamma_nonmatching_exact_solution_traces():
    """Interpolated verification fields satisfy the constraint on both grids."""
    from stokesbiot.manufactured import example1_solution
    from stokesbiot.spaces import nodal_interpolate

    ms = example1_solution()
    t = 0.4
    for n_f, n_p in ((8, 8), (13, 8)):
        fluid, poro = flat_pair(n_f, n_p)
        pairing = common_refinement(fluid, poro)
        V_f = make_space(fluid, "VecP1bubble")
        V_p = make_space(poro, "RT0")
        Xp = make_space(poro, "VecP1")
        L = make_multiplier_space(pairing, 0)
        Bf, Bp, Be = assemble_bgamma(pairing, V_f, V_p, Xp, L)
        uf = np.zeros(V_f.n_dofs)
        uf_nodes = ms.uf(fluid.nodes, t)
        uf[0:2 * fluid.n_nodes:2] = uf_nodes[:, 0]
        uf[1:2 * fluid.n_nodes:2] = uf_nodes[:, 1]
        up = rt_interpolate(V_p, lambda p: ms.up(p, t))
        deta = nodal_interpolate(Xp, lambda p: ms.dt_eta(p, t))
        res = Bf @ uf + Bp @ up + Be @ deta
        assert np.abs(res).max() < 1e-11


def test_bjs_empty_pairing_guard(flat_setup):
    pairing, spaces = flat_setup
    import copy

    empty = copy.copy(pairing)
    empty.seg_length = np.zeros(0)
    empty.seg_fluid = np.zeros(0, dtype=int)
    with pytest.raises(ValueError):
        assemble_bjs(empty, spaces["uf"], spaces["eta"], PhysicalParams(alpha_bjs=1.0))


# ---------------------------------------------------------------------------
# loads


def test_zero_data_zero_loads(flat_setup):
    pairing, spaces = flat_setup
    all_spaces = dict(spaces)
    all_spaces["pf"] = make_space(spaces["uf"].mesh, "P1")
    all_spaces["pp"] = make_space(spaces["up"].mesh, "P0")
    assert assemble_loads(all_spaces, {}) == {}


def test_unit_source_gives_cell_areas(poro_mesh8):
    spaces = {"pp": make_space(poro_mesh8, "P0")}
    out = assemble_loads({**spaces, "uf": spaces["pp"], "up": spaces["pp"],
                          "eta": spaces["pp"], "pf": spaces["pp"]},
                         {"qp": Separable(lambda p: np.ones(len(p)))})
    geo_areas = 0.5 * np.abs(np.linalg.det(np.stack([
        poro_mesh8.nodes[poro_mesh8.tris][:, 1] - poro_mesh8.nodes[poro_mesh8.tris][:, 0],
        poro_mesh8.nodes[poro_mesh8.tris][:, 2] - poro_mesh8.nodes[poro_mesh8.tris][:, 0]], axis=1)))
    (g, L), = out.items()
    m = poro_mesh8.n_tris
    assert g is constant and len(L) == 5 * m
    assert np.allclose(L[:m], geo_areas, atol=1e-14)      # "pp" is the first block
    assert np.all(L[m:] == 0.0)


def test_darcy_pressure_load_constant(poro_mesh8):
    V = make_space(poro_mesh8, "RT0")
    load = darcy_pressure_load(V, ("bottom",), lambda p: np.full(len(p), 1000.0))
    ids = poro_mesh8.boundary_edge_ids("bottom")
    eids = poro_mesh8.bedge_edge_ids()[ids]
    # -<phi . n_p, p_D>: unit-flux dof against outward normal; sign depends on
    # the edge's global orientation, magnitude is exactly p_D
    assert np.allclose(np.abs(load[eids]), 1000.0, atol=1e-10)
    others = np.setdiff1d(np.arange(V.n_dofs), eids)
    assert np.abs(load[others]).max() == 0.0


def test_separable_arithmetic():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(7, 2))
    f1, f2, f3 = (lambda p: np.sin(p[:, 0]), lambda p: p[:, 1] ** 2, lambda p: np.exp(p[:, 0]))
    a = Separable(f1, np.cos) + Separable(f2)          # g = cos t and g = 1
    b = 2.5 * Separable(f3, np.cos) - Separable(f2)
    c = a + b
    # merged: one term per time function, and the g = 1 terms cancel
    assert set(c.terms) == {np.cos, constant}
    assert np.all(c.terms[constant](pts) == 0.0)
    for t in (0.0, 0.3, 2.0):
        want = np.cos(t) * (f1(pts) + 2.5 * f3(pts))
        assert np.allclose(c(pts, t), want, rtol=1e-15, atol=1e-15)
        assert np.allclose((-a * 3)(pts, t), -3.0 * (np.cos(t) * f1(pts) + f2(pts)), rtol=1e-15)
    # one constant term is evaluated exactly
    assert np.array_equal(Separable(f2)(pts, 7.0), f2(pts))


def test_assemble_loads_rejects_bad_data(poro_mesh8):
    V = make_space(poro_mesh8, "P0")
    spaces = {name: V for name in ("uf", "up", "eta", "pf", "pp")}
    one = Separable(lambda p: np.ones(len(p)))
    bad = {"static": True, "qP": one, "qp": lambda p, t: np.ones(len(p)),
           "darcy_pressure": one}
    for key, value in bad.items():
        with pytest.raises(ValueError, match=repr(key)):
            assemble_loads(spaces, {"qf": one, key: value})


def _closure_load(system, t):
    """The Example 1 load at ``t`` from closures that evaluate every source,
    with ``t`` folded in, at the quadrature points: an oracle independent of
    ``Separable`` and ``manufactured``."""
    from stokesbiot.spaces import load_vector

    params = system.params
    c, s, e = np.pi * np.cos(np.pi * t), np.sin(np.pi * t), np.exp(t)

    def pp(p):
        return e * np.sin(np.pi * p[:, 0]) * np.cos(0.5 * np.pi * p[:, 1])

    def grad_pp(p):
        x, y = p[:, 0], p[:, 1]
        return e * np.column_stack([np.pi * np.cos(np.pi * x) * np.cos(0.5 * np.pi * y),
                                    -0.5 * np.pi * np.sin(np.pi * x) * np.sin(0.5 * np.pi * y)])

    def laplace_u(p, k):
        return np.column_stack([-k * np.cos(p[:, 1]), np.zeros(len(p))])

    sources = {
        "uf": lambda p: grad_pp(p) - params.mu * laplace_u(p, c),
        "pf": lambda p: np.full(len(p), -2.0 * c),
        "eta": lambda p: -params.mu_p * laplace_u(p, s) + params.alpha * grad_pp(p),
        "pp": lambda p: params.s0 * pp(p) - 2.0 * params.alpha * c + 1.25 * np.pi**2 * pp(p),
    }
    L = np.zeros(system.n_dofs)
    for name, f in sources.items():
        system.view(L, name)[:] = load_vector(system.spaces[name], f)
    system.view(L, "up")[:] = darcy_pressure_load(system.spaces["up"], ("outer",), pp)
    return L


@pytest.mark.parametrize("elements,matching", [("LOW_ORDER", False), ("HIGH_ORDER", True)])
def test_load_matches_closure_assembly(elements, matching):
    from stokesbiot import verify

    system = verify.example1_system(4, getattr(verify, elements), matching=matching)
    for t in (0.0, 3.7e-4, 1e-2, 0.5):
        want = _closure_load(system, t)
        assert np.abs(system.load(t) - want).max() <= 1e-13 * np.abs(want).max()


def test_constant_load_identical_at_every_time():
    from stokesbiot.verify import LOW_ORDER, example1_system

    data = {"darcy_pressure": (("outer",), Separable(lambda p: np.full(len(p), 1000.0))),
            "qp": Separable(lambda p: np.sin(p[:, 0]))}
    system = example1_system(4, LOW_ORDER, data_override=data)
    L0 = system.load(0.0)
    assert np.abs(system.view(L0, "up")).max() > 0 and np.abs(system.view(L0, "pp")).max() > 0
    for t in (3.7e-4, 1e-2, 0.5, 123.0):
        assert np.array_equal(system.load(t), L0)


def test_assembly_deterministic(flat_setup):
    pairing, spaces = flat_setup
    params = PhysicalParams(alpha_bjs=1.0, K=2.0)
    A1 = assemble_bjs(pairing, spaces["uf"], spaces["eta"], params)[0]
    A2 = assemble_bjs(pairing, spaces["uf"], spaces["eta"], params)[0]
    assert np.array_equal(A1.toarray(), A2.toarray())
    B1 = assemble_darcy_mass(spaces["up"], params).toarray()
    B2 = assemble_darcy_mass(spaces["up"], params).toarray()
    assert np.array_equal(B1, B2)


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation():
    PhysicalParams().validate()
    with pytest.raises(ValueError):
        PhysicalParams(mu=-1.0).validate()
    with pytest.raises(ValueError):
        PhysicalParams(alpha=1.5).validate()
    with pytest.raises(ValueError):
        PhysicalParams(s0=-0.1).validate()
    with pytest.raises(ValueError):
        PhysicalParams(K=np.array([[1.0, 2.0], [2.0, 1.0]])).validate()   # indefinite
    with pytest.raises(ValueError):
        PhysicalParams(lam_p=0.0).validate()
