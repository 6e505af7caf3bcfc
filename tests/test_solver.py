import gc
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from stokesbiot.assembly import Separable
from stokesbiot.config import ConfigError
from stokesbiot.manufactured import example1_solution, verification_params
from stokesbiot.mesh import Mesh2D, build_structured
from stokesbiot.solver import (FIELDS, REFINE_TOL, ConstrainedOperator, DirichletBC, FluxBC,
                               LUSolver, SingularMatrixError, TransientState, _bmat_fields,
                               _CellBlocks, _scaled_svd, build_constraints, run_transient)
from stokesbiot.spaces import make_space
from stokesbiot.verify import HIGH_ORDER, LOW_ORDER, example1_system, run_example1

from helpers import constraints_node_by_node, rt_interpolate


# ---------------------------------------------------------------------------
# linear solver


def dense_gauss_oracle(A, b):
    """Plain partial-pivot elimination, independent of scipy."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for k in range(n):
        p = k + np.argmax(np.abs(A[k:, k]))
        if A[p, k] == 0:
            raise ZeroDivisionError
        if p != k:
            A[[k, p]] = A[[p, k]]
            b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            f = A[i, k] / A[k, k]
            A[i, k + 1:] -= f * A[k, k + 1:]
            b[i] -= f * b[k]
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - A[i, i + 1:] @ x[i + 1:]) / A[i, i]
    return x


def test_lu_identity():
    I = sp.identity(40, format="csc")
    b = np.arange(40.0)
    lu = LUSolver(I)
    assert lu.dense is False
    assert np.allclose(lu.solve(b), b, atol=1e-15)


def test_lu_matches_dense_elimination_oracle():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((50, 50)) + 10 * np.eye(50)
    b = rng.standard_normal(50)
    x_star = dense_gauss_oracle(A, b)
    lu = LUSolver(sp.csc_matrix(A))
    x = lu.solve(b)
    assert np.linalg.norm(x - x_star) < 1e-10
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12


def test_lu_large_path_residual():
    rng = np.random.default_rng(1)
    n = 2500
    A = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)], [-1, 0, 1]).tocsc()
    b = rng.standard_normal(n)
    lu = LUSolver(A)
    x = lu.solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12


def test_lu_zero_row_singular():
    A = np.eye(10)
    A[4] = 0.0
    with pytest.raises(SingularMatrixError):
        LUSolver(sp.csc_matrix(A))


def test_lu_zero_row_or_column_names_index():
    for axis, kind in ((0, "row"), (1, "column")):
        A = np.eye(10) + np.eye(10, k=1)
        A[(slice(None),) * axis + (6,)] = 0.0
        with pytest.raises(SingularMatrixError, match=f"zero {kind} 6") as err:
            LUSolver(sp.csc_matrix(A))
        assert err.value.pivot == 6


def test_lu_rank_deficient_raises():
    # row 9 is a combination of rows 0 and 1: SuperLU used to return a wrong
    # answer without complaint
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 10))
    A[9] = 0.1 * A[0] + 0.7 * A[1]
    with pytest.raises(SingularMatrixError):
        LUSolver(sp.csc_matrix(A)).solve(np.ones(10))


def _row_scaled_system(rng, n=40):
    """Well-conditioned matrix with row scales spread over 1e-10 ... 1e7."""
    scales = np.logspace(-10, 7, n)
    rng.shuffle(scales)
    A = scales[:, None] * (rng.standard_normal((n, n)) + 10 * np.eye(n))
    return A, A @ rng.standard_normal(n)


def _scaled_residual(lu, M, b, x):
    return np.abs(lu.dr * (b - M @ x)).max() / np.abs(lu.dr * b).max()


def test_lu_badly_scaled_rows_need_no_refinement():
    rng = np.random.default_rng(4)
    A, b = _row_scaled_system(rng)
    x_star = dense_gauss_oracle(A, b)
    lu = LUSolver(sp.csc_matrix(A))
    x = lu.solve(b)
    assert lu.refinements == 0
    assert np.abs(x - x_star).max() < 1e-12 * np.abs(x_star).max()
    assert _scaled_residual(lu, A, b, x) <= REFINE_TOL
    assert lu.max_residual == pytest.approx(_scaled_residual(lu, A, b, x))


def test_lu_refines_once_when_residual_misses_tolerance():
    rng = np.random.default_rng(5)
    A, b = _row_scaled_system(rng)
    lu = LUSolver(sp.csc_matrix(A))
    # the residual is now taken against a matrix 1e-8 away from the factor
    lu.M = sp.csc_matrix(A * (1 + 1e-8 * rng.standard_normal(A.shape)))
    assert _scaled_residual(lu, lu.M, b, lu._solve_scaled(b)) > REFINE_TOL
    x = lu.solve(b)
    assert lu.refinements == 1
    assert _scaled_residual(lu, lu.M, b, x) <= REFINE_TOL


def test_lu_refinement_is_per_column():
    rng = np.random.default_rng(6)
    A, b = _row_scaled_system(rng)
    B = np.column_stack([b, np.zeros_like(b), 2 * b])
    lu = LUSolver(sp.csc_matrix(A))
    lu.M = sp.csc_matrix(A * (1 + 1e-8 * rng.standard_normal(A.shape)))
    X = lu.solve(B)
    assert lu.refinements == 1
    assert np.all(X[:, 1] == 0.0)
    for k in (0, 2):
        assert _scaled_residual(lu, lu.M, B[:, k], X[:, k]) <= REFINE_TOL


def test_lu_rejects_nonsquare():
    with pytest.raises(ValueError):
        LUSolver(sp.csc_matrix(np.ones((3, 4))))


def test_lu_with_every_unknown_condensed():
    # nothing is left for SuperLU: the cell solves alone give the answer
    lu = LUSolver(sp.diags([2.0, 3.0, 4.0, 5.0]), interior=[[[0, 1], [2, 3]]])
    assert len(lu.kept) == 0 and lu.fill == 0
    B = np.column_stack([np.ones(4), np.arange(4.0)])
    assert np.allclose(lu.solve(B), B / np.array([2.0, 3.0, 4.0, 5.0])[:, None], rtol=1e-15)
    assert lu.refinements == 0


def test_lu_overflowing_solution_is_reported_without_warning():
    # equilibration solves [1e-300] x = 1e300 exactly, and x = 1e600 overflows
    # only when the right-hand side's size is put back
    lu = LUSolver(sp.csr_matrix([[1e-300]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="non-finite"):
            lu.solve(np.array([1e300]))


# ---------------------------------------------------------------------------
# constrained operator


def _slip_system():
    """Example 1 layout with slip walls (rotated node pairs) and nonzero eta data."""
    bcs = [DirichletBC("uf", ("wall",), normal_only=True),
           DirichletBC("eta", ("outer",),
                       value=lambda p, t: np.column_stack([1.0 + p[:, 0], t * p[:, 1]]))]
    return example1_system(4, LOW_ORDER, data_override={}, bcs_override=bcs)


@pytest.fixture(scope="module")
def slip_problem():
    """Step matrix with slip walls (rotated node pairs) and nonzero data."""
    system = _slip_system()
    cons = system.constraints
    assert len(cons.pairs)
    R = cons.rotation(system.n_dofs)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal((system.n_dofs, 3))
    G = np.column_stack([cons.values(t) for t in (0.0, 0.5, 1.0)])
    op = ConstrainedOperator(system.M, cons)
    return system.M, cons, R, op, rhs, G


def test_constrained_fixed_dofs_take_data(slip_problem):
    M, cons, R, op, rhs, G = slip_problem
    x = op.solve(rhs[:, 1], G[:, 1])
    assert np.abs((R @ x)[cons.fixed] - G[:, 1]).max() < 1e-14 * np.abs(G).max()


def test_constrained_free_rows_residual(slip_problem):
    M, cons, R, op, rhs, G = slip_problem
    free = cons.free(M.shape[0])
    x = op.solve(rhs[:, 1], G[:, 1])
    r = (R @ (M @ x - rhs[:, 1]))[free]
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm((R @ rhs[:, 1])[free])


def test_constrained_reaction_on_fixed_rows_only(slip_problem):
    M, cons, R, op, rhs, G = slip_problem
    free = cons.free(M.shape[0])
    x = op.solve(rhs[:, 1], G[:, 1])
    r = M @ x - rhs[:, 1]
    react = R @ (op.R_c.T @ (op.R_c @ r))
    assert np.abs(react[free]).max() <= 1e-14 * np.abs(r).max()
    assert np.abs(react[cons.fixed] - (R @ r)[cons.fixed]).max() <= 1e-14 * np.abs(r).max()


def _reaction_reference(system, cur, prev):
    """The full residual ``M X - L(t) - E X_prev / tau`` on the constrained rows."""
    r = system.M @ cur.X - system.load(cur.t) - (system.E @ prev.X) / system.tau
    return system.op.R_c.T @ (system.op.R_c @ r)


def test_system_reaction_from_constrained_rows_slip():
    # rotated node pairs; the identity is algebraic, so any states will do
    system = _slip_system()
    rng = np.random.default_rng(4)
    prev, cur = (TransientState(X=rng.standard_normal(system.n_dofs), n=n, tau=system.tau)
                 for n in (0, 1))
    want = _reaction_reference(system, cur, prev)
    got = system.reaction(cur, prev)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    free = system.constraints.free(system.n_dofs)
    assert np.all((system.op.R @ got)[free] == 0.0)


def test_constrained_2d_rhs_matches_columns(slip_problem):
    M, cons, R, op, rhs, G = slip_problem
    X = op.solve(rhs, G)
    for j in range(rhs.shape[1]):
        x = op.solve(rhs[:, j], G[:, j])
        assert np.abs(X[:, j] - x).max() <= 1e-12 * np.abs(x).max()


# ---------------------------------------------------------------------------
# boundary conditions and block layout


def _polynomial(c):
    """Vector data polynomial in the point and time: its value at a node is
    the same however many points are evaluated with it."""
    return lambda p, t: np.column_stack([c + p[:, 0] * t, p[:, 1] - c * t])


@pytest.mark.parametrize("bc,elements,message", [
    (DirichletBC("eta_p", ("outer",)), LOW_ORDER, "'eta_p'"),
    (DirichletBC("lam", ("interface",)), LOW_ORDER, "'lam'"),
    (FluxBC("uf", ("wall",)), HIGH_ORDER, "'uf' of family VecP2"),
    (DirichletBC("up", ("outer",)), LOW_ORDER, "'up' of family RT0"),
    (DirichletBC("pf", ("wall",)), LOW_ORDER, "'pf' of family P1"),
    (DirichletBC("uf", ("wal",), value=_polynomial(0.0)), LOW_ORDER,
     "'uf': tag 'wal' matches no boundary edge"),
    (FluxBC("up", ("outer", "wall")), HIGH_ORDER, "'up': tag 'wall' matches no boundary edge"),
    (DirichletBC("eta", ("outer",)), LOW_ORDER, "'eta': a full condition needs a value"),
    (DirichletBC("uf", ("wall",), value=_polynomial(0.0), normal_only=True), HIGH_ORDER,
     "'uf': a normal-only condition takes no value"),
], ids=["unknown-field", "multiplier", "flux-on-VecP2", "dirichlet-on-RT0", "dirichlet-on-P1",
        "unmatched-tag", "unmatched-flux-tag", "missing-value", "ignored-value"])
def test_bc_that_cannot_take_effect_is_rejected(bc, elements, message):
    with pytest.raises(ValueError, match=message):
        example1_system(4, elements, data_override={}, bcs_override=[bc])


def _matches_node_by_node(spaces, offsets, bcs):
    """``build_constraints`` of ``bcs``, checked bit for bit against the
    node-by-node reference."""
    cons = build_constraints(spaces, offsets, bcs)
    fixed, pairs, normals, values = constraints_node_by_node(spaces, offsets, bcs)
    assert np.array_equal(cons.fixed, fixed)
    assert np.array_equal(cons.pairs, pairs) and np.array_equal(cons.normals, normals)
    for t in (0.0, 0.37, 1.0):
        assert np.array_equal(cons.values(t), values(t))
    return cons


@pytest.mark.parametrize("reverse", [False, True], ids=["normal-only-first", "full-first"])
def test_full_condition_wins_where_conditions_share_nodes(reverse):
    system = example1_system(4, HIGH_ORDER)
    f1, f2 = _polynomial(1.0), _polynomial(2.0)
    bcs = [DirichletBC("uf", ("wall",), normal_only=True), DirichletBC("uf", ("interface",), value=f1),
           DirichletBC("eta", ("outer",), normal_only=True), DirichletBC("eta", ("outer",), value=f1)]
    bcs = bcs[::-1] if reverse else bcs
    bcs.append(DirichletBC("eta", ("outer",), value=f2))     # the last full condition gives the value
    cons = _matches_node_by_node(system.spaces, system.offsets, bcs)
    # the two fluid nodes on both the wall and the interface take f1, unrotated
    mesh_f = system.spaces["uf"].mesh
    for x in (0.0, 1.0):
        v = int(np.flatnonzero((mesh_f.nodes == [x, 0.0]).all(axis=1))[0])
        dofs = system.offsets["uf"] + np.array([2 * v, 2 * v + 1])
        pos = np.searchsorted(cons.fixed, dofs)
        assert np.array_equal(cons.fixed[pos], dofs) and not np.isin(cons.pairs, dofs).any()
        assert np.array_equal(cons.values(0.37)[pos], f1(mesh_f.nodes[[v]], 0.37)[0])
    # the displacement holds exactly what the last full condition alone gives
    eta = system.dofs(("eta",))
    alone = build_constraints(system.spaces, system.offsets, [DirichletBC("eta", ("outer",), value=f2)])
    got, want = cons.restrict(eta), alone.restrict(eta)
    assert not len(got.pairs) and np.array_equal(got.fixed, want.fixed)
    assert np.array_equal(got.values(0.37), want.values(0.37))


@pytest.mark.parametrize("family", ["VecP1", "VecP2"])
def test_node_whose_normals_differ_is_pinned(family):
    """A square tilted by 0.3 rad, with two wall nodes moved off the wall:
    one by 1e-10, whose two edge normals stay within 1e-8 (a rotated pair on
    their mean normal), one by 1e-6 (a corner, both components pinned)."""
    m = build_structured((0.0, 1.0, 0.0, 1.0), 4, 4, "fluid",
                         {"left": "left", "right": "right", "top": "top", "bottom": "bottom"})
    nodes = m.nodes.copy()
    bent, kinked = (int(np.flatnonzero((nodes == [0.0, y]).all(axis=1))[0]) for y in (0.25, 0.75))
    nodes[bent, 0] += 1e-10
    nodes[kinked, 0] -= 1e-6
    nodes = nodes @ np.array([[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]])
    mesh = Mesh2D(nodes=nodes, tris=m.tris, tri_tags=m.tri_tags, bedges=m.bedges, bedge_tags=m.bedge_tags)
    spaces, offsets = {"uf": make_space(mesh, family)}, {"uf": 0}
    bcs = [DirichletBC("uf", ("left", "top", "right"), normal_only=True),
           DirichletBC("uf", ("top",), value=_polynomial(1.0)),
           DirichletBC("uf", ("bottom",), normal_only=True),
           DirichletBC("uf", ("right", "bottom"), normal_only=True)]
    cons = _matches_node_by_node(spaces, offsets, bcs)
    assert np.isin([2 * kinked, 2 * kinked + 1], cons.fixed).all()
    assert not np.isin(2 * kinked, cons.pairs)
    row = np.flatnonzero(cons.pairs[:, 0] == 2 * bent)
    assert len(row) == 1 and 2 * bent in cons.fixed and 2 * bent + 1 not in cons.fixed
    left = np.array([-np.cos(0.3), -np.sin(0.3)])
    assert np.abs(cons.normals[row[0]] - left).max() < 1e-9
    corners = np.flatnonzero(np.isin(m.nodes, [0.0, 1.0]).all(axis=1))
    assert len(corners) == 4 and np.isin([2 * corners, 2 * corners + 1], cons.fixed).all()


def test_bmat_fields_checks_block_shapes():
    sizes = dict(zip(FIELDS, (3, 2, 2, 1, 1, 1)))
    rows = [[None] * len(FIELDS) for _ in FIELDS]
    rows[3][0] = sp.csr_matrix(np.ones((1, 3)))        # (pf, uf)
    assert _bmat_fields(rows, sizes).shape == (10, 10)
    rows[5][2] = sp.csr_matrix(np.ones((1, 3)))        # (lam, eta) must be 1 x 2
    with pytest.raises(ValueError, match=r"block \(lam, eta\) has shape \(1, 3\), expected \(1, 2\)"):
        _bmat_fields(rows, sizes)


# ---------------------------------------------------------------------------
# sub-problems as slices of the system


def _sub_layout_constraints(system, names):
    """``build_constraints`` run on the layout of the fields ``names`` alone."""
    offsets, off = {}, 0
    for n in FIELDS:
        if n in names:
            offsets[n], off = off, off + system.sizes[n]
    return build_constraints(system.spaces, offsets, [bc for bc in system.bcs if bc.field in names])


@pytest.fixture(scope="module", params=["slip", "example2"])
def bc_system(request):
    if request.param == "slip":
        return _slip_system()
    from stokesbiot.scenarios import build_scenario_system, example2_config

    return build_scenario_system(example2_config(resolution=0.05))


@pytest.mark.parametrize("names", [("uf", "up", "pf", "lam"), ("up", "pp"), ("uf", "up", "eta")],
                         ids=["initialization", "darcy-extension", "inf-sup"])
def test_restricted_constraints_match_sub_layout(bc_system, names):
    got = bc_system.constraints.restrict(bc_system.dofs(names))
    want = _sub_layout_constraints(bc_system, names)
    assert np.array_equal(got.fixed, want.fixed)
    assert np.array_equal(got.pairs, want.pairs) and np.array_equal(got.normals, want.normals)
    for t in (0.0, 0.37):
        assert np.array_equal(got.values(t), want.values(t))


def test_rotation_matches_entry_by_entry_build(bc_system, request):
    cons = bc_system.constraints
    if request.node.callspec.params["bc_system"] == "example2":
        assert len(cons.pairs) == 121
    n = bc_system.n_dofs
    want = sp.identity(n, format="lil")
    for (dx, dy), (nx, ny) in zip(cons.pairs.tolist(), cons.normals.tolist()):
        want[dx, dx], want[dx, dy] = nx, ny
        want[dy, dx], want[dy, dy] = -ny, nx
    want = want.tocsr()
    got = cons.rotation(n)
    assert (cons.normals == 0.0).any()     # zero components store no entry
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_restrict_rejects_a_split_rotated_pair(slip_problem):
    _, cons, *_ = slip_problem
    dx, dy = cons.pairs[0]
    keep = np.setdiff1d(np.arange(max(dx, dy) + 1), [dy])
    with pytest.raises(ValueError, match="split"):
        cons.restrict(keep)


@pytest.mark.parametrize("case", ["low-nm-8", "high-8", "slip"])
def test_initial_state_solves_algebraic_rows(case):
    """After ``initial_state`` the free rows of (u_f, u_p, p_f, lambda) of
    H X0 + E X0' = L(0), in the rotated frame, hold to round-off."""
    ms = example1_solution()
    if case == "slip":
        system = _slip_system()
    else:
        elements, matching = {"low-nm-8": (LOW_ORDER, False), "high-8": (HIGH_ORDER, True)}[case]
        system = example1_system(8, elements, matching=matching)
    state = system.initial_state(pp0=lambda p: ms.pp(p, 0.0), eta0=lambda p: ms.eta(p, 0.0),
                                 eta_dot0=lambda p: ms.dt_eta(p, 0.0))
    from stokesbiot.spaces import nodal_interpolate

    Xdot = system.pack(eta=nodal_interpolate(system.spaces["eta"], lambda p: ms.dt_eta(p, 0.0)))
    S = system.dofs(("uf", "up", "pf", "lam"))
    terms = [(system.H @ state.X)[S], (system.E @ Xdot)[S], system.load(0.0)[S]]
    cons = system.constraints.restrict(S)
    R = cons.rotation(len(S))
    r = terms[0] + terms[1] - terms[2]
    r = (r if R is None else R @ r)[cons.free(len(S))]
    scale = max(np.abs(t).max() for t in terms)
    assert scale > 0
    assert np.abs(r).max() <= 1e-12 * scale


def test_build_constraints_runs_once_per_system(monkeypatch):
    import stokesbiot.solver
    from stokesbiot.verify import inf_sup_estimate, multiplier_seminorm_gram

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_constraints(*args, **kwargs)

    monkeypatch.setattr(stokesbiot.solver, "build_constraints", counted)
    ms = example1_solution()
    system = example1_system(4, LOW_ORDER)
    system.initial_state(pp0=lambda p: ms.pp(p, 0.0), eta0=lambda p: ms.eta(p, 0.0))
    assert len(calls) == 1
    multiplier_seminorm_gram(system)
    inf_sup_estimate(system)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# system structure


@pytest.fixture(scope="module")
def small_system():
    return example1_system(4, LOW_ORDER, tau=1e-3)


def test_E_structure_columns(small_system):
    """E may only touch the displacement and pore-pressure columns."""
    system = small_system
    E = system.E.tocsc()
    o, s = system.offsets, system.sizes
    allowed = np.zeros(system.n_dofs, dtype=bool)
    allowed[o["eta"]:o["eta"] + s["eta"]] = True
    allowed[o["pp"]:o["pp"] + s["pp"]] = True
    nz_cols = np.unique(E.indices) if E.format == "csr" else np.unique(sp.coo_matrix(E).col)
    assert np.all(allowed[nz_cols])


def test_E_structure_alpha_zero():
    """With s0 = alpha_bjs = alpha = 0 only the constraint row block remains."""
    params = verification_params().with_overrides(s0=0.0, alpha_bjs=0.0, alpha=0.0)
    system = example1_system(4, LOW_ORDER, params=params)
    E = sp.coo_matrix(system.E)
    keep = np.abs(E.data) > 0
    rows, cols = E.row[keep], E.col[keep]
    o, s = system.offsets, system.sizes
    assert np.all(rows >= o["lam"])
    assert np.all((cols >= o["eta"]) & (cols < o["eta"] + s["eta"]))


def test_tau_linearity(small_system):
    sys1 = small_system
    sys2 = example1_system(4, LOW_ORDER, tau=0.5e-3)
    d1 = (sys1.M - sys1.H)
    d2 = (sys2.M - sys2.H)
    assert np.abs((d2 - 2 * d1).toarray()).max() < 1e-9 * np.abs(d1.toarray()).max()


def test_dense_reassembly_oracle(small_system):
    """The step operator equals a hand-placed dense block matrix."""
    system = small_system
    b = system.blocks
    o, s = system.offsets, system.sizes
    tau = system.tau
    alpha = system.params.alpha
    s0 = system.params.s0
    N = system.n_dofs
    M = np.zeros((N, N))

    def put(rname, cname, mat, factor=1.0):
        M[o[rname]:o[rname] + s[rname], o[cname]:o[cname] + s[cname]] += factor * mat.toarray()

    put("uf", "uf", b["Af"])
    put("uf", "uf", b["Mff"])
    put("uf", "eta", b["Mfe"], -1.0 / tau)
    put("uf", "pf", b["Df"].T, -1.0)
    put("uf", "lam", b["Bf"].T)
    put("up", "up", b["Ap"])
    put("up", "pp", b["Dp"].T, -1.0)
    put("up", "lam", b["Bp"].T)
    put("eta", "uf", b["Mfe"].T, -1.0)
    put("eta", "eta", b["Ae"])
    put("eta", "eta", b["Mee"], 1.0 / tau)
    put("eta", "pp", b["Dep"].T, -alpha)
    put("eta", "lam", b["Be"].T)
    put("pf", "uf", b["Df"])
    put("pp", "up", b["Dp"])
    put("pp", "eta", b["Dep"], alpha / tau)
    put("pp", "pp", b["Mp"], s0 / tau)
    put("lam", "uf", b["Bf"], -1.0)
    put("lam", "up", b["Bp"], -1.0)
    put("lam", "eta", b["Be"], -1.0 / tau)
    assert np.abs(system.M.toarray() - M).max() < 1e-12 * np.abs(M).max()


def test_zero_data_stays_zero():
    # eta pinned on the outer boundary: without it the step matrix has the
    # three rigid modes of eta and is singular
    params = verification_params()
    pin = DirichletBC("eta", ("outer",), value=lambda p, t: np.zeros((len(p), 2)))
    system = example1_system(4, LOW_ORDER, params=params, data_override={}, bcs_override=[pin])
    state = TransientState(X=np.zeros(system.n_dofs), n=0, tau=system.tau)
    for _ in range(3):
        state = system.step(state)
        assert np.abs(state.X).max() < 1e-12
    assert system.lu.refinements == 0


def test_non_finite_block_names_its_parameters():
    # 2 mu overflows in the Stokes viscous block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="non-finite entry in block Af, built from mu$"):
            example1_system(4, LOW_ORDER, params=replace(verification_params(), mu=1e308))


def test_invalid_tau():
    with pytest.raises(ValueError):
        example1_system(4, LOW_ORDER, tau=-1.0)


def test_bad_load_data_rejected_before_factorization(monkeypatch):
    import stokesbiot.solver

    def no_factorization(*args, **kwargs):
        raise AssertionError("no factorization may start")

    monkeypatch.setattr(stokesbiot.solver, "LUSolver", no_factorization)
    with pytest.raises(ValueError, match="'static'"):
        example1_system(4, LOW_ORDER, data_override={"static": True})


# ---------------------------------------------------------------------------
# stepping on the verification problem


@pytest.fixture(scope="module")
def example1_run():
    ms = example1_solution()
    system = example1_system(8, LOW_ORDER)
    states, diags = run_example1(system, ms)
    return system, states, diags


def test_constraint_residual_every_step(example1_run):
    system, states, _ = example1_run
    for prev, cur in zip(states[:-1], states[1:]):
        assert system.constraint_residual(cur, prev) < 1e-9


def test_energy_identity_every_step(example1_run):
    from stokesbiot.verify import energy_identity_residual

    system, states, _ = example1_run
    for prev, cur in zip(states[:-1], states[1:]):
        assert energy_identity_residual(system, cur, prev) < 1e-8


def test_energy_identity_detects_perturbation(example1_run):
    from stokesbiot.verify import energy_identity_residual

    system, states, _ = example1_run
    prev, cur = states[-2], states[-1]
    bad = TransientState(X=cur.X.copy(), n=cur.n, tau=cur.tau)
    system.view(bad.X, "uf")[:] += 1e-3
    assert energy_identity_residual(system, bad, prev) > 1e-6


def test_system_reaction_from_constrained_rows_example1(example1_run):
    system, states, _ = example1_run
    for prev, cur in zip(states[:-1], states[1:]):
        want = _reaction_reference(system, cur, prev)
        assert np.abs(system.reaction(cur, prev) - want).max() <= 1e-12 * np.abs(want).max()


def test_energy_identity_recomputes_writable_state(example1_run):
    from stokesbiot.verify import energy_identity_residual

    system, states, _ = example1_run
    prev, cur = states[-2], states[-1]
    assert not cur.X.flags.writeable
    first = [energy_identity_residual(system, cur, prev) for _ in range(2)]
    assert first[0] == first[1]
    # the same values in writable states give a bit-identical residual
    fresh_prev, fresh = (TransientState(X=s.X.copy(), n=s.n, tau=s.tau) for s in (prev, cur))
    assert energy_identity_residual(system, fresh, fresh_prev) == first[0]
    # a change after the first call is seen by the second, which equals the
    # residual of a new state holding the changed values
    system.view(fresh.X, "pp")[:] *= 1.0 + 1e-3
    changed = energy_identity_residual(system, fresh, fresh_prev)
    new = TransientState(X=fresh.X.copy(), n=cur.n, tau=cur.tau)
    assert changed > 1e-6 and changed == energy_identity_residual(system, new, fresh_prev)


def test_step_states_and_loads_are_read_only(example1_run):
    system, states, _ = example1_run
    assert all(not s.X.flags.writeable for s in states[1:])
    L = system.load(states[-1].t)
    assert system.load(states[-1].t) is L and not L.flags.writeable
    assert system.load(0.0) is not L


def test_factorization_reuse_identical(example1_run):
    system, states, _ = example1_run
    ms = example1_solution()
    fresh = example1_system(8, LOW_ORDER)
    s_re = system.step(states[0])
    s_fresh = fresh.step(states[0])
    assert np.abs(s_re.X - s_fresh.X).max() <= 1e-14 * max(1.0, np.abs(s_re.X).max())


def test_consistent_initialization(example1_run):
    """The t=0 fill satisfies the Darcy row and approximates the exact fields."""
    system, states, _ = example1_run
    ms = example1_solution()
    state0 = states[0]
    b = system.blocks
    up0 = system.view(state0.X, "up")
    pp0 = system.view(state0.X, "pp")
    lam0 = system.view(state0.X, "lam")
    L0 = system.load(0.0)
    res = b["Ap"] @ up0 - b["Dp"].T @ pp0 + b["Bp"].T @ lam0 - system.view(L0, "up")
    assert np.abs(res).max() < 1e-9 * max(1.0, np.abs(up0).max())
    # compares with the exact Darcy velocity at t = 0 (first-order accurate)
    up_exact = rt_interpolate(system.spaces["up"], lambda p: ms.up(p, 0.0))
    rel = np.abs(up0 - up_exact).max() / np.abs(up_exact).max()
    assert rel < 0.2


def test_run_transient_step_counts():
    ms = example1_solution()
    system = example1_system(4, LOW_ORDER, tau=1e-3)
    state0 = system.initial_state(pp0=lambda p: ms.pp(p, 0.0),
                                  eta0=lambda p: ms.eta(p, 0.0), eta_dot0=None)
    states, _ = run_transient(system, 0.01, state0, output_stride=1)
    assert len(states) == 11           # initial + 10 steps
    states, _ = run_transient(system, 0.01, state0, output_stride=0)
    assert len(states) == 2            # initial + final only
    states, _ = run_transient(system, 0.01, state0, output_stride=3)
    assert [s.n for s in states] == [0, 3, 6, 9, 10]
    with pytest.raises(ValueError):
        run_transient(system, 0.0105, state0)


def test_stability_zero_forcing_random_data():
    """Discrete energy non-increasing with zero loads and boundary data."""
    from stokesbiot.verify import discrete_energy

    params = verification_params()
    zero = lambda p, t: np.zeros((len(p), 2))
    data = {"darcy_pressure": (("outer",), Separable(lambda p: np.zeros(len(p))))}
    from stokesbiot.solver import DirichletBC

    bcs = [DirichletBC("uf", ("wall",), value=zero),
           DirichletBC("eta", ("outer",), value=zero)]
    system = example1_system(4, LOW_ORDER, params=params, data_override=data, bcs_override=bcs)
    rng = np.random.default_rng(42)
    state = TransientState(X=np.zeros(system.n_dofs), n=0, tau=system.tau)
    # random consistent initial data: free interior displacement / pressure
    system.view(state.X, "pp")[:] = rng.standard_normal(system.sizes["pp"])
    eta = rng.standard_normal(system.sizes["eta"])
    # respect the homogeneous Dirichlet condition on the outer boundary
    mesh = system.spaces["eta"].mesh
    fixed_nodes = np.unique(mesh.bedges[mesh.boundary_edge_ids("outer")])
    eta[2 * fixed_nodes] = 0.0
    eta[2 * fixed_nodes + 1] = 0.0
    system.view(state.X, "eta")[:] = eta
    energies = [discrete_energy(system, state)]
    for _ in range(50):
        state = system.step(state)
        energies.append(discrete_energy(system, state))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * max(energies))


# ---------------------------------------------------------------------------
# static condensation of cell-interior unknowns


def _block_system(rng, cells=30, k=3, n_kept=40):
    """Random nonsingular matrix whose first ``cells * k`` unknowns couple
    only within their own cell, unknowns scaled over 1e-2 ... 1e2."""
    n_I = cells * k
    n = n_I + n_kept
    A = rng.standard_normal((n, n)) + 10 * np.eye(n)
    cell = np.arange(n_I) // k
    A[:n_I, :n_I] *= cell[:, None] == cell[None, :]
    d = np.logspace(-2, 2, n)[rng.permutation(n)]
    return d[:, None] * A * d[None, :], np.arange(n_I).reshape(cells, k)


def test_condensed_lu_matches_oracle_on_both_paths():
    rng = np.random.default_rng(11)
    A, interior = _block_system(rng)
    b = rng.standard_normal(len(A))
    x_star = dense_gauss_oracle(A, b)
    lu = LUSolver(sp.csc_matrix(A), interior=[interior])
    assert np.array_equal(lu.interior, interior.ravel())
    assert len(lu.kept) == len(A) - interior.size
    x = lu.solve(b)
    assert lu.refinements == 0
    assert np.abs(x - x_star).max() < 1e-10 * np.abs(x_star).max()
    assert _scaled_residual(lu, A, b, x) <= REFINE_TOL


def test_sparse_cell_solve_matches_batched_matmul():
    rng = np.random.default_rng(15)
    m, k = 40, 5
    B = rng.standard_normal((m, k, k)) * np.logspace(-3, 3, k)[rng.permutation(k)]
    R = rng.standard_normal((m * k, 3))
    factors = _scaled_svd(B)
    r, c, Ut, s, V = factors
    Y = np.matmul(Ut, R.reshape(m, k, -1) * r[:, :, None]) / s[:, :, None]
    want = (np.matmul(V, Y) * c[:, :, None]).reshape(R.shape)
    got = _CellBlocks(*factors).solve(R)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.allclose(np.einsum("mij,mjn->min", B, got.reshape(m, k, -1)), R.reshape(m, k, -1),
                       rtol=0, atol=1e-10 * np.abs(R).max())


def test_condensation_rejects_coupled_cells():
    rng = np.random.default_rng(12)
    A, interior = _block_system(rng)
    A[4, 7] = 1.0          # unknown 4 is in cell 1, unknown 7 in cell 2
    with pytest.raises(ValueError, match="interior unknowns 4 and 7 of different cells"):
        LUSolver(sp.csc_matrix(A), interior=[interior])
    with pytest.raises(ValueError, match="listed twice"):
        LUSolver(sp.csc_matrix(A), interior=[interior[:1], interior[:1]])


def test_condensation_keeps_singular_cell_blocks():
    # cell 2's block is singular while the whole matrix is not: its unknowns
    # stay in the Schur complement and the solve is still exact
    rng = np.random.default_rng(13)
    A, interior = _block_system(rng)
    A[6:9, 6:9] = np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5])
    b = rng.standard_normal(len(A))
    lu = LUSolver(sp.csc_matrix(A), interior=[interior])
    assert not np.isin([6, 7, 8], lu.interior).any()
    assert len(lu.interior) == interior.size - 3
    x = lu.solve(b)
    assert lu.refinements == 0
    assert _scaled_residual(lu, A, b, x) <= REFINE_TOL


def test_condensed_lu_refines_when_full_residual_misses():
    rng = np.random.default_rng(14)
    A, interior = _block_system(rng)
    b = rng.standard_normal(len(A))
    lu = LUSolver(sp.csc_matrix(A), interior=[interior])
    # the residual is taken against the full matrix, here 1e-8 away from the factor
    lu.M = sp.csc_matrix(A * (1 + 1e-8 * rng.standard_normal(A.shape)))
    assert _scaled_residual(lu, lu.M, b, lu._solve_scaled(b[:, None])[:, 0]) > REFINE_TOL
    x = lu.solve(b)
    assert lu.refinements == 1
    assert _scaled_residual(lu, lu.M, b, x) <= REFINE_TOL


def test_constrained_operator_rejects_constrained_interior_dof(slip_problem):
    M, cons, R, op, rhs, G = slip_problem
    with pytest.raises(ValueError, match=f"interior dof {cons.fixed[0]} is constrained"):
        ConstrainedOperator(M, cons, interior=[np.array([[cons.fixed[0]]])])


def _compare_condensed_steps(system, state, steps, tol):
    """Steps of the condensed ``system.op`` against an uncondensed operator,
    relative to the largest unknown; returns the largest differences of the
    condensed and the uncondensed solve from a reference solve refined twice."""
    plain = ConstrainedOperator(system.M, system.constraints)
    assert len(plain.lu.interior) == 0
    worst = [0.0, 0.0]
    for _ in range(steps):
        t1 = (state.n + 1) * system.tau
        rhs = system.load(t1) + (system.E @ state.X) / system.tau
        g = system.constraints.values(t1)
        x, y = system.op.solve(rhs, g), plain.solve(rhs, g)
        ref = y
        for _ in range(2):
            ref = ref + plain.solve(rhs - system.M @ ref, np.zeros_like(g))
        scale = np.abs(ref).max()
        assert np.abs(x - y).max() <= tol * scale
        worst = [max(w, np.abs(v - ref).max() / scale) for w, v in zip(worst, (x, y))]
        state = TransientState(X=x, n=state.n + 1, tau=system.tau)
    assert system.lu.refinements == 0
    return worst


@pytest.mark.parametrize("elements,matching", [(LOW_ORDER, False), (HIGH_ORDER, True)])
def test_condensed_solve_matches_uncondensed_example1(elements, matching):
    ms = example1_solution()
    system = example1_system(8, elements, matching=matching)
    lu = system.lu
    fields = ("uf", "up", "pp") if elements is HIGH_ORDER else ("uf", "pp")
    interior = np.concatenate([system.spaces[n].interior_dofs().ravel() + system.offsets[n]
                               for n in fields])
    assert np.array_equal(np.sort(system.op.free[lu.interior]), np.sort(interior))
    state = system.initial_state(pp0=lambda p: ms.pp(p, 0.0), eta0=lambda p: ms.eta(p, 0.0),
                                 eta_dot0=lambda p: ms.dt_eta(p, 0.0))
    condensed, uncondensed = _compare_condensed_steps(system, state, 3, 1e-10)
    assert condensed <= 1e-10 and uncondensed <= 1e-10


def test_condensed_solve_matches_uncondensed_example2():
    from stokesbiot.scenarios import build_scenario_system, example2_config

    system = build_scenario_system(example2_config(resolution=0.05))
    assert len(system.lu.kept) < 0.6 * len(system.op.free)
    state = system.initial_state(pp0=lambda p: np.full(len(p), 1000.0))
    # the uncondensed solve is off by up to 1.8e-10 of the largest unknown
    # (p_p) from the refined one; the condensed solve is closer
    condensed, uncondensed = _compare_condensed_steps(system, state, 5, 3e-10)
    assert condensed <= 1e-10 and condensed <= uncondensed


def test_no_storage_leaves_pore_pressure_uncondensed():
    # with s0 = 0 the RT1 + P1dc cell block is singular: only the RT1
    # interior moments are condensed, and the run steps as before
    ms = example1_solution()
    params = verification_params().with_overrides(s0=0.0)
    system = example1_system(4, HIGH_ORDER, params=params)
    condensed = system.op.free[system.lu.interior]
    up = system.offsets["up"] + system.spaces["up"].interior_dofs().ravel()
    assert np.array_equal(np.sort(condensed), np.sort(up))
    states, diags = run_example1(system, ms, T=0.003, collect_diagnostics=True)
    assert len(states) == 4
    assert max(d["constraint_residual"] for d in diags) < 1e-9
    assert system.lu.refinements == 0


# ---------------------------------------------------------------------------
# ordering of the condensed factor


def _saddle_system(rng, n_u=397, lam_diag=(0.0, 0.0, 0.0), duplicate=False):
    """``[A -B^T; B C]`` in the sign convention of ``CoupledSystem``: ``A``
    positive definite, three multipliers touching two unknowns each, ``C``
    diagonal with ``lam_diag``; ``duplicate`` repeats the second multiplier."""
    A = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n_u, n_u))
    cols = rng.choice(n_u, size=(3, 2), replace=False)
    B = sp.csr_matrix((rng.uniform(1.0, 2.0, 6), (np.repeat(np.arange(3), 2), cols.ravel())),
                      shape=(3, n_u))
    if duplicate:
        B = sp.vstack([B[:2], B[1]])
    return sp.bmat([[A, -B.T], [B, sp.diags(lam_diag)]], format="csc")


def _placement(S, missing, order):
    """For each unknown of ``missing``, its position in ``order`` and the
    last position there of its neighbours in the pattern of ``S`` (either
    way round) that have a diagonal, -1 for none."""
    pos = np.empty(len(order), dtype=np.int64)
    pos[order] = np.arange(len(order))
    C = S.tocoo()
    r, c = np.concatenate([C.row, C.col]), np.concatenate([C.col, C.row])
    edge = missing[r] & ~missing[c]
    last = np.full(S.shape[0], -1)
    np.maximum.at(last, r[edge], pos[c[edge]])
    return pos[missing], last[missing]


def test_roundoff_multiplier_diagonal_counts_as_missing():
    # 1e-30 on a multiplier's diagonal is round-off: that unknown, like the
    # other multipliers, is ordered right after its last neighbour with a
    # diagonal, not pivoted early
    rng = np.random.default_rng(3)
    K = _saddle_system(rng, lam_diag=(1e-30, 0.0, 0.0))
    lu = LUSolver(K)
    assert lu.ordering == "symmetric" and lu.missing_share == 3 / 400
    missing = np.arange(400) >= 397
    at, last = _placement(K, missing, lu.kept)
    assert np.array_equal(at, last + 1) and not np.array_equal(np.sort(at), [397, 398, 399])
    b = rng.standard_normal(K.shape[0])
    x = lu.solve(b)
    assert lu.refinements == 0
    assert np.abs(x - np.linalg.solve(K.toarray(), b)).max() < 1e-12 * np.abs(x).max()


def test_multipliers_without_a_neighbour_with_a_diagonal_go_last():
    # two multipliers coupled only to each other: nothing gives them a
    # diagonal, so they are ordered last and pivoted off the diagonal
    rng = np.random.default_rng(3)
    K = sp.block_diag([_saddle_system(rng), sp.csr_matrix([[0.0, -1.5], [1.5, 0.0]])], format="csc")
    lu = LUSolver(K)
    assert lu.ordering == "symmetric" and lu.missing_share == 5 / 402
    assert np.array_equal(np.sort(lu.kept[-2:]), [400, 401])
    assert _solves_exactly(lu, K) and lu.refinements == 0


def test_duplicated_multiplier_raises_on_symmetric_path():
    rng = np.random.default_rng(3)
    assert LUSolver(_saddle_system(rng)).ordering == "symmetric"
    K = _saddle_system(np.random.default_rng(3), duplicate=True)
    with pytest.raises(SingularMatrixError):
        LUSolver(K).solve(np.ones(K.shape[0]))


def test_symmetric_order_needs_few_missing_diagonals_of_one_sign():
    # SYMMETRIC_ORDER_SHARE = 0.2: 3 multipliers of 16 unknowns, and of 14
    for n_u, ordering in ((13, "symmetric"), (11, "colamd")):
        lu = LUSolver(_saddle_system(np.random.default_rng(3), n_u=n_u))
        assert lu.missing_share == 3 / (n_u + 3) and lu.ordering == ordering
    K = _saddle_system(np.random.default_rng(3)).tolil()
    K[5, 5] = -K[5, 5]
    lu = LUSolver(K.tocsc())
    assert lu.diagonal_ratio < 0 and lu.ordering == "colamd"


def _solves_exactly(lu, K):
    b = np.random.default_rng(5).standard_normal(K.shape[0])
    x = lu.solve(b)
    return np.abs(x - np.linalg.solve(K.toarray(), b)).max() < 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("c,inverse_ratio,ordering", [(4.68e-3, 192.2, "symmetric"),
                                                      (4.32e-3, 208.2, "colamd")])
def test_symmetric_order_needs_diagonals_near_their_column_scale(c, inverse_ratio, ordering):
    # a multiplier with diagonal c: 1 / diagonal_ratio against SYMMETRIC_ORDER_COND
    # = 200 (example2's uncondensed step operator reads 7.1e4)
    K = _saddle_system(np.random.default_rng(3), lam_diag=(c, 0.0, 0.0))
    lu = LUSolver(K)
    assert 1 / lu.diagonal_ratio == pytest.approx(inverse_ratio, rel=1e-3)
    assert lu.ordering == ordering
    assert _solves_exactly(lu, K) and lu.refinements == 0


def _cell_system(cond):
    """``_saddle_system`` in which unknowns 0 and 1 form a cell whose scaled
    block has condition number ``cond``, coupled weakly enough to unknown 2
    that ``A`` stays positive definite."""
    eps = 2 / (cond + 1)
    K = _saddle_system(np.random.default_rng(3)).tolil()
    K[0, 1] = K[1, 0] = -4 * (1 - eps)
    K[1, 2] = K[2, 1] = -0.25
    return K.tocsr()


@pytest.mark.parametrize("cond,ordering", [(190, "symmetric"), (210, "colamd")])
def test_symmetric_order_needs_well_conditioned_cells(cond, ordering):
    # interior_cond against SYMMETRIC_ORDER_COND = 200 (example2's condensed
    # operators read 2.3e4 and 8.9e4, Example 1's at most 4)
    K = _cell_system(cond)
    lu = LUSolver(K, interior=[np.array([[0, 1]])])
    assert lu.interior_cond == pytest.approx(cond) and lu.ordering == ordering
    assert _solves_exactly(lu, K) and lu.refinements == 0


def test_symmetric_order_survives_renumbering():
    """The low-order matching h = 1/16 step operator, renumbered at random:
    an order that eliminates every Stokes pressure before the interface
    velocities meets MINI's constant-pressure mode as a zero pivot, which
    must give way to an off-diagonal one (the sixth renumbering failed with
    a scaled residual of 7.8e-2 while the pivots were all diagonal)."""
    op = example1_system(16, LOW_ORDER, matching=True).op
    n = op.A_ff.shape[0]
    rng = np.random.default_rng(0)
    b = rng.standard_normal(n)
    for _ in range(12):
        p = rng.permutation(n)
        new = np.empty(n, dtype=np.int64)
        new[p] = np.arange(n)
        lu = LUSolver(op.A_ff[p][:, p], interior=[new[g] for g in op.interior])
        assert lu.ordering == "symmetric"
        lu.solve(b)
        assert lu.max_residual <= REFINE_TOL


def _step_and_init_factors(build):
    """The system ``build()`` makes and the factors of its
    consistent-initialization and step operators, in that order."""
    made = []
    init = LUSolver.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LUSolver, "__init__", spy)
        system = build()
        system.initial_state()
    assert len(made) == 2 and made[1] is system.lu
    return system, made


@pytest.fixture
def factor_log(monkeypatch):
    """Weak references to the ``LUSolver``s made from now on, in order, and
    for each one whether those before it were alive when it started."""
    refs, alive = [], []
    init = LUSolver.__init__

    def spy(self, *args, **kwargs):
        alive.append([r() is not None for r in refs])
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(LUSolver, "__init__", spy)
    return refs, alive


def test_step_factor_made_after_init_factor_is_freed(factor_log):
    refs, alive = factor_log
    system = example1_system(4, LOW_ORDER, matching=False)
    assert refs == []                 # construction factorizes nothing
    system.initial_state()
    assert len(refs) == 2 and refs[1]() is system.lu
    assert alive == [[], [False]]     # the initialization factor was unreachable


def test_step_without_initial_state_factorizes_once(factor_log):
    refs, _ = factor_log
    system = example1_system(4, LOW_ORDER, matching=False)
    state = TransientState(X=np.zeros(system.n_dofs), n=0, tau=system.tau)
    system.step(system.step(state))
    assert len(refs) == 1 and refs[0]() is system.lu


def test_lu_memory_budget():
    """``LUSolver`` holds the CSR matrix it is given, not a copy of it.

    On the low-order, non-matching h = 1/32 step operator, in units of the
    bytes of the input (data, indices and row pointers): the numpy memory
    the solver keeps is at most 0.9 (0.82 measured, 1.82 with a CSC copy)
    and its peak while it is made at most 5.6 (5.21 measured, 7.87 with
    the copy and an ``abs(M)`` matrix).  ``tracemalloc`` sees numpy's
    allocations only: SuperLU's factor and work space are not counted.
    """
    system = example1_system(32, LOW_ORDER, matching=False)
    M = system.M_ff
    size = M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        lu = LUSolver(M, interior=system.op.interior)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lu.M is M and lu.fill > 0
    assert kept - base <= 0.9 * size
    assert peak - base <= 5.6 * size


def test_tabulations_are_not_retained():
    """Building a system and its first load keeps no quadrature or basis
    tabulation: on the low-order, non-matching h = 1/16 system the memory
    still held afterwards is at most 6.0 times the bytes of ``M`` (5.53
    measured; 10.86 when every rule's tabulation was kept with the mesh and
    space)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = example1_system(16, LOW_ORDER, matching=False)
        system.load(0.0)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    M = system.M
    assert kept <= 6.0 * (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)


def test_system_holds_each_operator_once():
    """A system keeps ``blocks``, ``E`` and the constrained step operator,
    and builds ``H`` and ``M`` on each read: on the low-order, non-matching
    h = 1/16 system the memory held after construction and the first load
    is at most 4.0 times the bytes of ``M`` (3.44 measured; 5.53 with ``H``
    and ``M`` stored)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = example1_system(16, LOW_ORDER, matching=False)
        system.load(0.0)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert "H" not in vars(system) and "M" not in vars(system)
    M = system.M
    assert kept <= 4.0 * (M.data.nbytes + M.indices.nbytes + M.indptr.nbytes)


def _colamd_operator(system, monkeypatch):
    """The step operator of ``system`` factorized in COLAMD order."""
    import stokesbiot.solver

    lu = system.lu        # the system's own factor, made before the order is patched
    monkeypatch.setattr(stokesbiot.solver, "SYMMETRIC_ORDER_SHARE", -1.0)
    interior = [system.interior_dofs(("uf",)), system.interior_dofs(("up", "pp"))]
    op = ConstrainedOperator(system.M, system.constraints, interior=interior)
    assert np.array_equal(np.sort(op.lu.kept), np.sort(lu.kept))
    return op


@pytest.fixture(scope="module")
def low16_factors():
    return _step_and_init_factors(lambda: example1_system(16, LOW_ORDER, matching=False))


def _example2():
    from stokesbiot.scenarios import build_scenario_system, example2_config

    return build_scenario_system(example2_config(resolution=0.05))


@pytest.fixture(scope="module")
def high16_factors():
    return _step_and_init_factors(lambda: example1_system(16, HIGH_ORDER))


@pytest.mark.parametrize("case,ordering", [("low16", "symmetric"), ("high16", "symmetric"),
                                           ("example2", "colamd")])
def test_factor_ordering_per_operator(case, ordering, request):
    if case == "example2":
        _, factors = _step_and_init_factors(_example2)
    else:
        _, factors = request.getfixturevalue(f"{case}_factors")
    for lu in factors:
        assert lu.ordering == ordering
        assert lu.fill == lu._fact.L.nnz + lu._fact.U.nnz > 0
        with pytest.raises(AttributeError):
            lu.ordering = "colamd"
        with pytest.raises(AttributeError):
            lu.fill = 0
        with pytest.raises(AttributeError):
            lu.missing_share = 0.0
        with pytest.raises(AttributeError):
            lu.diagonal_ratio = 1.0


def test_symmetric_solve_matches_colamd(low16_factors, monkeypatch):
    system, _ = low16_factors
    ref = _colamd_operator(system, monkeypatch)
    assert ref.lu.ordering == "colamd"
    B = np.random.default_rng(7).standard_normal((system.n_dofs, 3))
    X, Y = system.op.solve(B), ref.solve(B)
    assert X.shape == B.shape
    assert np.abs(X - Y).max() <= 1e-12 * np.abs(Y).max()
    assert system.lu.refinements == 0


def test_symmetric_order_fill_guard(monkeypatch):
    # the step factor at h = 1/32 holds 1.59M entries against 3.37M in COLAMD order
    system = example1_system(32, LOW_ORDER, matching=False)
    ref = _colamd_operator(system, monkeypatch)
    assert system.lu.ordering == "symmetric"
    assert system.lu.fill <= 0.6 * ref.lu.fill


def test_symmetric_order_fill_guard_high_order(monkeypatch):
    # the high-order step factor at h = 1/16 holds 0.84M entries against 1.41M
    # in COLAMD order
    system = example1_system(16, HIGH_ORDER)
    ref = _colamd_operator(system, monkeypatch)
    assert system.lu.ordering == "symmetric"
    assert system.lu.fill <= 0.65 * ref.lu.fill


def test_high_order_fill_against_colamd(high16_factors, monkeypatch):
    """The high-order h = 1/16 factors against COLAMD's: the step factor
    holds 0.48 of its fill and the initialization factor 0.78 (0.60 and
    1.09 with every unknown without a diagonal ordered last)."""
    import stokesbiot.solver

    _, (init, step) = high16_factors
    monkeypatch.setattr(stokesbiot.solver, "SYMMETRIC_ORDER_SHARE", -1.0)
    _, (init_ref, step_ref) = _step_and_init_factors(lambda: example1_system(16, HIGH_ORDER))
    assert init_ref.ordering == step_ref.ordering == "colamd"
    assert step.fill <= 0.55 * step_ref.fill
    assert init.fill <= 0.9 * init_ref.fill


def test_missing_unknowns_follow_their_neighbours(monkeypatch):
    # the high-order h = 1/8 step operator: each Taylor-Hood pressure and
    # multiplier comes after all of its neighbours with a diagonal
    import stokesbiot.solver

    seen, order_of = [], stokesbiot.solver._symmetric_order

    def spy(S, missing):
        seen.append((S, missing, order_of(S, missing)))
        return seen[-1][2]

    monkeypatch.setattr(stokesbiot.solver, "_symmetric_order", spy)
    assert example1_system(8, HIGH_ORDER).lu.ordering == "symmetric"
    (S, missing, order), = seen
    at, last = _placement(S, missing, order)
    assert missing.any() and np.all(last >= 0) and np.all(at > last)
