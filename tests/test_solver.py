import numpy as np
import pytest
import scipy.sparse as sp

from stokesbiot.assembly import PhysicalParams
from stokesbiot.manufactured import example1_solution, verification_params
from stokesbiot.solver import (DENSE_FALLBACK, ConstrainedOperator, DirichletBC, LUSolver,
                               SingularMatrixError, TransientState, run_transient)
from stokesbiot.verify import LOW_ORDER, example1_system, run_example1


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


# dense_threshold 0 forces SuperLU; the default sends these small matrices
# to dense LAPACK
LU_PATHS = ((0, False), (DENSE_FALLBACK, True))


def test_lu_identity():
    I = sp.identity(40, format="csc")
    b = np.arange(40.0)
    for threshold, dense in LU_PATHS:
        lu = LUSolver(I, dense_threshold=threshold)
        assert lu.dense is dense
        assert np.allclose(lu.solve(b), b, atol=1e-15)


def test_lu_matches_dense_elimination_oracle():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((50, 50)) + 10 * np.eye(50)
    b = rng.standard_normal(50)
    x_star = dense_gauss_oracle(A, b)
    for threshold, dense in LU_PATHS:
        lu = LUSolver(sp.csc_matrix(A), dense_threshold=threshold)
        assert lu.dense is dense
        x = lu.solve(b)
        assert np.linalg.norm(x - x_star) < 1e-10
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12


def test_lu_large_path_residual():
    rng = np.random.default_rng(1)
    n = DENSE_FALLBACK + 500
    A = sp.diags([np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)], [-1, 0, 1]).tocsc()
    b = rng.standard_normal(n)
    lu = LUSolver(A)
    assert not lu.dense
    x = lu.solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12


def test_lu_zero_row_singular():
    A = np.eye(10)
    A[4] = 0.0
    for threshold, _ in LU_PATHS:
        with pytest.raises(SingularMatrixError):
            LUSolver(sp.csc_matrix(A), dense_threshold=threshold)


def test_lu_rejects_nonsquare():
    with pytest.raises(ValueError):
        LUSolver(sp.csc_matrix(np.ones((3, 4))))


# ---------------------------------------------------------------------------
# constrained operator


@pytest.fixture(scope="module")
def slip_problem():
    """Step matrix with slip walls (rotated node pairs) and nonzero data."""
    bcs = [DirichletBC("uf", ("wall",), normal_only=True),
           DirichletBC("eta", ("outer",),
                       value=lambda p, t: np.column_stack([1.0 + p[:, 0], t * p[:, 1]]))]
    system = example1_system(4, LOW_ORDER, data_override={}, bcs_override=bcs, factorize=False)
    cons = system.constraints
    assert cons.rotations
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
    react = R @ op.reaction(r)
    assert np.abs(react[free]).max() <= 1e-14 * np.abs(r).max()
    assert np.abs(react[cons.fixed] - (R @ r)[cons.fixed]).max() <= 1e-14 * np.abs(r).max()


def test_constrained_2d_rhs_matches_columns(slip_problem):
    M, cons, R, op, rhs, G = slip_problem
    X = op.solve(rhs, G)
    for j in range(rhs.shape[1]):
        x = op.solve(rhs[:, j], G[:, j])
        assert np.abs(X[:, j] - x).max() <= 1e-12 * np.abs(x).max()


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
    params = verification_params()
    system = example1_system(4, LOW_ORDER, params=params, data_override={}, bcs_override=[])
    state = system.initial_state(consistency_solve=False)
    for _ in range(3):
        state = system.step(state)
        assert np.abs(state.X).max() < 1e-12


def test_invalid_tau():
    with pytest.raises(ValueError):
        example1_system(4, LOW_ORDER, tau=-1.0)


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
    from stokesbiot.spaces import rt_interpolate

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
    data = {"darcy_pressure": (("outer",), lambda p, t: np.zeros(len(p))), "static": True}
    from stokesbiot.solver import DirichletBC

    bcs = [DirichletBC("uf", ("wall",), value=zero),
           DirichletBC("eta", ("outer",), value=zero)]
    system = example1_system(4, LOW_ORDER, params=params, data_override=data, bcs_override=bcs)
    rng = np.random.default_rng(42)
    state = system.initial_state(consistency_solve=False)
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
