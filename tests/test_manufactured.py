"""The closed-form solution satisfies the strong equations and interface
conditions; sources are gated by a finite-difference residual oracle."""

import numpy as np

from stokesbiot.manufactured import derive_sources, example1_solution, verification_params

MS = example1_solution()
PARAMS = verification_params()


def rand_points(n, lo, hi, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    pts[:, 0] = 0.02 + 0.96 * pts[:, 0]
    pts[:, 1] = lo + (hi - lo) * (0.02 + 0.96 * pts[:, 1])
    return pts


def test_pressure_offset_constant():
    pts = rand_points(40, 0.0, 1.0, 1)
    for t in (0.0, 0.3, 0.7):
        diff = MS.pf(pts, t) - MS.pp(pts, t)
        assert np.allclose(diff, 2 * np.pi * np.cos(np.pi * t), atol=1e-13)


def test_uf_vanishes_when_cos_zero():
    pts = rand_points(20, 0.0, 1.0, 2)
    assert np.abs(MS.uf(pts, 0.5)).max() < 1e-14


def test_div_uf_closed_form():
    pts = rand_points(20, 0.0, 1.0, 3)
    for t in (0.1, 0.9):
        assert np.allclose(MS.div_uf(pts, t), -2 * np.pi * np.cos(np.pi * t), atol=1e-14)


def test_darcy_law_residual_zero():
    pts = rand_points(50, -1.0, 0.0, 4)
    for t in (0.0, 0.4):
        res = PARAMS.mu * MS.up(pts, t) + MS.grad_pp(pts, t)   # K = I
        assert np.abs(res).max() < 1e-13


def test_sources_dropout_without_storage_and_coupling():
    params = PARAMS.with_overrides(s0=0.0, alpha=0.0)
    _, _, _, qp = derive_sources(MS, params)
    pts = rand_points(30, -1.0, 0.0, 5)
    assert np.allclose(qp(pts, 0.2), MS.div_up(pts, 0.2), atol=1e-13)


def test_qf_equals_div_uf():
    _, qf, _, _ = derive_sources(MS, PARAMS)
    pts = rand_points(10, 0.0, 1.0, 6)
    assert np.allclose(qf(pts, 0.3), -2 * np.pi * np.cos(np.pi * 0.3), atol=1e-14)


# ---------------------------------------------------------------------------
# finite-difference oracle over the strong equations


FD_H = 1e-3


def _fd4(values):
    """4th-order central difference from samples at -2h, -h, +h, +2h."""
    m2, m1, p1, p2 = values
    return (m2 - 8 * m1 + 8 * p1 - p2) / (12 * FD_H)


def fd_deriv(f, pts, t, direction):
    e = np.array([FD_H, 0.0]) if direction == 0 else np.array([0.0, FD_H])
    return _fd4([np.asarray(f(pts + k * e, t)) for k in (-2, -1, 1, 2)])


def fd_grad(f, pts, t):
    return np.stack([fd_deriv(f, pts, t, 0), fd_deriv(f, pts, t, 1)], axis=-1)


def fd_div(fvec, pts, t):
    g = fd_grad(fvec, pts, t)           # (n, 2, 2): g[:, i, j] = d f_i / d x_j
    return g[:, 0, 0] + g[:, 1, 1]


def fd_dt(f, pts, t):
    return _fd4([np.asarray(f(pts, t + k * FD_H)) for k in (-2, -1, 1, 2)])


def stress_fluid(pts, t):
    g = fd_grad(MS.uf, pts, t)
    D = 0.5 * (g + np.swapaxes(g, 1, 2))
    p = MS.pf(pts, t)
    return 2 * PARAMS.mu * D - p[:, None, None] * np.eye(2)


def stress_poro(pts, t, params):
    g = fd_grad(MS.eta, pts, t)
    D = 0.5 * (g + np.swapaxes(g, 1, 2))
    div = g[:, 0, 0] + g[:, 1, 1]
    lam_p = float(np.asarray(params.lam_p))
    mu_p = float(np.asarray(params.mu_p))
    sig = 2 * mu_p * D + lam_p * div[:, None, None] * np.eye(2)
    return sig - params.alpha * MS.pp(pts, t)[:, None, None] * np.eye(2)


def fd_div_tensor(sig_fn, pts, t):
    dx = _fd4([sig_fn(pts + k * np.array([FD_H, 0.0]), t) for k in (-2, -1, 1, 2)])
    dy = _fd4([sig_fn(pts + k * np.array([0.0, FD_H]), t) for k in (-2, -1, 1, 2)])
    return np.stack([dx[:, 0, 0] + dy[:, 0, 1], dx[:, 1, 0] + dy[:, 1, 1]], axis=1)


def test_strong_equation_residuals_fd_oracle():
    """100 random space-time samples, residual < 1e-6 in every equation."""
    ff, qf, fp, qp = derive_sources(MS, PARAMS)
    rng = np.random.default_rng(11)
    times = rng.uniform(0.05, 0.95, size=4)
    pts_f = rand_points(25, 0.05, 0.95, 7)
    pts_p = rand_points(25, -0.95, -0.05, 8)
    for t in times:
        # Stokes momentum: -div sigma_f = f_f
        r1 = -fd_div_tensor(stress_fluid, pts_f, t) - ff(pts_f, t)
        assert np.abs(r1).max() < 1e-6
        # Stokes mass: div u_f = q_f
        r2 = fd_div(MS.uf, pts_f, t) - qf(pts_f, t)
        assert np.abs(r2).max() < 1e-6
        # Biot momentum: -div sigma_p = f_p
        r3 = -fd_div_tensor(lambda p, tt: stress_poro(p, tt, PARAMS), pts_p, t) - fp(pts_p, t)
        assert np.abs(r3).max() < 1e-6
        # Darcy law: mu K^-1 u_p + grad p_p = 0
        r4 = PARAMS.mu * MS.up(pts_p, t) + fd_grad(MS.pp, pts_p, t)
        assert np.abs(r4).max() < 1e-6
        # Biot mass: d/dt(s0 p_p + alpha div eta) + div u_p = q_p
        stor = lambda p, tt: PARAMS.s0 * MS.pp(p, tt) + PARAMS.alpha * (
            fd_grad(MS.eta, p, tt)[:, 0, 0] + fd_grad(MS.eta, p, tt)[:, 1, 1])
        r5 = fd_dt(stor, pts_p, t) + fd_div(MS.up, pts_p, t) - qp(pts_p, t)
        assert np.abs(r5).max() < 1e-6


def test_interface_conditions_on_the_line():
    """Mass conservation, both stress balances and the slip law at y = 0."""
    x = np.linspace(0.03, 0.97, 23)
    gamma = np.column_stack([x, np.zeros_like(x)])
    n_f, n_p = np.array([0.0, -1.0]), np.array([0.0, 1.0])
    tau = np.array([1.0, 0.0])
    for t in (0.13, 0.61):
        mass = MS.uf(gamma, t) @ n_f + (MS.dt_eta(gamma, t) + MS.up(gamma, t)) @ n_p
        assert np.abs(mass).max() < 1e-12
        sf = stress_fluid(gamma, t)
        sp_ = stress_poro(gamma, t, PARAMS)
        normal = -np.einsum("nij,j,i->n", sf, n_f, n_f) - MS.pp(gamma, t)
        assert np.abs(normal).max() < 1e-8
        momentum = np.einsum("nij,j->ni", sf, n_f) + np.einsum("nij,j->ni", sp_, n_p)
        assert np.abs(momentum).max() < 1e-8
        shear = -np.einsum("nij,j,i->n", sf, n_f, tau)
        slip = (MS.uf(gamma, t) - MS.dt_eta(gamma, t)) @ tau
        bjs = shear - PARAMS.mu * PARAMS.alpha_bjs * slip   # K_j = 1
        assert np.abs(bjs).max() < 1e-8
        # the multiplier is the pore pressure trace
        assert np.allclose(MS.lam(gamma, t), MS.pp(gamma, t), atol=1e-13)
