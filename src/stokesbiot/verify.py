"""Verification harness: error norms, convergence studies and diagnostics.

The discrete-in-time norms are l2(0,T;X) = sqrt(tau * sum_{n=1..N} |.|_X^2)
and linf(0,T;X) = max_{0<=n<=N} |.|_X; reported errors are relative to the
same norm of the exact solution.  The five tabulated quantities are the
fluid velocity in l2(H1), both pressures in l2(L2) / linf(L2), the Darcy
velocity in l2(L2) and the displacement in linf(H1).

The norms are computed per field with all states batched: the cells are
walked in fixed chunks, and each spatial term of the ``Separable`` exact
field is evaluated once per norm-rule point, that is once per level, and
combined with its time function's values at every state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp

from . import assembly
from .assembly import PhysicalParams, Separable, make_multiplier_space
from .interface import common_refinement
from .manufactured import ManufacturedSolution, derive_sources, example1_solution, verification_params
from .mesh import build_structured
from .quadrature import triangle_rule
from .solver import ConstrainedOperator, CoupledSystem, DirichletBC, TransientState, run_transient
from .spaces import FESpace, _expand_vector_blocks, make_space, mass_matrix, scatter

# norm key: (field, its exact gradient for the H1 seminorm or None, time norm)
NORM_FIELDS = {
    "uf_l2H1": ("uf", "grad_uf", "l2"),
    "pf_l2L2": ("pf", None, "l2"),
    "up_l2L2": ("up", None, "l2"),
    "pp_linfL2": ("pp", None, "linf"),
    "eta_linfH1": ("eta", "grad_eta", "linf"),
}
NORM_KEYS = tuple(NORM_FIELDS)
NORM_CHUNK = 256     # cells per block of the error-norm loop


@dataclass(frozen=True)
class ElementSet:
    stokes_velocity: str
    stokes_pressure: str
    darcy_velocity: str
    darcy_pressure: str
    displacement: str
    multiplier_order: int


LOW_ORDER = ElementSet("VecP1bubble", "P1", "RT0", "P0", "VecP1", 0)
HIGH_ORDER = ElementSet("VecP2", "P1", "RT1", "P1dc", "VecP2", 1)
UNSTABLE_CONTROL = ElementSet("VecP1", "P1", "RT0", "P0", "VecP1", 0)


@dataclass
class ErrorReport:
    h: float
    dof_counts: dict
    abs_errors: dict
    rel_errors: dict
    absolute_flag: dict = field(default_factory=dict)


@dataclass
class ConvergenceTable:
    elements: ElementSet
    matching: bool
    rows: list
    diagnostics: list = field(default_factory=list)   # per level, per step

    def max_constraint_residual(self) -> float:
        return max((d["constraint_residual"] for lev in self.diagnostics for d in lev),
                   default=float("nan"))

    def max_energy_residual(self) -> float:
        return max((d["energy_residual"] for lev in self.diagnostics for d in lev),
                   default=float("nan"))

    def rates(self) -> dict:
        out = {k: [] for k in NORM_KEYS}
        for a, b in zip(self.rows[:-1], self.rows[1:]):
            for k in NORM_KEYS:
                ea, eb = a.rel_errors[k], b.rel_errors[k]
                out[k].append(math.log2(ea / eb) if ea > 0 and eb > 0 else float("nan"))
        return out


# ---------------------------------------------------------------------------
# Example-1 configuration


def example1_system(n_biot: int, elements: ElementSet, matching: bool = True,
                    tau: float = 1e-3, params: PhysicalParams | None = None,
                    data_override: dict | None = None, bcs_override=None) -> CoupledSystem:
    """Two stacked unit squares with interface y = 0 and verification data."""
    n_f = n_biot if matching else max(2, round(8 * n_biot / 5))
    mesh_f = build_structured((0.0, 1.0, 0.0, 1.0), n_f, n_f, "fluid",
                              {"left": "wall", "right": "wall", "top": "wall", "bottom": "interface"})
    mesh_p = build_structured((0.0, 1.0, -1.0, 0.0), n_biot, n_biot, "poro",
                              {"left": "outer", "right": "outer", "bottom": "outer", "top": "interface"})
    pairing = common_refinement(mesh_f, mesh_p)
    spaces = {
        "uf": make_space(mesh_f, elements.stokes_velocity),
        "pf": make_space(mesh_f, elements.stokes_pressure),
        "up": make_space(mesh_p, elements.darcy_velocity),
        "pp": make_space(mesh_p, elements.darcy_pressure),
        "eta": make_space(mesh_p, elements.displacement),
    }
    L = make_multiplier_space(pairing, elements.multiplier_order)
    params = params or verification_params()
    if data_override is None:
        ms = example1_solution()
        ff, qf, fp, qp = derive_sources(ms, params)
        data = {"ff": ff, "qf": qf, "fp": fp, "qp": qp,
                "darcy_pressure": (("outer",), ms.pp)}
        bcs = [DirichletBC("uf", ("wall",), value=ms.uf),
               DirichletBC("eta", ("outer",), value=ms.eta)]
    else:
        data = data_override
        bcs = bcs_override or []
    return CoupledSystem(spaces, L, pairing, params, tau, bcs, data)


def run_example1(system: CoupledSystem, ms: ManufacturedSolution, T: float = 0.01,
                 collect_diagnostics: bool = False):
    state0 = system.initial_state(
        pp0=lambda p: ms.pp(p, 0.0),
        eta0=lambda p: ms.eta(p, 0.0),
        eta_dot0=lambda p: ms.dt_eta(p, 0.0))
    return run_transient(system, T, state0, output_stride=1,
                         collect_diagnostics=collect_diagnostics)


# ---------------------------------------------------------------------------
# error norms


def _norm_rule(space: FESpace):
    return triangle_rule(min(2 * space.degree + 5, 14))


def _field_norms(space: FESpace, coeffs: np.ndarray, times, exact: Separable,
                 exact_grad: Separable | None = None) -> np.ndarray:
    """Squared norms of (u_h - u) and of u for all states of one field.

    ``coeffs`` holds one state per column, (n_dofs, S), at ``times`` (S,).
    Returns the rows ||u_h - u||^2, |u_h - u|_1^2, ||u||^2 and |u|_1^2,
    each (S,); the seminorm rows are zero without ``exact_grad``.  The
    cells are walked in chunks of ``NORM_CHUNK``, each with its own
    quadrature points and physical basis data, so the memory they take
    does not grow with the mesh.
    """
    rule = _norm_rule(space)
    S = coeffs.shape[1]
    G = np.array([[g(t) for t in times] for g in exact.terms])
    if space.rt_order is None:
        basis = space.ref_values(rule).T           # (q, n_s)
    if exact_grad is not None:
        G_grad = np.array([[g(t) for t in times] for g in exact_grad.terms])
    out = np.zeros((4, S))
    for a in range(0, len(space.cell_dofs), NORM_CHUNK):
        cells = slice(a, a + NORM_CHUNK)
        c = coeffs[space.cell_dofs[cells]]         # (mc, n_loc, S)
        mc = len(c)
        pts, w = space.geometry.quadrature(rule, cells)
        flat, wc = pts.reshape(-1, 2), w.ravel()
        if space.rt_order is not None:
            vals, _ = space.tabulate(rule, cells)  # (mc, n_loc, q, 2)
            uh = np.matmul(np.swapaxes(vals.reshape(mc, c.shape[1], -1), 1, 2), c)
        else:
            if space.vector:
                c = c.reshape(mc, -1, 2 * S)       # interleaved (x, y) per state
            uh = basis @ c
        out[0::2] += _chunk_norms(uh, exact, G, flat, wc)
        if exact_grad is not None:
            _, grads = space.tabulate(rule, cells)  # (mc, n_s, q, 2)
            # gh[m, q, a, d] = sum_i grads[m, i, q, a] c[m, i, d]
            gh = np.matmul(np.swapaxes(grads.reshape(mc, c.shape[1], -1), 1, 2), c)
            out[1::2] += _chunk_norms(gh, exact_grad, G_grad, flat, wc, transpose=True)
    return out


def _chunk_norms(uh: np.ndarray, exact: Separable, G: np.ndarray, points: np.ndarray,
                 w: np.ndarray, transpose: bool = False):
    """Weighted squares of (u_h - u) and of u summed over one chunk, per state.

    ``uh`` holds the discrete values at ``points`` with the state last, and
    ``G`` the time factors (K, S) of the K terms of ``exact``.  With
    ``transpose`` the exact values are (n, 2, 2) gradients [i, j] =
    d u_i / d x_j, matched to ``uh``'s (n, j, i) layout.
    """
    n, S = len(points), G.shape[1]
    F = np.stack([np.asarray(f(points), dtype=float) for f in exact.terms.values()], axis=-1)
    if transpose:
        F = np.swapaxes(F, 1, 2)
    ue = (F.reshape(-1, len(G)) @ G).reshape(n, -1)         # (n, k * S)
    ex = w @ (ue * ue)
    d = np.subtract(uh.reshape(ue.shape), ue, out=ue)
    err = w @ np.square(d, out=d)
    return err.reshape(-1, S).sum(axis=0), ex.reshape(-1, S).sum(axis=0)


def error_norms(states: list, ms: ManufacturedSolution, system: CoupledSystem) -> ErrorReport:
    """Discrete-in-time relative errors of a full per-step state history.

    The norms are computed field by field with all states batched; each
    exact field must be ``Separable``.
    """
    for name, grad, _ in NORM_FIELDS.values():
        for n in (name, grad):
            if n is not None and not isinstance(getattr(ms, n), Separable):
                raise ValueError(f"exact field {n!r} is not a Separable field")
    tau = system.tau
    times = [state.t for state in states]
    combine = {"l2": lambda seq: math.sqrt(tau * seq[1:].sum()),
               "linf": lambda seq: math.sqrt(seq.max())}
    abs_errors, rel_errors, flags = {}, {}, {}
    for k, (name, grad, time_norm) in NORM_FIELDS.items():
        coeffs = np.column_stack([system.view(state.X, name) for state in states])
        e2, s2, x2, sx2 = _field_norms(system.spaces[name], coeffs, times, getattr(ms, name),
                                       None if grad is None else getattr(ms, grad))
        num, den = combine[time_norm](e2 + s2), combine[time_norm](x2 + sx2)
        abs_errors[k] = num
        if den > 1e-300:
            rel_errors[k] = num / den
            flags[k] = False
        else:
            rel_errors[k] = num
            flags[k] = True
    h = max(system.spaces["uf"].mesh.h_max(), system.spaces["pp"].mesh.h_max())
    dofs = dict(system.sizes)
    return ErrorReport(h=h, dof_counts=dofs, abs_errors=abs_errors,
                       rel_errors=rel_errors, absolute_flag=flags)


def convergence_study(elements: ElementSet, levels: int, matching: bool = True,
                      T: float = 0.01, tau: float = 1e-3, n0: int = 8,
                      verbose: bool = False, collect_diagnostics: bool = False) -> ConvergenceTable:
    """Example-1 refinement study starting at n0 cells per unit, halving h.

    Each level's system, factor and states are dropped once its error norms
    are taken, before the next level is built."""
    rows = []
    diagnostics = []
    ms = example1_solution()
    for k in range(levels):
        n = n0 * 2**k
        system = example1_system(n, elements, matching=matching, tau=tau)
        states, diags = run_example1(system, ms, T=T, collect_diagnostics=collect_diagnostics)
        rep = error_norms(states, ms, system)
        del system, states    # the next level is built and factorized without this one
        rep = ErrorReport(h=1.0 / n, dof_counts=rep.dof_counts,
                          abs_errors=rep.abs_errors, rel_errors=rep.rel_errors,
                          absolute_flag=rep.absolute_flag)
        rows.append(rep)
        diagnostics.append(diags)
        if verbose:
            print(f"  1/{n}: " + "  ".join(f"{key}={rep.rel_errors[key]:.3e}" for key in NORM_KEYS))
    return ConvergenceTable(elements=elements, matching=matching, rows=rows,
                            diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# patch test


def patch_test(elements: ElementSet) -> dict:
    """Steady solution contained in the discrete spaces, reproduced exactly.

    u_f = (a, 0), p_f = p_p = lambda = c, u_p = 0, eta = s (x, y) with
    s = -c / (2 (lam + mu)); friction and Biot coupling are switched off so
    the interface conditions hold identically.  Returns relative errors per
    field after three backward Euler steps at h = 1/4.
    """
    a, c = 2.0, 1000.0
    params = PhysicalParams(mu=1.0, K=1.0, lam_p=1.0, mu_p=1.0,
                            alpha=0.0, s0=1.0, alpha_bjs=0.0)
    s = -c / (2.0 * (params.lam_p + params.mu_p))

    def uf(p, t):
        return np.column_stack([np.full(len(p), a), np.zeros(len(p))])

    def eta(p, t):
        return s * p

    data = {"darcy_pressure": (("outer",), Separable(lambda p: np.full(len(p), c)))}
    bcs = [DirichletBC("uf", ("wall",), value=uf),
           DirichletBC("eta", ("outer",), value=eta)]
    system = example1_system(4, elements, params=params, data_override=data, bcs_override=bcs)
    state = system.initial_state(pp0=lambda p: np.full(len(p), c),
                                 eta0=lambda p: eta(p, 0.0), eta_dot0=None)
    for _ in range(3):
        state = system.step(state)
    errors = {}
    exact = {
        "uf": lambda X: _patch_err(system, "uf", X, lambda p: uf(p, 0)),
        "up": lambda X: np.abs(system.view(X, "up")).max() / c,
        "pf": lambda X: np.abs(system.view(X, "pf") - c).max() / c,
        "pp": lambda X: np.abs(system.view(X, "pp") - c).max() / c,
        "eta": lambda X: _patch_err(system, "eta", X, lambda p: eta(p, 0)),
        "lam": lambda X: np.abs(system.view(X, "lam") - c).max() / c,
    }
    for name, fn in exact.items():
        errors[name] = float(fn(state.X))
    return errors


def _patch_err(system, name, X, exact_fn):
    """Max nodal coefficient error of a vector Lagrangian field (bubble = 0)."""
    space = system.spaces[name]
    coeffs = system.view(X, name)
    mesh = space.mesh
    nv = mesh.n_nodes

    def interleave(pts):
        vals = exact_fn(pts)
        out = np.empty(2 * len(pts))
        out[0::2], out[1::2] = vals[:, 0], vals[:, 1]
        return out

    exact_vertex = interleave(mesh.nodes)
    scale = max(1.0, np.abs(exact_vertex).max())
    err = np.abs(coeffs[: 2 * nv] - exact_vertex).max()
    if space.scalar_name == "P2":
        mids = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
        ex = interleave(mids)
        err = max(err, np.abs(coeffs[2 * nv: 2 * nv + len(ex)] - ex).max())
    elif space.scalar_name == "P1bubble":
        err = max(err, np.abs(coeffs[2 * nv:]).max())
    return err / scale


# ---------------------------------------------------------------------------
# energy identity


def energy_identity_residual(system: CoupledSystem, state: TransientState,
                             prev: TransientState) -> float:
    """Relative defect of the per-step discrete energy balance.

    The left side is evaluated from the assembled quadratic forms, the right
    side from the loads plus the essential-condition reactions; for a
    consistent step the two agree to solver accuracy.  The energy change
    (E1 - E0) / tau + tau / 2 (s0 |d_tau p_p|^2_Mp + |d_tau eta|^2_Ae) is
    taken telescoped, as s0 p_p Mp d_tau p_p + eta Ae d_tau eta.
    """
    b = system.blocks
    tau = system.tau
    X = state.X
    uf = system.view(X, "uf")
    up = system.view(X, "up")
    pp, eta = system.view(X, "pp"), system.view(X, "eta")
    dpp = (pp - system.view(prev.X, "pp")) / tau
    det = (eta - system.view(prev.X, "eta")) / tau

    lhs = system.params.s0 * pp @ (b["Mp"] @ dpp) + eta @ (b["Ae"] @ det)
    lhs += uf @ (b["Af"] @ uf) + up @ (b["Ap"] @ up)
    lhs += uf @ (b["Mff"] @ uf) - 2.0 * uf @ (b["Mfe"] @ det) + det @ (b["Mee"] @ det)

    # the test vector is X with d_tau eta in place of eta
    f = system.load(state.t) + system.reaction(state, prev)
    a, e = system.offsets["eta"], system.offsets["eta"] + system.sizes["eta"]
    rhs = X[:a] @ f[:a] + det @ f[a:e] + X[e:] @ f[e:]
    denom = abs(lhs) + abs(rhs)
    return abs(lhs - rhs) / denom if denom > 0 else 0.0


def discrete_energy(system: CoupledSystem, state: TransientState) -> float:
    """(s0 ||p_p||^2 + a_e(eta, eta)) / 2, the Lyapunov quantity of the scheme."""
    pp, eta = system.view(state.X, "pp"), system.view(state.X, "eta")
    return 0.5 * (system.params.s0 * pp @ (system.blocks["Mp"] @ pp) + eta @ (system.blocks["Ae"] @ eta))


# ---------------------------------------------------------------------------
# multiplier seminorm


def _darcy_extension(system: CoupledSystem, mu: np.ndarray) -> np.ndarray:
    """Darcy velocities u*(mu) of the mixed extension with Dirichlet data mu.

    ``mu`` is (n_lam,) or (n_lam, k).  The operator is the (u_p, p_p) block
    of the system's ``H``, with the system's constraints on those fields.
    """
    S = system.dofs(("up", "pp"))
    H_S = system.H[S]
    op = ConstrainedOperator(H_S[:, S], system.constraints.restrict(S))
    rhs = -(H_S[:, system.dofs(("lam",))] @ mu)
    del H_S           # not held while the slice is factorized
    return op.solve(rhs)[:system.sizes["up"]]


def multiplier_seminorm_gram(system: CoupledSystem) -> np.ndarray:
    """Dense Gram matrix S with S_ij = a_p^d(u*(mu_i), u*(mu_j))."""
    U = _darcy_extension(system, np.eye(system.sizes["lam"]))
    return U.T @ (system.blocks["Ap"] @ U)


# ---------------------------------------------------------------------------
# inf-sup estimate


def norm_gram(space: FESpace) -> sp.csr_matrix:
    """Gram matrix of the full H1 norm of an interleaved vector Lagrangian
    space, or of the H(div) norm of a Raviart-Thomas space."""
    rule = triangle_rule(assembly.default_quad_degree(space))
    _, D = space.tabulate(rule)       # gradients, or divergences of an RT space
    _, w = space.geometry.quadrature(rule)
    if space.rt_order is None:
        dd = _expand_vector_blocks(np.einsum("miqk,mjqk,mq->mij", D, D, w))
    else:
        dd = np.einsum("miq,mjq,mq->mij", D, D, w)
    K = scatter(dd, space.cell_dofs, space.cell_dofs, (space.n_dofs, space.n_dofs))
    return K + mass_matrix(space)


def inf_sup_estimate(system: CoupledSystem) -> float:
    """Smallest generalized singular value of the pressure/multiplier coupling.

    beta_h = min over (w, mu) of max over (v, xi) of
    [b(v, xi; w) + b_Gamma(v, xi; mu)] / (|(v, xi)|_{V x X} |(w, mu)|_{W x L}).
    The pairing is the (W, V) block of the system's ``H + E``, up to sign.
    Dense computation, intended for coarse diagnostic meshes.
    """
    V, W = system.dofs(("uf", "up", "eta")), system.dofs(("pf", "pp", "lam"))
    B = (system.H + system.E)[W][:, V]
    G_V = sp.block_diag([norm_gram(system.spaces[n]) for n in ("uf", "up", "eta")], format="csr")
    S = multiplier_seminorm_gram(system)
    G_lam = assembly.multiplier_mass(system.L).toarray() + S
    G_W = dla.block_diag(mass_matrix(system.spaces["pf"]).toarray(),
                         mass_matrix(system.spaces["pp"]).toarray(), G_lam)

    # restrict the velocity/displacement side to essentially free dofs
    cons = system.constraints.restrict(V)
    if len(cons.pairs):
        raise ValueError("inf-sup estimate requires plain (unrotated) constraints")
    free = cons.free(len(V))
    Bf = B[:, free].toarray()
    GVf = G_V[free][:, free].toarray()
    A = Bf @ dla.solve(GVf, Bf.T, assume_a="pos")
    eig = dla.eigh(A, G_W, eigvals_only=True)
    return math.sqrt(max(0.0, float(eig[0])))
