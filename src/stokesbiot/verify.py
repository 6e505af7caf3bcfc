"""Verification harness: error norms, convergence studies and diagnostics.

The discrete-in-time norms are l2(0,T;X) = sqrt(tau * sum_{n=1..N} |.|_X^2)
and linf(0,T;X) = max_{0<=n<=N} |.|_X; reported errors are relative to the
same norm of the exact solution.  The five tabulated quantities are the
fluid velocity in l2(H1), both pressures in l2(L2) / linf(L2), the Darcy
velocity in l2(L2) and the displacement in linf(H1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp

from . import assembly
from .assembly import PhysicalParams, make_multiplier_space
from .interface import common_refinement
from .manufactured import ManufacturedSolution, derive_sources, example1_solution, verification_params
from .mesh import build_structured
from .quadrature import triangle_rule
from .solver import (ConstrainedOperator, CoupledSystem, DirichletBC, FluxBC, TransientState,
                     build_constraints, run_transient)
from .spaces import FESpace, make_space

NORM_KEYS = ("uf_l2H1", "pf_l2L2", "up_l2L2", "pp_linfL2", "eta_linfH1")


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
                    ms: ManufacturedSolution | None = None,
                    data_override: dict | None = None, bcs_override=None,
                    factorize: bool = True) -> CoupledSystem:
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
        ms = ms or example1_solution()
        ff, qf, fp, qp = derive_sources(ms, params)
        data = {"ff": ff, "qf": qf, "fp": fp, "qp": qp,
                "darcy_pressure": (("outer",), ms.pp)}
        bcs = [DirichletBC("uf", ("wall",), value=ms.uf),
               DirichletBC("eta", ("outer",), value=ms.eta)]
    else:
        data = data_override
        bcs = bcs_override or []
    return CoupledSystem(spaces, L, pairing, params, tau, bcs, data, factorize=factorize)


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


def _field_norms(space: FESpace, coeffs: np.ndarray, exact, exact_grad, t: float):
    """Squared L2 / H1-seminorm of (u_h - u) and of u over the space's mesh."""
    rule = _norm_rule(space)
    geo = space.geometry
    w = rule.weights[None, :] * (2.0 * geo.areas)[:, None]
    pts = geo.map_points(rule.points)
    flat = pts.reshape(-1, 2)
    c = coeffs[space.cell_dofs]
    if space.rt_order is not None:
        vals, _ = space.tabulate(rule)
        uh = np.einsum("miqd,mi->mqd", vals, c)
        ue = np.asarray(exact(flat, t)).reshape(pts.shape)
        err2 = np.einsum("mqd,mq->", (uh - ue) ** 2, w)
        ex2 = np.einsum("mqd,mq->", ue**2, w)
        return err2, 0.0, ex2, 0.0
    vals, grads = space.tabulate(rule)
    if space.vector:
        c3 = c.reshape(c.shape[0], -1, 2)
        uh = np.einsum("iq,mid->mqd", vals, c3)
        ue = np.asarray(exact(flat, t)).reshape(pts.shape)
        err2 = np.einsum("mqd,mq->", (uh - ue) ** 2, w)
        ex2 = np.einsum("mqd,mq->", ue**2, w)
        if exact_grad is None:
            return err2, 0.0, ex2, 0.0
        gh = np.einsum("miqa,mid->mqda", grads, c3)
        ge = np.asarray(exact_grad(flat, t)).reshape(pts.shape[0], pts.shape[1], 2, 2)
        s_err2 = np.einsum("mqda,mq->", (gh - ge) ** 2, w)
        s_ex2 = np.einsum("mqda,mq->", ge**2, w)
        return err2, s_err2, ex2, s_ex2
    ph = np.einsum("iq,mi->mq", vals, c)
    pe = np.asarray(exact(flat, t)).reshape(pts.shape[:2])
    err2 = np.einsum("mq,mq->", (ph - pe) ** 2, w)
    ex2 = np.einsum("mq,mq->", pe**2, w)
    return err2, 0.0, ex2, 0.0


def error_norms(states: list, ms: ManufacturedSolution, system: CoupledSystem) -> ErrorReport:
    """Discrete-in-time relative errors of a full per-step state history."""
    tau = system.tau
    sq = {k: {"err": [], "ex": []} for k in NORM_KEYS}
    for state in states:
        t = state.t
        e2, s2, x2, sx2 = _field_norms(system.spaces["uf"], system.view(state.X, "uf"),
                                       ms.uf, ms.grad_uf, t)
        sq["uf_l2H1"]["err"].append(e2 + s2)
        sq["uf_l2H1"]["ex"].append(x2 + sx2)
        e2, _, x2, _ = _field_norms(system.spaces["pf"], system.view(state.X, "pf"), ms.pf, None, t)
        sq["pf_l2L2"]["err"].append(e2)
        sq["pf_l2L2"]["ex"].append(x2)
        e2, _, x2, _ = _field_norms(system.spaces["up"], system.view(state.X, "up"), ms.up, None, t)
        sq["up_l2L2"]["err"].append(e2)
        sq["up_l2L2"]["ex"].append(x2)
        e2, _, x2, _ = _field_norms(system.spaces["pp"], system.view(state.X, "pp"), ms.pp, None, t)
        sq["pp_linfL2"]["err"].append(e2)
        sq["pp_linfL2"]["ex"].append(x2)
        e2, s2, x2, sx2 = _field_norms(system.spaces["eta"], system.view(state.X, "eta"),
                                       ms.eta, ms.grad_eta, t)
        sq["eta_linfH1"]["err"].append(e2 + s2)
        sq["eta_linfH1"]["ex"].append(x2 + sx2)

    def l2t(seq):
        return math.sqrt(tau * sum(seq[1:]))

    def linft(seq):
        return math.sqrt(max(seq))

    combine = {"uf_l2H1": l2t, "pf_l2L2": l2t, "up_l2L2": l2t,
               "pp_linfL2": linft, "eta_linfH1": linft}
    abs_errors, rel_errors, flags = {}, {}, {}
    for k in NORM_KEYS:
        num = combine[k](sq[k]["err"])
        den = combine[k](sq[k]["ex"])
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
    """Example-1 refinement study starting at n0 cells per unit, halving h."""
    rows = []
    diagnostics = []
    ms = example1_solution()
    for k in range(levels):
        n = n0 * 2**k
        system = example1_system(n, elements, matching=matching, tau=tau)
        states, diags = run_example1(system, ms, T=T, collect_diagnostics=collect_diagnostics)
        rep = error_norms(states, ms, system)
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


def patch_test(elements: ElementSet, n: int = 4, steps: int = 3) -> dict:
    """Steady solution contained in the discrete spaces, reproduced exactly.

    u_f = (a, 0), p_f = p_p = lambda = c, u_p = 0, eta = s (x, y) with
    s = -c / (2 (lam + mu)); friction and Biot coupling are switched off so
    the interface conditions hold identically.  Returns relative errors per
    field after ``steps`` backward Euler steps.
    """
    a, c = 2.0, 1000.0
    params = PhysicalParams(mu=1.0, K=1.0, lam_p=1.0, mu_p=1.0,
                            alpha=0.0, s0=1.0, alpha_bjs=0.0)
    s = -c / (2.0 * (params.lam_p + params.mu_p))

    def uf(p, t):
        return np.column_stack([np.full(len(p), a), np.zeros(len(p))])

    def eta(p, t):
        return s * p

    data = {"darcy_pressure": (("outer",), lambda p, t: np.full(len(p), c)), "static": True}
    bcs = [DirichletBC("uf", ("wall",), value=uf),
           DirichletBC("eta", ("outer",), value=eta)]
    system = example1_system(n, elements, params=params, data_override=data, bcs_override=bcs)
    state = system.initial_state(pp0=lambda p: np.full(len(p), c),
                                 eta0=lambda p: eta(p, 0.0), eta_dot0=None)
    for _ in range(steps):
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
    consistent step the two agree to solver accuracy.
    """
    b = system.blocks
    tau = system.tau
    s0 = system.params.s0
    pp1, pp0 = system.view(state.X, "pp"), system.view(prev.X, "pp")
    et1, et0 = system.view(state.X, "eta"), system.view(prev.X, "eta")
    uf = system.view(state.X, "uf")
    up = system.view(state.X, "up")
    dpp = (pp1 - pp0) / tau
    det = (et1 - et0) / tau

    def energy(pp, et):
        return 0.5 * (s0 * pp @ (b["Mp"] @ pp) + et @ (b["Ae"] @ et))

    lhs = (energy(pp1, et1) - energy(pp0, et0)) / tau
    lhs += 0.5 * tau * (s0 * dpp @ (b["Mp"] @ dpp) + det @ (b["Ae"] @ det))
    lhs += uf @ (b["Af"] @ uf) + up @ (b["Ap"] @ up)
    lhs += uf @ (b["Mff"] @ uf) - 2.0 * uf @ (b["Mfe"] @ det) + det @ (b["Mee"] @ det)

    x_test = system.pack(uf=uf, up=up, eta=det,
                         pf=system.view(state.X, "pf"),
                         pp=pp1, lam=system.view(state.X, "lam"))
    rhs = x_test @ (system.load(state.t) + system.reaction(state, prev))
    denom = abs(lhs) + abs(rhs)
    return abs(lhs - rhs) / denom if denom > 0 else 0.0


def discrete_energy(system: CoupledSystem, state: TransientState) -> float:
    """(s0 ||p_p||^2 + a_e(eta, eta)) / 2, the Lyapunov quantity of the scheme."""
    b = system.blocks
    pp = system.view(state.X, "pp")
    et = system.view(state.X, "eta")
    return 0.5 * (system.params.s0 * pp @ (b["Mp"] @ pp) + et @ (b["Ae"] @ et))


# ---------------------------------------------------------------------------
# multiplier seminorm


def _darcy_extension(system: CoupledSystem, mu: np.ndarray) -> np.ndarray:
    """Darcy velocities u*(mu) of the mixed extension with Dirichlet data mu.

    ``mu`` is (n_lam,) or (n_lam, k); the system's flux constraints apply.
    """
    b = system.blocks
    nu = system.sizes["up"]
    A = sp.bmat([[b["Ap"], -b["Dp"].T], [b["Dp"], None]], format="csr")
    cons = build_constraints(system.spaces, {"up": 0},
                             [bc for bc in system.bcs if isinstance(bc, FluxBC) and bc.field == "up"])
    op = ConstrainedOperator(A, cons)
    rhs = np.zeros((op.n,) + mu.shape[1:])
    rhs[:nu] = -(b["Bp"].T @ mu)
    return op.solve(rhs)[:nu]


def multiplier_seminorm(mu_coeffs: np.ndarray, system: CoupledSystem) -> float:
    """|mu|_Lambda via the discrete Darcy extension with Dirichlet data mu."""
    ustar = _darcy_extension(system, mu_coeffs)
    return math.sqrt(max(0.0, ustar @ (system.blocks["Ap"] @ ustar)))


def multiplier_seminorm_gram(system: CoupledSystem) -> np.ndarray:
    """Dense Gram matrix S with S_ij = a_p^d(u*(mu_i), u*(mu_j))."""
    U = _darcy_extension(system, np.eye(system.sizes["lam"]))
    return U.T @ (system.blocks["Ap"] @ U)


# ---------------------------------------------------------------------------
# inf-sup estimate


def vector_h1_gram(space: FESpace) -> sp.csr_matrix:
    """Full H1 Gram matrix of an interleaved vector Lagrangian space."""
    from .spaces import _expand_vector_blocks, mass_matrix, scatter
    rule = triangle_rule(assembly.default_quad_degree(space))
    _, G = space.tabulate(rule)
    w = rule.weights[None, :] * (2.0 * space.geometry.areas)[:, None]
    gg = np.einsum("miqk,mjqk,mq->mij", G, G, w)
    K = scatter(_expand_vector_blocks(gg), space.cell_dofs, space.cell_dofs,
                (space.n_dofs, space.n_dofs))
    return K + mass_matrix(space)


def hdiv_gram(space: FESpace) -> sp.csr_matrix:
    from .spaces import mass_matrix, scatter
    rule = triangle_rule(assembly.default_quad_degree(space))
    _, divs = space.tabulate(rule)
    w = rule.weights[None, :] * (2.0 * space.geometry.areas)[:, None]
    dd = np.einsum("miq,mjq,mq->mij", divs, divs, w)
    K = scatter(dd, space.cell_dofs, space.cell_dofs, (space.n_dofs, space.n_dofs))
    return K + mass_matrix(space)


def inf_sup_estimate(system: CoupledSystem) -> float:
    """Smallest generalized singular value of the pressure/multiplier coupling.

    beta_h = min over (w, mu) of max over (v, xi) of
    [b(v, xi; w) + b_Gamma(v, xi; mu)] / (|(v, xi)|_{V x X} |(w, mu)|_{W x L}).
    Dense computation, intended for coarse diagnostic meshes.
    """
    b = system.blocks
    alpha = system.params.alpha
    nv = system.sizes["uf"] + system.sizes["up"] + system.sizes["eta"]
    B = sp.bmat([
        [-b["Df"], None, None],
        [None, -b["Dp"], -alpha * b["Dep"]],
        [b["Bf"], b["Bp"], b["Be"]],
    ], format="csr")
    G_V = sp.block_diag([
        vector_h1_gram(system.spaces["uf"]),
        hdiv_gram(system.spaces["up"]),
        vector_h1_gram(system.spaces["eta"]),
    ], format="csr")
    S = multiplier_seminorm_gram(system)
    from .assembly import multiplier_mass
    G_lam = multiplier_mass(system.L).toarray() + S
    from .spaces import mass_matrix
    G_W = dla.block_diag(mass_matrix(system.spaces["pf"]).toarray(),
                         mass_matrix(system.spaces["pp"]).toarray(), G_lam)

    # restrict the velocity/displacement side to essentially free dofs
    offs = {"uf": 0, "up": system.sizes["uf"], "eta": system.sizes["uf"] + system.sizes["up"]}
    cons = build_constraints(system.spaces, offs,
                             [bc for bc in system.bcs if bc.field in offs])
    if cons.rotations:
        raise ValueError("inf-sup estimate requires plain (unrotated) constraints")
    free = cons.free(nv)
    Bf = B[:, free].toarray()
    GVf = G_V[free][:, free].toarray()
    A = Bf @ dla.solve(GVf, Bf.T, assume_a="pos")
    eig = dla.eigh(A, G_W, eigvals_only=True)
    return math.sqrt(max(0.0, float(eig[0])))
