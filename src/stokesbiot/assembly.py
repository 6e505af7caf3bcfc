"""Assembly of the bilinear forms and load functionals as sparse blocks.

Sign conventions follow the weak formulation: the divergence coupling is
``b(v, w) = -(div v, w)`` and is assembled here as its negative, the plain
divergence matrix ``D`` with ``D[i, j] = (div phi_j, psi_i)``.  The interface
blocks ``B_f, B_p, B_e`` have one row per multiplier dof and contain
``<phi . n, mu>`` with the outward normal of the respective subdomain.  The
slip (BJS) blocks are returned as positive tangential trace mass matrices;
their signs are applied when the monolithic operator is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .elements import SCALAR_ELEMENTS
from .interface import InterfacePairing, SegmentQuadrature, segment_quadrature, tangential_permeability
from .quadrature import edge_rule, triangle_rule
from .spaces import FESpace, default_quad_degree, load_vector, mass_matrix, scatter

INTERFACE_QUAD_DEGREE = 7


@dataclass
class PhysicalParams:
    """Material and coupling coefficients (KPa, m, s unit system)."""

    mu: float = 1.0            # fluid viscosity
    K: object = 1.0            # permeability: scalar, (2,2), or per-cell (m,2,2)
    lam_p: object = 1.0        # Lame lambda, scalar or per-cell
    mu_p: object = 1.0         # Lame mu, scalar or per-cell
    alpha: float = 1.0         # Biot-Willis
    s0: float = 1.0            # mass storativity
    alpha_bjs: float = 1.0     # slip friction coefficient

    def validate(self, n_poro_cells: int | None = None) -> None:
        if self.mu <= 0:
            raise ValueError("viscosity mu must be positive")
        K = self.K_cells(n_poro_cells or 1)
        sym = np.abs(K - np.swapaxes(K, 1, 2)).max()
        if sym > 1e-12 * max(1.0, np.abs(K).max()):
            raise ValueError("permeability tensor must be symmetric")
        eig = np.linalg.eigvalsh(K)
        if np.any(eig <= 0):
            raise ValueError(f"permeability not SPD on cell {int(np.argmin(eig.min(axis=1)))}")
        if np.any(np.asarray(self.lam_p) <= 0) or np.any(np.asarray(self.mu_p) <= 0):
            raise ValueError("Lame coefficients must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha = {self.alpha} outside [0, 1]")
        if self.s0 < 0:
            raise ValueError("storativity s0 must be non-negative")
        if self.alpha_bjs < 0:
            raise ValueError("alpha_bjs must be non-negative")

    def K_cells(self, m: int) -> np.ndarray:
        """Per-cell permeability tensors, shape (m, 2, 2)."""
        K = np.asarray(self.K, dtype=float)
        if K.ndim == 0:
            out = np.zeros((m, 2, 2))
            out[:, 0, 0] = out[:, 1, 1] = K
            return out
        if K.ndim == 1:                      # per-cell isotropic
            out = np.zeros((m, 2, 2))
            out[:, 0, 0] = out[:, 1, 1] = K
            return out
        if K.shape == (2, 2):
            return np.broadcast_to(K, (m, 2, 2)).copy()
        if K.shape == (m, 2, 2):
            return K
        raise ValueError(f"bad permeability shape {K.shape}")

    def per_cell(self, value, m: int) -> np.ndarray:
        v = np.asarray(value, dtype=float)
        if v.ndim == 0:
            return np.full(m, float(v))
        if v.shape != (m,):
            raise ValueError(f"per-cell coefficient has shape {v.shape}, expected ({m},)")
        return v

    def with_overrides(self, **kw) -> "PhysicalParams":
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# volume forms


def _cell_weights(space: FESpace, rule):
    return rule.weights[None, :] * (2.0 * space.geometry.areas)[:, None]


def _sym_grad_form(space: FESpace, rule, two_mu, lam=None) -> sp.csr_matrix:
    """(2 mu D(u), D(v)) [+ (lam div u, div v)] for an interleaved vector space."""
    _, G = space.tabulate(rule)                      # (m, ns, q, 2)
    w = _cell_weights(space, rule)
    mu = np.asarray(two_mu, dtype=float) / 2.0
    mu_w = w * (mu[:, None] if mu.ndim else mu)
    gg = np.einsum("miqk,mjqk,mq->mij", G, G, mu_w)
    cross = np.einsum("miqb,mjqa,mq->miajb", G, G, mu_w)
    m, ns = G.shape[0], G.shape[1]
    eloc = np.zeros((m, ns, 2, ns, 2))
    eye = np.eye(2)
    eloc += gg[:, :, None, :, None] * eye[None, None, :, None, :]
    eloc += cross
    if lam is not None:
        lam = np.asarray(lam, dtype=float)
        lam_w = w * (lam[:, None] if lam.ndim else lam)
        eloc += np.einsum("miqa,mjqb,mq->miajb", G, G, lam_w)
    eloc = eloc.reshape(m, 2 * ns, 2 * ns)
    return scatter(eloc, space.cell_dofs, space.cell_dofs, (space.n_dofs, space.n_dofs))


def assemble_stokes_viscous(V_f: FESpace, params: PhysicalParams) -> sp.csr_matrix:
    """A_f with entries (2 mu D(phi_j), D(phi_i)) over the fluid mesh."""
    if not (V_f.vector and V_f.scalar_name):
        raise ValueError("Stokes velocity space must be a vector Lagrangian family")
    rule = triangle_rule(default_quad_degree(V_f))
    return _sym_grad_form(V_f, rule, 2.0 * params.mu)


def assemble_elasticity(X_p: FESpace, params: PhysicalParams) -> sp.csr_matrix:
    """A_e with entries (2 mu_p D, D) + (lam_p div, div)."""
    if not (X_p.vector and X_p.scalar_name):
        raise ValueError("displacement space must be a vector Lagrangian family")
    m = X_p.mesh.n_tris
    mu_p = params.per_cell(params.mu_p, m)
    lam_p = params.per_cell(params.lam_p, m)
    if np.any(mu_p <= 0) or np.any(lam_p < 0):
        raise ValueError("non-positive Lame coefficient")
    rule = triangle_rule(default_quad_degree(X_p))
    return _sym_grad_form(X_p, rule, 2.0 * mu_p, lam=lam_p)


def assemble_darcy_mass(V_p: FESpace, params: PhysicalParams) -> sp.csr_matrix:
    """A_p with entries (mu K^-1 phi_j, phi_i)."""
    if V_p.rt_order is None:
        raise ValueError("Darcy velocity space must be an RT family")
    m = V_p.mesh.n_tris
    K = params.K_cells(m)
    det = K[:, 0, 0] * K[:, 1, 1] - K[:, 0, 1] * K[:, 1, 0]
    if np.any(det <= 0) or np.any(K[:, 0, 0] <= 0):
        raise ValueError(f"permeability singular on cell {int(np.argmin(det))}")
    Kinv = np.empty_like(K)
    Kinv[:, 0, 0] = K[:, 1, 1]
    Kinv[:, 1, 1] = K[:, 0, 0]
    Kinv[:, 0, 1] = -K[:, 0, 1]
    Kinv[:, 1, 0] = -K[:, 1, 0]
    Kinv /= det[:, None, None]
    rule = triangle_rule(default_quad_degree(V_p))
    vals, _ = V_p.tabulate(rule)
    w = _cell_weights(V_p, rule)
    eloc = params.mu * np.einsum("miqa,mab,mjqb,mq->mij", vals, Kinv, vals, w)
    return scatter(eloc, V_p.cell_dofs, V_p.cell_dofs, (V_p.n_dofs, V_p.n_dofs))


def assemble_divergence(V: FESpace, W: FESpace) -> sp.csr_matrix:
    """D[i, j] = (div phi_j, psi_i); the weak form uses b = -D."""
    if V.mesh is not W.mesh:
        raise ValueError("velocity and pressure spaces live on different meshes")
    _check_div_pairing(V, W)
    rule = triangle_rule(default_quad_degree(V, W))
    w = _cell_weights(V, rule)
    pv, _ = W.tabulate(rule)                         # scalar pressure values (nw, q)
    if V.rt_order is not None:
        _, divs = V.tabulate(rule)                   # (m, nv, q)
        eloc = np.einsum("iq,mjq,mq->mij", pv, divs, w)
    else:
        _, G = V.tabulate(rule)                      # scalar grads (m, ns, q, 2)
        eloc = np.einsum("iq,mjqa,mq->mija", pv, G, w)
        eloc = eloc.reshape(eloc.shape[0], eloc.shape[1], -1)
    return scatter(eloc, W.cell_dofs, V.cell_dofs, (W.n_dofs, V.n_dofs))


_DIV_PAIRS = {
    ("VecP1bubble", "P1"), ("VecP2", "P1"),
    ("RT0", "P0"), ("RT1", "P1dc"),
    ("VecP1", "P0"), ("VecP1", "P1dc"), ("VecP2", "P0"), ("VecP2", "P1dc"),
    ("VecP1", "P1"),  # used only by the deliberately unstable control pairing
}


def _check_div_pairing(V: FESpace, W: FESpace) -> None:
    if (V.family, W.family) not in _DIV_PAIRS:
        raise ValueError(f"unsupported velocity/pressure pairing {V.family}/{W.family}")


def pressure_mass(W: FESpace) -> sp.csr_matrix:
    return mass_matrix(W)


# ---------------------------------------------------------------------------
# multiplier space on the poro interface trace


@dataclass
class MultiplierSpace:
    """Piecewise polynomial space on the poro-side interface edges.

    Order 0 has one dof per trace edge (basis 1); order 1 has the two
    endpoint-nodal linears in the edge's own parameterization, matching the
    normal-trace space of RT0 / RT1 respectively.
    """

    pairing: InterfacePairing
    order: int

    @property
    def n_dofs(self) -> int:
        return len(self.pairing.poro_edges) * (self.order + 1)

    def edge_dofs(self, edge_index: int) -> np.ndarray:
        k = self.order + 1
        return np.arange(k * edge_index, k * (edge_index + 1))

    def tabulate(self, t: np.ndarray) -> np.ndarray:
        """Basis values (n_basis, ...) at edge parameters ``t`` in [0, 1]."""
        if self.order == 0:
            return np.ones((1,) + t.shape)
        return np.stack([1.0 - t, t])


def make_multiplier_space(pairing: InterfacePairing, order: int) -> MultiplierSpace:
    if order not in (0, 1):
        raise ValueError(f"unsupported multiplier order {order}")
    return MultiplierSpace(pairing=pairing, order=order)


def multiplier_mass(L: MultiplierSpace, squad: SegmentQuadrature | None = None) -> sp.csr_matrix:
    squad = squad or segment_quadrature(L.pairing, INTERFACE_QUAD_DEGREE)
    lb = L.tabulate(squad.t_edge_p)       # (nb, nseg, q)
    eloc = np.einsum("ikq,jkq,kq->kij", lb, lb, squad.weights)
    rows = np.array([L.edge_dofs(i) for i in L.pairing.seg_poro])
    return scatter(eloc, rows, rows, (L.n_dofs, L.n_dofs))


# ---------------------------------------------------------------------------
# interface forms


def _scalar_trace(space: FESpace, ref_pts: np.ndarray) -> np.ndarray:
    """Scalar component values (ns, nseg, q) at per-segment reference coords."""
    el = SCALAR_ELEMENTS[space.scalar_name]
    nseg, nq, _ = ref_pts.shape
    vals, _ = el.tabulate(ref_pts.reshape(-1, 2))
    return vals.reshape(-1, nseg, nq)


def assemble_bgamma(pairing: InterfacePairing, V_f: FESpace, V_p: FESpace,
                    X_p: FESpace, L: MultiplierSpace,
                    squad: SegmentQuadrature | None = None):
    """Interface constraint blocks (B_f, B_p, B_e); rows are multiplier dofs.

    B_f[i, j] = <phi_j . n_f, mu_i>,  B_p = <phi_j . n_p, mu_i>,
    B_e = <phi_j . n_p, mu_i> over the displacement trace.
    """
    if L.pairing is not pairing:
        raise ValueError("multiplier space does not live on this pairing")
    squad = squad or segment_quadrature(pairing, INTERFACE_QUAD_DEGREE)
    lb = L.tabulate(squad.t_edge_p)                       # (nb, nseg, q)
    lam_rows = np.array([L.edge_dofs(i) for i in pairing.seg_poro])

    sv_f = _scalar_trace(V_f, squad.points_f)             # (ns, nseg, q)
    ef = np.einsum("bkq,skq,kq,kd->kbsd", lb, sv_f, squad.weights, pairing.seg_n_f)
    ef = ef.reshape(ef.shape[0], ef.shape[1], -1)
    cols_f = V_f.cell_dofs[squad.cells_f]
    B_f = scatter(ef, lam_rows, cols_f, (L.n_dofs, V_f.n_dofs))

    rtv = V_p.rt_eval_cells(squad.cells_p, squad.points_p)  # (nseg, nv, q, 2)
    ep = np.einsum("bkq,knqd,kq,kd->kbn", lb, rtv, squad.weights, pairing.seg_n_p)
    cols_p = V_p.cell_dofs[squad.cells_p]
    B_p = scatter(ep, lam_rows, cols_p, (L.n_dofs, V_p.n_dofs))

    sv_e = _scalar_trace(X_p, squad.points_p)
    ee = np.einsum("bkq,skq,kq,kd->kbsd", lb, sv_e, squad.weights, pairing.seg_n_p)
    ee = ee.reshape(ee.shape[0], ee.shape[1], -1)
    cols_e = X_p.cell_dofs[squad.cells_p]
    B_e = scatter(ee, lam_rows, cols_e, (L.n_dofs, X_p.n_dofs))
    return B_f, B_p, B_e


def assemble_bjs(pairing: InterfacePairing, V_f: FESpace, X_p: FESpace,
                 params: PhysicalParams, squad: SegmentQuadrature | None = None):
    """Tangential slip mass blocks (M_ff, M_fe, M_ee), all positive forms.

    The quadratic form |v_f - xi|^2 equals
    v' M_ff v - 2 v' M_fe xi + xi' M_ee xi with the weight
    mu alpha_bjs / sqrt(K_j) per segment.
    """
    if params.alpha_bjs < 0:
        raise ValueError("alpha_bjs must be non-negative")
    if params.alpha_bjs > 0 and pairing.n_segments == 0:
        raise ValueError("empty interface pairing with alpha_bjs > 0")
    squad = squad or segment_quadrature(pairing, INTERFACE_QUAD_DEGREE)
    m = pairing.mesh_p.n_tris
    Kj = tangential_permeability(pairing, params.K_cells(m))
    wseg = params.mu * params.alpha_bjs / np.sqrt(Kj)     # (nseg,)
    w = squad.weights * wseg[:, None]
    tau = pairing.seg_tau

    sv_f = _scalar_trace(V_f, squad.points_f)
    sv_e = _scalar_trace(X_p, squad.points_p)
    cols_f = V_f.cell_dofs[squad.cells_f]
    cols_e = X_p.cell_dofs[squad.cells_p]

    def block(sa, sb):
        e = np.einsum("ikq,jkq,kq,ka,kb->kiajb", sa, sb, w, tau, tau)
        return e.reshape(e.shape[0], 2 * sa.shape[0], 2 * sb.shape[0])

    M_ff = scatter(block(sv_f, sv_f), cols_f, cols_f, (V_f.n_dofs, V_f.n_dofs))
    M_fe = scatter(block(sv_f, sv_e), cols_f, cols_e, (V_f.n_dofs, X_p.n_dofs))
    M_ee = scatter(block(sv_e, sv_e), cols_e, cols_e, (X_p.n_dofs, X_p.n_dofs))
    return M_ff, M_fe, M_ee


# ---------------------------------------------------------------------------
# loads


def darcy_pressure_load(V_p: FESpace, tags, p_data) -> np.ndarray:
    """Natural pressure boundary term -<phi . n_p, p_D> on tagged poro edges."""
    mesh = V_p.mesh
    ids = mesh.boundary_edge_ids(tags)
    out = np.zeros(V_p.n_dofs)
    if len(ids) == 0:
        return out
    owner, _ = mesh.bedge_owner()
    rule = edge_rule(INTERFACE_QUAD_DEGREE)
    a = mesh.nodes[mesh.bedges[ids, 0]]
    b = mesh.nodes[mesh.bedges[ids, 1]]
    t = b - a
    lengths = np.linalg.norm(t, axis=1)
    normals = np.column_stack([t[:, 1], -t[:, 0]]) / lengths[:, None]
    pts = a[:, None, :] + rule.points[None, :, None] * t[:, None, :]
    cells = owner[ids]
    from .spaces import _geometry
    geo = _geometry(mesh)
    ref = np.einsum("eab,eqb->eqa", geo.invJ[cells], pts - geo.v0[cells][:, None, :])
    vals = V_p.rt_eval_cells(cells, ref)                  # (ne, nv, q, 2)
    pd = np.asarray(p_data(pts.reshape(-1, 2))).reshape(pts.shape[:2])
    w = rule.weights[None, :] * lengths[:, None]
    eloc = -np.einsum("enqd,ed,eq,eq->en", vals, normals, pd, w)
    np.add.at(out, V_p.cell_dofs[cells].ravel(), eloc.ravel())
    return out


def assemble_loads(spaces: dict, data: dict, t: float) -> dict:
    """Per-field load vectors at time ``t``.

    ``data`` may provide callables(points, t): 'ff', 'fp' (vector), 'qf', 'qp'
    (scalar), and 'darcy_pressure' = (tags, p(points, t)) for the natural
    Darcy boundary term.  Missing entries contribute zero.
    """
    out = {name: np.zeros(space.n_dofs) for name, space in spaces.items()}
    if data.get("ff") is not None:
        out["uf"] = load_vector(spaces["uf"], lambda p: data["ff"](p, t))
    if data.get("fp") is not None:
        out["eta"] = load_vector(spaces["eta"], lambda p: data["fp"](p, t))
    if data.get("qf") is not None:
        out["pf"] = load_vector(spaces["pf"], lambda p: data["qf"](p, t))
    if data.get("qp") is not None:
        out["pp"] = load_vector(spaces["pp"], lambda p: data["qp"](p, t))
    if data.get("darcy_pressure") is not None:
        tags, pd = data["darcy_pressure"]
        out["up"] = out["up"] + darcy_pressure_load(spaces["up"], tags, lambda p: pd(p, t))
    return out
