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

import numbers
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .config import ConfigError
from .interface import InterfacePairing, SegmentQuadrature, segment_quadrature, tangential_permeability
from .quadrature import edge_rule, triangle_rule
from .spaces import FESpace, default_quad_degree, load_vector, mass_matrix, scatter

INTERFACE_QUAD_DEGREE = 7
# largest eigenvalue ratio of a cell's K: on example2 at resolution 0.2 the
# step solve ran at ratios up to 1.5e16 and failed at every sampled ratio
# from 1.6e16 up
PERMEABILITY_RATIO_LIMIT = 1e17


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
        with np.errstate(over="ignore", invalid="ignore"):
            det = K[:, 0, 0] * K[:, 1, 1] - K[:, 0, 1] * K[:, 1, 0]
        bad = ~(np.isfinite(det) & (det >= np.finfo(float).tiny))   # det K under- or overflows
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigError(f"k, kxx, kyy: permeability singular in double precision on "
                              f"cell {i} (det K = {det[i]:.3g})")
        with np.errstate(over="ignore"):
            ratio = eig[:, 1] / eig[:, 0]
        if np.any(ratio > PERMEABILITY_RATIO_LIMIT):
            i = int(np.argmax(ratio))
            raise ConfigError(f"k, kxx, kyy: permeability eigenvalue ratio {ratio[i]:.3g} on "
                              f"cell {i} above {PERMEABILITY_RATIO_LIMIT:.0e}")
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
        if K.ndim <= 1:                      # scalar or per-cell isotropic
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


def _sym_grad_form(space: FESpace, rule, two_mu, lam=None) -> sp.csr_matrix:
    """(2 mu D(u), D(v)) [+ (lam div u, div v)] for an interleaved vector space."""
    _, G = space.tabulate(rule)                      # (m, ns, q, 2)
    _, w = space.geometry.quadrature(rule)
    m, ns, nq, _ = G.shape
    P = np.swapaxes(G, 2, 3).reshape(m, 2 * ns, nq)  # rows (i, a): d phi_i / d x_a

    def gram(c):
        """(c d_a phi_i, d_b phi_j) as [m, i, a, j, b]."""
        c = np.asarray(c, dtype=float)
        cw = w * (c[:, None] if c.ndim else c)
        return np.matmul(P * cw[:, None, :], np.swapaxes(P, 1, 2)).reshape(m, ns, 2, ns, 2)

    C = gram(np.asarray(two_mu, dtype=float) / 2.0)
    eloc = C.transpose(0, 1, 4, 3, 2).copy()         # mu d_b phi_i d_a phi_j
    gg = C[:, :, 0, :, 0] + C[:, :, 1, :, 1]         # mu grad phi_i . grad phi_j
    eloc[:, :, 0, :, 0] += gg
    eloc[:, :, 1, :, 1] += gg
    if lam is not None:
        eloc += gram(lam)
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
    _, w = V_p.geometry.quadrature(rule)
    eloc = params.mu * np.einsum("miqa,mab,mjqb,mq->mij", vals, Kinv, vals, w)
    return scatter(eloc, V_p.cell_dofs, V_p.cell_dofs, (V_p.n_dofs, V_p.n_dofs))


def assemble_divergence(V: FESpace, W: FESpace) -> sp.csr_matrix:
    """D[i, j] = (div phi_j, psi_i); the weak form uses b = -D."""
    if V.mesh is not W.mesh:
        raise ValueError("velocity and pressure spaces live on different meshes")
    _check_div_pairing(V, W)
    rule = triangle_rule(default_quad_degree(V, W))
    _, w = V.geometry.quadrature(rule)
    pv = W.ref_values(rule)                          # scalar pressure values (nw, q)
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
        return len(self.pairing.poro.cells) * (self.order + 1)

    def edge_dofs(self, edges) -> np.ndarray:
        """Dofs (k,) of one trace edge, or (n, k) of an array of edges."""
        k = self.order + 1
        return k * np.asarray(edges)[..., None] + np.arange(k)

    def tabulate(self, t: np.ndarray) -> np.ndarray:
        """Basis values (n_basis, ...) at edge parameters ``t`` in [0, 1]."""
        if self.order == 0:
            return np.ones((1,) + t.shape)
        return np.stack([1.0 - t, t])


def make_multiplier_space(pairing: InterfacePairing, order: int) -> MultiplierSpace:
    if order not in (0, 1):
        raise ValueError(f"unsupported multiplier order {order}")
    return MultiplierSpace(pairing=pairing, order=order)


def multiplier_mass(L: MultiplierSpace) -> sp.csr_matrix:
    squad = segment_quadrature(L.pairing, INTERFACE_QUAD_DEGREE)
    lb = L.tabulate(squad.t_edge_p)       # (nb, nseg, q)
    eloc = np.einsum("ikq,jkq,kq->kij", lb, lb, squad.weights)
    rows = L.edge_dofs(L.pairing.seg_poro)
    return scatter(eloc, rows, rows, (L.n_dofs, L.n_dofs))


# ---------------------------------------------------------------------------
# interface forms


def _trace(space: FESpace, cells, points, direction) -> np.ndarray:
    """Component (n, n_loc, q) of a vector basis along one direction (n, 2)
    per row, at physical points (n, q, 2) in ``cells``."""
    return np.einsum("knqd,kd->knq", space.basis_values(cells, points), direction)


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
    lam_rows = L.edge_dofs(pairing.seg_poro)
    blocks = []
    for space, cells, points, normal in (
            (V_f, squad.cells_f, squad.points_f, pairing.seg_n_f),
            (V_p, squad.cells_p, squad.points_p, pairing.seg_n_p),
            (X_p, squad.cells_p, squad.points_p, pairing.seg_n_p)):
        vn = _trace(space, cells, points, normal)
        eloc = np.einsum("bkq,knq,kq->kbn", lb, vn, squad.weights)
        blocks.append(scatter(eloc, lam_rows, space.cell_dofs[cells], (L.n_dofs, space.n_dofs)))
    return tuple(blocks)


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
    f = (V_f.n_dofs, V_f.cell_dofs[squad.cells_f], _trace(V_f, squad.cells_f, squad.points_f, tau))
    e = (X_p.n_dofs, X_p.cell_dofs[squad.cells_p], _trace(X_p, squad.cells_p, squad.points_p, tau))
    return tuple(scatter(np.einsum("kiq,kjq,kq->kij", ta, tb, w), ra, rb, (na, nb))
                 for (na, ra, ta), (nb, rb, tb) in ((f, f), (f, e), (e, e)))


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
    t = mesh.nodes[mesh.bedges[ids, 1]] - a
    pts = a[:, None, :] + rule.points[None, :, None] * t[:, None, :]
    cells = owner[ids]
    vn = _trace(V_p, cells, pts, mesh.bedge_normals()[ids])           # (ne, nv, q)
    pd = np.asarray(p_data(pts.reshape(-1, 2))).reshape(pts.shape[:2])
    w = rule.weights[None, :] * np.linalg.norm(t, axis=1)[:, None]
    eloc = -np.einsum("enq,eq,eq->en", vn, pd, w)
    np.add.at(out, V_p.cell_dofs[cells].ravel(), eloc.ravel())
    return out


def constant(t: float) -> float:
    """The time function g = 1 of time-independent data."""
    return 1.0


class Separable:
    """A field ``sum_k g_k(t) f_k(x)``, the one form of load data.

    ``Separable(f)`` is the time-independent field ``f(points)``,
    ``Separable(f, g)`` the single term ``g(t) f(points)`` and
    ``Separable({g: f, ...})`` a sum of such terms.  Sums, differences and
    scalar multiples are again ``Separable``; terms with the same time
    function (the same object) are merged into one, so that
    ``assemble_loads`` assembles one vector per distinct ``g``.  Calling it
    with ``(points, t)`` evaluates the sum.
    """

    def __init__(self, f, g=constant):
        self.terms = f if isinstance(f, dict) else {g: f}

    def __call__(self, points, t):
        (g, f), *rest = self.terms.items()
        out = g(t) * f(points)
        for g, f in rest:
            out += g(t) * f(points)
        return out

    def __add__(self, other):
        if not isinstance(other, Separable):
            return NotImplemented
        terms = dict(self.terms)
        for g, f in other.terms.items():
            terms[g] = _sum(terms[g], f) if g in terms else f
        return Separable(terms)

    def __mul__(self, c):
        if not isinstance(c, numbers.Real):
            return NotImplemented
        return Separable({g: _scaled(c, f) for g, f in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return -1.0 * self

    def __sub__(self, other):
        return self + -other


def _sum(f1, f2):
    return lambda p: f1(p) + f2(p)


def _scaled(c, f):
    return lambda p: c * f(p)


LOAD_FIELDS = {"ff": "uf", "fp": "eta", "qf": "pf", "qp": "pp", "darcy_pressure": "up"}


def check_load_data(data: dict) -> list:
    """``(field name, tags, Separable)`` per entry of load ``data``, in order.

    ``tags`` is None except for 'darcy_pressure'.  An unknown key, or an
    entry not of the form ``assemble_loads`` takes, raises ``ValueError``
    naming the key.
    """
    entries = []
    for key, field in data.items():
        if key not in LOAD_FIELDS:
            raise ValueError(f"unknown load data key {key!r}")
        name, tags = LOAD_FIELDS[key], None
        if name == "up":
            if not (isinstance(field, tuple) and len(field) == 2):
                raise ValueError(f"load data {key!r} is not (tags, Separable)")
            tags, field = field
        if not isinstance(field, Separable):
            raise ValueError(f"load data {key!r} is not a Separable field")
        entries.append((name, tags, field))
    return entries


def assemble_loads(spaces: dict, data: dict) -> dict:
    """Load vectors ``{g: L_g}``, one per distinct time function of ``data``.

    ``data`` may hold the ``Separable`` sources 'ff', 'fp' (vector), 'qf'
    and 'qp' (scalar), and 'darcy_pressure' = (tags, p) with a ``Separable``
    p for the natural Darcy boundary term.  Each ``L_g`` holds the blocks of
    ``spaces`` one after the other, in their order, so the load at time t is
    ``sum(g(t) * L_g)``; missing entries contribute zero.  ``data`` is
    checked by ``check_load_data``.
    """
    sizes = [space.n_dofs for space in spaces.values()]
    offsets = dict(zip(spaces, np.cumsum([0] + sizes)))
    loads = {}
    for name, tags, field in check_load_data(data):
        for g, f in field.terms.items():
            vec = (darcy_pressure_load(spaces[name], tags, f) if name == "up"
                   else load_vector(spaces[name], f))
            L = loads.setdefault(g, np.zeros(sum(sizes)))
            L[offsets[name]:offsets[name] + len(vec)] += vec
    return loads
