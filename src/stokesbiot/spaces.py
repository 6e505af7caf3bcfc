"""Finite element spaces: DOF numbering, tabulation, projections.

Supported families:

==============  =========================================  ================
name            description                                dofs
==============  =========================================  ================
P0              piecewise constants                        1 / cell
P1              continuous linears                         1 / vertex
P1dc            discontinuous linears                      3 / cell
P2              continuous quadratics                      vertex + edge
P1bubble        P1 + cubic cell bubble (scalar MINI)       vertex + cell
VecP1 etc.      two interleaved scalar components          2x scalar
RT0, RT1        H(div) Raviart-Thomas, edge-flux dofs      see elements
==============  =========================================  ================

Vector dofs are interleaved (x then y per entity) so that boundary rotations
act on contiguous pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elements import SCALAR_ELEMENTS, _rt_monomials
from .mesh import Mesh2D
from .quadrature import QuadratureRule, edge_rule, triangle_rule

VECTOR_FAMILIES = {"VecP1": "P1", "VecP2": "P2", "VecP1bubble": "P1bubble"}
RT_FAMILIES = {"RT0": 0, "RT1": 1}


class CellGeometry:
    """Affine geometry of all cells of a mesh (columns of J are edge vectors)."""

    def __init__(self, mesh: Mesh2D):
        p = mesh.nodes[mesh.tris]
        self.v0 = p[:, 0]
        self.J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        self.detJ = self.J[:, 0, 0] * self.J[:, 1, 1] - self.J[:, 0, 1] * self.J[:, 1, 0]
        inv = np.empty_like(self.J)
        inv[:, 0, 0] = self.J[:, 1, 1]
        inv[:, 0, 1] = -self.J[:, 0, 1]
        inv[:, 1, 0] = -self.J[:, 1, 0]
        inv[:, 1, 1] = self.J[:, 0, 0]
        inv /= self.detJ[:, None, None]
        self.invJ = inv
        self.invJT = np.swapaxes(inv, 1, 2)
        self.areas = 0.5 * self.detJ

    def map_points(self, ref_points: np.ndarray, cells=slice(None)) -> np.ndarray:
        """Physical coordinates (m, q, 2) of reference points (q, 2) in
        ``cells`` (every cell by default)."""
        return self.v0[cells, None, :] + np.matmul(ref_points, np.swapaxes(self.J[cells], 1, 2))

    def quadrature(self, rule: QuadratureRule, cells=slice(None)):
        """Physical points (m, q, 2) and weights (m, q) of ``rule`` on
        ``cells`` (every cell by default), computed on each call and owned
        by the caller."""
        return (self.map_points(rule.points, cells),
                rule.weights[None, :] * (2.0 * self.areas[cells])[:, None])

    def ref_coords(self, cells, phys: np.ndarray) -> np.ndarray:
        """Reference coordinates (n, q, 2) of physical points (n, q, 2) in ``cells``."""
        return np.matmul(phys - self.v0[cells][:, None, :], self.invJT[cells])


def _geometry(mesh: Mesh2D) -> CellGeometry:
    if "geometry" not in mesh._cache:
        mesh._cache["geometry"] = CellGeometry(mesh)
    return mesh._cache["geometry"]


@dataclass
class FESpace:
    family: str
    mesh: Mesh2D
    n_dofs: int
    cell_dofs: np.ndarray              # (m, n_loc)
    vector: bool
    degree: int
    scalar_name: str | None = None     # underlying scalar family for CG
    rt_order: int | None = None
    # "rt": see _rt_data; "centroid_values": see scenarios._rt_at_centroids
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def geometry(self) -> CellGeometry:
        return _geometry(self.mesh)

    @property
    def n_loc(self) -> int:
        return self.cell_dofs.shape[1]

    # -- tabulation ---------------------------------------------------------

    def tabulate(self, rule: QuadratureRule, cells=slice(None)):
        """Physical basis data at the rule's points in ``cells`` (every cell
        by default), computed on each call and owned by the caller.

        Scalar CG: ``(vals (n_loc, q), grads (m, n_loc, q, 2))``.
        RT: ``(vals (m, n_loc, q, 2), divs (m, n_loc, q))``.
        Vector CG spaces tabulate their scalar component; assembly kernels
        expand components on the fly.
        """
        if self.rt_order is not None:
            return self._rt_basis(cells, self.geometry.map_points(rule.points, cells))
        vals, gref = SCALAR_ELEMENTS[self.scalar_name].tabulate(rule.points)
        return vals, np.matmul(gref, self.geometry.invJ[cells, None])

    def ref_values(self, rule: QuadratureRule) -> np.ndarray:
        """Scalar component values (n_loc, q) of a Lagrange family at the
        rule's points: the values of ``tabulate`` without its physical
        gradients, for callers that read values only."""
        return SCALAR_ELEMENTS[self.scalar_name].tabulate(rule.points)[0]

    def _rt_data(self):
        """Batched per-cell RT basis coefficients: inverse dof-moment matrices of
        ``elements._rt_monomials`` (the one RT basis construction)."""
        if "rt" in self._cache:
            return self._cache["rt"]
        mesh, order = self.mesh, self.rt_order
        verts = mesh.nodes[mesh.tris]                  # (m, 3, 2)
        ends = mesh.nodes[mesh.edges[mesh.cell_edges]]  # (m, 3, 2, 2) sorted ends
        m = mesh.n_tris
        centroid = verts.mean(axis=1)                  # (m, 2)
        area = _geometry(mesh).areas
        scale = np.sqrt(area)
        nd = 3 if order == 0 else 8
        M = np.zeros((m, nd, nd))
        eq = edge_rule(5)
        row = 0
        for i in range(3):
            A, B = ends[:, i, 0], ends[:, i, 1]
            t = B - A
            L = np.linalg.norm(t, axis=1)
            n = np.column_stack([t[:, 1], -t[:, 0]]) / L[:, None]
            pts = A[:, None, :] + eq.points[None, :, None] * t[:, None, :]
            X = (pts - centroid[:, None, :]) / scale[:, None, None]
            mv, _ = _rt_monomials(order, X)            # (k, m, q, 2)
            flux = np.einsum("kmqd,md->kmq", mv, n) / scale[None, :, None]
            M[:, row, :] = np.einsum("kmq,q->mk", flux, eq.weights) * L[:, None]
            row += 1
            if order == 1:
                mom = eq.weights * (2.0 * eq.points - 1.0)
                M[:, row, :] = np.einsum("kmq,q->mk", flux, mom) * L[:, None]
                row += 1
        if order == 1:
            pts, w = _geometry(mesh).quadrature(triangle_rule(3))
            X = (pts - centroid[:, None, :]) / scale[:, None, None]
            mv, _ = _rt_monomials(order, X)
            mean = np.einsum("kmqd,mq->mkd", mv / scale[None, :, None, None], w)
            M[:, 6, :] = mean[:, :, 0] / area[:, None]
            M[:, 7, :] = mean[:, :, 1] / area[:, None]
        coeffs = np.linalg.solve(M, np.broadcast_to(np.eye(nd), (m, nd, nd)).copy())
        self._cache["rt"] = (centroid, scale, coeffs)
        return self._cache["rt"]

    def _rt_basis(self, cells, pts: np.ndarray):
        """RT basis values (n, n_loc, q, 2) and divergences (n, n_loc, q) at
        physical points (n, q, 2) in ``cells``, straight from the monomials."""
        centroid, scale, coeffs = self._rt_data()
        s = scale[cells]
        X = (pts - centroid[cells, None, :]) / s[:, None, None]
        mv, md = _rt_monomials(self.rt_order, X)       # (k, n, q, 2), (k, n, q)
        vals = np.einsum("kmqd,mkn->mnqd", mv / s[None, :, None, None], coeffs[cells])
        divs = np.einsum("kmq,mkn->mnq", md / (s**2)[None, :, None], coeffs[cells])
        return vals, divs

    def basis_values(self, cells: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Basis values at physical points (n, q, 2), row i in ``cells[i]``.

        Scalar families give (n, n_loc, q).  RT and vector families give
        (n, n_loc, q, 2), the vector bases interleaved like ``cell_dofs``:
        local function 2i is (phi_i, 0) and 2i + 1 is (0, phi_i).
        """
        if self.rt_order is not None:
            return self._rt_basis(cells, points)[0]
        n, q, _ = points.shape
        ref = self.geometry.ref_coords(cells, points).reshape(-1, 2)
        vals = SCALAR_ELEMENTS[self.scalar_name].tabulate(ref)[0].reshape(-1, n, q)
        vals = np.swapaxes(vals, 0, 1)                 # (n, ns, q)
        if not self.vector:
            return vals
        out = np.zeros((n, 2 * vals.shape[1], q, 2))
        out[:, 0::2, :, 0] = vals
        out[:, 1::2, :, 1] = vals
        return out

    # -- dof helpers ---------------------------------------------------------

    def interior_dofs(self) -> np.ndarray:
        """(m, k) dofs that belong to one cell only: the bubbles of P1bubble,
        the interior moments of RT1, every dof of P0 / P1dc; (m, 0) otherwise."""
        if self.rt_order is not None:
            k = 2 * self.rt_order
        else:
            k = SCALAR_ELEMENTS[self.scalar_name].dofs_per_cell * (2 if self.vector else 1)
        return self.cell_dofs[:, self.n_loc - k:]

    def vertex_dofs(self, vertices) -> np.ndarray:
        """Global dofs attached to mesh vertices; (n,) scalar or (n, 2) vector."""
        v = np.asarray(vertices, dtype=np.int64)
        if self.scalar_name is None or SCALAR_ELEMENTS[self.scalar_name].dofs_per_vertex == 0:
            raise ValueError(f"{self.family} has no vertex dofs")
        if self.vector:
            return np.stack([2 * v, 2 * v + 1], axis=-1)
        return v

    def edge_dofs(self, edges) -> np.ndarray:
        """Global dofs attached to mesh edges (P2 midpoints or RT fluxes)."""
        e = np.asarray(edges, dtype=np.int64)
        if self.rt_order == 0:
            return e[:, None]
        if self.rt_order == 1:
            return np.stack([2 * e, 2 * e + 1], axis=-1)
        el = SCALAR_ELEMENTS[self.scalar_name] if self.scalar_name else None
        if el is None or el.dofs_per_edge == 0:
            raise ValueError(f"{self.family} has no edge dofs")
        nv = self.mesh.n_nodes
        if self.vector:
            return np.stack([2 * (nv + e), 2 * (nv + e) + 1], axis=-1)
        return (nv + e)[:, None]

    def dof_points(self):
        """Coordinates of nodal dofs; vector dofs also report their component."""
        mesh = self.mesh
        el = SCALAR_ELEMENTS[self.scalar_name] if self.scalar_name else None
        if el is None or el.nodes is None:
            raise ValueError(f"{self.family} is not a nodal family")
        if el.name == "P1":
            pts = mesh.nodes
        elif el.name == "P2":
            mids = 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])
            pts = np.vstack([mesh.nodes, mids])
        elif el.name == "P1dc":
            pts = mesh.nodes[mesh.tris].reshape(-1, 2)
        elif el.name == "P0":
            pts = mesh.nodes[mesh.tris].mean(axis=1)
        else:
            raise ValueError(f"{self.family} is not a nodal family")
        if self.vector:
            pts = np.repeat(pts, 2, axis=0)
            comp = np.tile([0, 1], self.n_dofs // 2)
            return pts, comp
        return pts, None


def make_space(mesh: Mesh2D, family: str) -> FESpace:
    """Build the DOF map of ``family`` over ``mesh``."""
    if family in RT_FAMILIES:
        order = RT_FAMILIES[family]
        ne = len(mesh.edges)
        m = mesh.n_tris
        if order == 0:
            cell_dofs = mesh.cell_edges.copy()
            n_dofs = ne
        else:
            cell_dofs = np.empty((m, 8), dtype=np.int64)
            cell_dofs[:, 0:6:2] = 2 * mesh.cell_edges
            cell_dofs[:, 1:6:2] = 2 * mesh.cell_edges + 1
            cell_dofs[:, 6] = 2 * ne + 2 * np.arange(m)
            cell_dofs[:, 7] = 2 * ne + 2 * np.arange(m) + 1
            n_dofs = 2 * ne + 2 * m
        return FESpace(family=family, mesh=mesh, n_dofs=n_dofs, cell_dofs=cell_dofs,
                       vector=True, degree=order + 1, rt_order=order)

    vector = family in VECTOR_FAMILIES
    scalar_name = VECTOR_FAMILIES.get(family, family)
    if scalar_name not in SCALAR_ELEMENTS:
        raise ValueError(f"unknown element family {family!r}")
    el = SCALAR_ELEMENTS[scalar_name]
    m = mesh.n_tris
    nv, ne = mesh.n_nodes, len(mesh.edges)

    cols = []
    offset = 0
    if el.dofs_per_vertex:
        cols.append(mesh.tris)
        offset += nv
    if el.dofs_per_edge:
        cols.append(offset + mesh.cell_edges)
        offset += ne
    if el.dofs_per_cell:
        k = el.dofs_per_cell
        cols.append(offset + (k * np.arange(m)[:, None] + np.arange(k)[None, :]))
        offset += k * m
    scalar_dofs = np.hstack(cols)
    n_scalar = offset

    if vector:
        nloc = scalar_dofs.shape[1]
        cell_dofs = np.empty((m, 2 * nloc), dtype=np.int64)
        cell_dofs[:, 0::2] = 2 * scalar_dofs
        cell_dofs[:, 1::2] = 2 * scalar_dofs + 1
        n_dofs = 2 * n_scalar
    else:
        cell_dofs = scalar_dofs
        n_dofs = n_scalar
    return FESpace(family=family, mesh=mesh, n_dofs=n_dofs, cell_dofs=cell_dofs,
                   vector=vector, degree=el.degree, scalar_name=scalar_name)


def default_quad_degree(*spaces: FESpace) -> int:
    """2 * max trial degree + 3, floor 5; integrates smooth data adequately."""
    return max(5, 2 * max(s.degree for s in spaces) + 3)


# ---------------------------------------------------------------------------
# projections and interpolation


def mass_matrix(space: FESpace) -> sp.csr_matrix:
    rule = triangle_rule(default_quad_degree(space))
    _, w = space.geometry.quadrature(rule)
    if space.rt_order is not None:
        vals, _ = space.tabulate(rule)
        eloc = np.einsum("miqd,mjqd,mq->mij", vals, vals, w)
    else:
        vals = space.ref_values(rule)
        eloc_s = np.einsum("iq,jq,mq->mij", vals, vals, w)
        if space.vector:
            eloc = _expand_vector_blocks(eloc_s)
        else:
            eloc = eloc_s
    return scatter(eloc, space.cell_dofs, space.cell_dofs, (space.n_dofs, space.n_dofs))


def _expand_vector_blocks(eloc_s: np.ndarray) -> np.ndarray:
    """Scalar element matrices -> block-diagonal per-component vector ones."""
    m, n, _ = eloc_s.shape
    out = np.zeros((m, 2 * n, 2 * n))
    out[:, 0::2, 0::2] = eloc_s
    out[:, 1::2, 1::2] = eloc_s
    return out


def scatter(eloc, rows_dofs, cols_dofs, shape) -> sp.csr_matrix:
    """Accumulate per-cell element matrices into a global CSR matrix."""
    m, nr, nc = eloc.shape
    rows = np.repeat(rows_dofs, nc, axis=1).ravel()
    cols = np.tile(cols_dofs, (1, nr)).ravel()
    mat = sp.coo_matrix((eloc.ravel(), (rows, cols)), shape=shape)
    return mat.tocsr()


def load_vector(space: FESpace, f) -> np.ndarray:
    """Assemble (f, phi) for all basis functions phi of ``space``."""
    rule = triangle_rule(default_quad_degree(space) + 2)
    pts, w = space.geometry.quadrature(rule)
    fx = np.asarray(f(pts.reshape(-1, 2)))
    if space.rt_order is not None:
        vals, _ = space.tabulate(rule)
        fw = fx.reshape(pts.shape) * w[..., None]
        m = len(w)
        eloc = np.matmul(vals.reshape(m, space.n_loc, -1), fw.reshape(m, -1, 1))
    else:
        vals = space.ref_values(rule)
        if space.vector:
            eloc = vals @ (fx.reshape(pts.shape) * w[..., None])   # (m, n_s, 2), interleaved (x, y)
        else:
            eloc = (fx.reshape(w.shape) * w) @ vals.T
    out = np.zeros(space.n_dofs)
    np.add.at(out, space.cell_dofs.ravel(), eloc.ravel())
    return out


def l2_project(space: FESpace, f) -> np.ndarray:
    """Coefficients of the L2 projection of ``f`` onto ``space``."""
    M = mass_matrix(space)
    b = load_vector(space, f)
    return spla.spsolve(M.tocsc(), b)


def nodal_interpolate(space: FESpace, f) -> np.ndarray:
    """Coefficients matching ``f`` at the nodal points of a Lagrangian family."""
    pts, comp = space.dof_points()
    fx = np.asarray(f(pts))
    if space.vector:
        if fx.ndim != 2:
            raise ValueError("vector space needs vector-valued data")
        return fx[np.arange(len(pts)), comp]
    return fx.reshape(-1)
