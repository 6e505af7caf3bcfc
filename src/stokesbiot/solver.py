"""Monolithic time-discrete system and its backward Euler integration.

Unknown ordering is (u_f, u_p, eta_p, p_f, p_p, lambda).  The operator is
split into the part E multiplying discrete time derivatives (storage, slip
coupling to the structure velocity, interface constraint on the structure)
and the stationary part H; one step solves (E / tau + H) X^{n+1} =
L(t_{n+1}) + E X^n / tau.

Essential conditions are imposed by ``ConstrainedOperator``: it rotates
constrained velocity / displacement node pairs into normal-tangential form
where needed, then eliminates rows and columns with a symmetric right-hand
side correction.  The step matrix is factorized once and reused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import MultiplierSpace, PhysicalParams
from .interface import InterfacePairing, segment_quadrature
from .spaces import FESpace, l2_project, nodal_interpolate

FIELDS = ("uf", "up", "eta", "pf", "pp", "lam")
DENSE_FALLBACK = 2000


class SingularMatrixError(RuntimeError):
    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class LUSolver:
    """Direct solve with one iterative refinement pass per application.

    Dense LU below ``DENSE_FALLBACK`` unknowns, SuperLU (threshold partial
    pivoting, COLAMD ordering) above.
    """

    def __init__(self, M, dense_threshold: int = DENSE_FALLBACK):
        M = sp.csc_matrix(M)
        if M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        self.M = M
        self.n = M.shape[0]
        self.dense = self.n < dense_threshold
        if self.dense:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # singularity detected below
                lu, piv = dla.lu_factor(M.toarray())
            diag = np.abs(np.diag(lu))
            if not np.all(np.isfinite(lu)) or np.any(diag == 0.0):
                bad = int(np.argmin(diag))
                raise SingularMatrixError(f"singular matrix, zero pivot at {bad}", pivot=bad)
            self._fact = (lu, piv)
        else:
            try:
                self._fact = spla.splu(M)
            except RuntimeError as exc:
                raise SingularMatrixError(str(exc)) from exc

    def _solve_once(self, b):
        if self.dense:
            return dla.lu_solve(self._fact, b)
        return self._fact.solve(b)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._solve_once(b)
        r = b - self.M @ x
        x = x + self._solve_once(r)
        if not np.all(np.isfinite(x)):
            raise SingularMatrixError("solve produced non-finite values")
        return x


# ---------------------------------------------------------------------------
# essential boundary conditions


@dataclass
class DirichletBC:
    """Prescribe a vector Lagrangian field on tagged boundary edges.

    ``value(points, t) -> (k, 2)``; with ``normal_only`` the normal component
    alone is constrained (to zero) and the tangential part is left free.
    """

    field: str
    tags: tuple
    value: object = None
    normal_only: bool = False


@dataclass
class FluxBC:
    """Zero normal flux (all RT edge moments) on tagged boundary edges."""

    field: str
    tags: tuple


@dataclass
class Constraints:
    rotations: list          # (dof_x, dof_y, nx, ny) in global numbering
    fixed: np.ndarray        # constrained dof ids, rotated frame, sorted
    _value_parts: list       # (ids_into_fixed, fn, points, comps) or zeros

    def rotation(self, n: int):
        if not self.rotations:
            return None
        R = sp.identity(n, format="lil")
        for dx, dy, nx, ny in self.rotations:
            R[dx, dx], R[dx, dy] = nx, ny
            R[dy, dx], R[dy, dy] = -ny, nx
        return R.tocsr()

    def free(self, n: int) -> np.ndarray:
        """Sorted ids of the unconstrained dofs among ``n``."""
        mask = np.ones(n, dtype=bool)
        mask[self.fixed] = False
        return np.nonzero(mask)[0]

    def values(self, t: float) -> np.ndarray:
        g = np.zeros(len(self.fixed))
        for ids, fn, points, comps in self._value_parts:
            vals = np.asarray(fn(points, t))
            g[ids] = vals[np.arange(len(points)), comps]
        return g


def _boundary_nodes(space: FESpace, tags):
    """Node entities (plus per-node averaged outward normals) on tagged edges."""
    mesh = space.mesh
    ids = mesh.boundary_edge_ids(tags)
    normals = mesh.bedge_normals()[ids]
    points, entity_dofs, nlist = [], [], []
    acc: dict[int, list] = {}
    for be, n in zip(ids, normals):
        for v in mesh.bedges[be]:
            acc.setdefault(int(v), []).append(n)
    for v, ns in sorted(acc.items()):
        points.append(space.mesh.nodes[v])
        entity_dofs.append(space.vertex_dofs([v])[0])
        nlist.append(ns)
    if space.scalar_name == "P2":
        eids = mesh.bedge_edge_ids()[ids]
        mids = 0.5 * (mesh.nodes[mesh.bedges[ids, 0]] + mesh.nodes[mesh.bedges[ids, 1]])
        for e, mid, n in zip(eids, mids, normals):
            points.append(mid)
            entity_dofs.append(space.edge_dofs([e])[0])
            nlist.append([n])
    return np.array(points), np.array(entity_dofs), nlist


def build_constraints(spaces: dict, offsets: dict, bcs: list) -> Constraints:
    full: dict[int, tuple] = {}       # dof_x -> (dof_y, point, fn)
    normal: dict[int, tuple] = {}     # dof_x -> (dof_y, normals list)
    flux_fixed: list[int] = []

    for bc in bcs:
        if bc.field not in offsets:
            continue
        off = offsets[bc.field]
        space = spaces[bc.field]
        if isinstance(bc, FluxBC):
            eids = space.mesh.bedge_edge_ids()[space.mesh.boundary_edge_ids(bc.tags)]
            flux_fixed.extend((off + space.edge_dofs(eids)).ravel().tolist())
            continue
        points, dofs, nlist = _boundary_nodes(space, bc.tags)
        for p, d, ns in zip(points, dofs, nlist):
            dx, dy = off + int(d[0]), off + int(d[1])
            if bc.normal_only:
                if dx not in full:
                    prev = normal.get(dx, (dy, []))[1]
                    normal[dx] = (dy, prev + list(ns))
            else:
                full[dx] = (dy, p, bc.value)
                normal.pop(dx, None)

    rotations = []
    fixed: list[int] = list(flux_fixed)
    parts_points: dict = {}
    for dx, (dy, p, fn) in sorted(full.items()):
        fixed.extend([dx, dy])
        parts_points.setdefault(id(fn), (fn, [], []))
        _, pts, dofs = parts_points[id(fn)]
        pts.append(p)
        dofs.append((dx, 0))
        pts.append(p)
        dofs.append((dy, 1))
    for dx, (dy, ns) in sorted(normal.items()):
        base = ns[0] / np.linalg.norm(ns[0])
        distinct = any(abs(base[0] * n[1] - base[1] * n[0]) > 1e-8 * np.linalg.norm(n) for n in ns[1:])
        if distinct:
            fixed.extend([dx, dy])    # corner: both components pinned to zero
        else:
            avg = np.mean(ns, axis=0)
            avg /= np.linalg.norm(avg)
            rotations.append((dx, dy, float(avg[0]), float(avg[1])))
            fixed.append(dx)          # rotated slot dx now holds v . n

    fixed = np.array(sorted(set(fixed)), dtype=np.int64)
    pos = {int(d): i for i, d in enumerate(fixed)}
    value_parts = []
    for fn, pts, dofcomps in parts_points.values():
        ids = np.array([pos[d] for d, _ in dofcomps], dtype=np.int64)
        comps = np.array([c for _, c in dofcomps], dtype=np.int64)
        value_parts.append((ids, fn, np.array(pts), comps))
    return Constraints(rotations=rotations, fixed=fixed, _value_parts=value_parts)


class ConstrainedOperator:
    """A square operator with its essential conditions eliminated.

    The constrained node pairs are rotated once, the dofs split into free and
    fixed, and the free block factorized (unless ``factorize`` is false).
    Vectors passed in and returned are in the unrotated frame.
    """

    def __init__(self, A, constraints: Constraints, factorize: bool = True):
        self.n = A.shape[0]
        self.R = constraints.rotation(self.n)
        At = A if self.R is None else (self.R @ A @ self.R.T).tocsr()
        self.fixed = constraints.fixed
        self.free = constraints.free(self.n)
        rows = At[self.free]
        self.A_ff, self.A_fc = rows[:, self.free], rows[:, self.fixed]
        del At, rows      # not held while factorizing: lowers peak memory
        self.lu = LUSolver(self.A_ff) if factorize else None

    def solve(self, rhs: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
        """Solution with fixed dofs set to ``g`` (zero by default).

        ``rhs`` is (n,) or (n, k); ``g`` matches it on the fixed dofs.
        """
        if self.R is not None:
            rhs = self.R @ rhs
        if g is None:
            g = np.zeros((len(self.fixed),) + rhs.shape[1:])
        X = np.empty(rhs.shape)
        X[self.free] = self.lu.solve(rhs[self.free] - self.A_fc @ g)
        X[self.fixed] = g
        return X if self.R is None else self.R.T @ X

    def reaction(self, r: np.ndarray) -> np.ndarray:
        """The part of the residual ``r`` on the constrained rows."""
        if self.R is not None:
            r = self.R @ r
        out = np.zeros(r.shape)
        out[self.fixed] = r[self.fixed]
        return out if self.R is None else self.R.T @ out


# ---------------------------------------------------------------------------
# the coupled system


@dataclass
class TransientState:
    X: np.ndarray
    n: int
    tau: float

    @property
    def t(self) -> float:
        return self.n * self.tau


class CoupledSystem:
    """Assembled blocks, BC handling, and the factorized step operator."""

    def __init__(self, spaces: dict, L: MultiplierSpace, pairing: InterfacePairing,
                 params: PhysicalParams, tau: float, bcs: list, data: dict | None = None,
                 interface_degree: int = assembly.INTERFACE_QUAD_DEGREE,
                 factorize: bool = True):
        if tau <= 0:
            raise ValueError("time step must be positive")
        self.spaces = spaces
        self.L = L
        self.pairing = pairing
        self.params = params
        self.tau = tau
        self.bcs = bcs
        self.data = dict(data or {})

        self.sizes = {name: spaces[name].n_dofs for name in ("uf", "up", "eta", "pf", "pp")}
        self.sizes["lam"] = L.n_dofs
        self.offsets = {}
        off = 0
        for name in FIELDS:
            self.offsets[name] = off
            off += self.sizes[name]
        self.n_dofs = off

        squad = segment_quadrature(pairing, interface_degree)
        b = {}
        b["Af"] = assembly.assemble_stokes_viscous(spaces["uf"], params)
        b["Ap"] = assembly.assemble_darcy_mass(spaces["up"], params)
        b["Ae"] = assembly.assemble_elasticity(spaces["eta"], params)
        b["Mp"] = assembly.pressure_mass(spaces["pp"])
        b["Df"] = assembly.assemble_divergence(spaces["uf"], spaces["pf"])
        b["Dp"] = assembly.assemble_divergence(spaces["up"], spaces["pp"])
        b["Dep"] = assembly.assemble_divergence(spaces["eta"], spaces["pp"])
        b["Mff"], b["Mfe"], b["Mee"] = assembly.assemble_bjs(pairing, spaces["uf"], spaces["eta"], params, squad)
        b["Bf"], b["Bp"], b["Be"] = assembly.assemble_bgamma(
            pairing, spaces["uf"], spaces["up"], spaces["eta"], L, squad)
        self.blocks = b
        self._check_block_dims()

        alpha = params.alpha
        self.E = _bmat_fields([
            [None, None, -b["Mfe"], None, None, None],
            [None, None, None, None, None, None],
            [None, None, b["Mee"], None, None, None],
            [None, None, None, None, None, None],
            [None, None, alpha * b["Dep"], None, params.s0 * b["Mp"], None],
            [None, None, -b["Be"], None, None, None],
        ], self.sizes)
        self.H = _bmat_fields([
            [b["Af"] + b["Mff"], None, None, -b["Df"].T, None, b["Bf"].T],
            [None, b["Ap"], None, None, -b["Dp"].T, b["Bp"].T],
            [-b["Mfe"].T, None, b["Ae"], None, -alpha * b["Dep"].T, b["Be"].T],
            [b["Df"], None, None, None, None, None],
            [None, b["Dp"], None, None, None, None],
            [-b["Bf"], -b["Bp"], None, None, None, None],
        ], self.sizes)
        self.M = (self.E / tau + self.H).tocsr()

        self.constraints = build_constraints(spaces, self.offsets, bcs)
        self.op = ConstrainedOperator(self.M, self.constraints, factorize)
        self.M_ff, self.lu = self.op.A_ff, self.op.lu
        self._load_cache = {}

    def _check_block_dims(self) -> None:
        shapes = {
            "Af": ("uf", "uf"), "Ap": ("up", "up"), "Ae": ("eta", "eta"),
            "Mp": ("pp", "pp"), "Df": ("pf", "uf"), "Dp": ("pp", "up"),
            "Dep": ("pp", "eta"), "Mff": ("uf", "uf"), "Mfe": ("uf", "eta"),
            "Mee": ("eta", "eta"), "Bf": ("lam", "uf"), "Bp": ("lam", "up"),
            "Be": ("lam", "eta"),
        }
        for name, (r, c) in shapes.items():
            got = self.blocks[name].shape
            want = (self.sizes[r], self.sizes[c])
            if got != want:
                raise ValueError(f"block {name} has shape {got}, expected {want}")

    # -- field views ---------------------------------------------------------

    def view(self, X: np.ndarray, name: str) -> np.ndarray:
        o = self.offsets[name]
        return X[o:o + self.sizes[name]]

    def pack(self, **fields) -> np.ndarray:
        X = np.zeros(self.n_dofs)
        for name, v in fields.items():
            self.view(X, name)[:] = v
        return X

    # -- loads ----------------------------------------------------------------

    def load(self, t: float) -> np.ndarray:
        if self.data.get("static") and self._load_cache:
            return next(iter(self._load_cache.values()))
        key = round(t, 14)
        if key not in self._load_cache:
            per = assembly.assemble_loads(
                {n: self.spaces[n] for n in ("uf", "up", "eta", "pf", "pp")}, self.data, t)
            L = np.zeros(self.n_dofs)
            for name, vec in per.items():
                self.view(L, name)[:] = vec
            if self.data.get("static"):
                self._load_cache.clear()
            self._load_cache[key] = L
            if len(self._load_cache) > 4 and not self.data.get("static"):
                self._load_cache.pop(next(iter(self._load_cache)))
        return self._load_cache[key]

    # -- initial data ----------------------------------------------------------

    def initial_state(self, pp0=None, eta0=None, eta_dot0=None, consistency_solve: bool = True) -> TransientState:
        """Project initial pressure / displacement; optionally fill the
        algebraic variables (u_f, u_p, p_f, lambda) by a Stokes-Darcy solve."""
        X = np.zeros(self.n_dofs)
        if pp0 is not None:
            self.view(X, "pp")[:] = l2_project(self.spaces["pp"], pp0)
        if eta0 is not None:
            self.view(X, "eta")[:] = nodal_interpolate(self.spaces["eta"], eta0)
        state = TransientState(X=X, n=0, tau=self.tau)
        if consistency_solve:
            self._consistent_initialize(state, eta_dot0)
        return state

    def _consistent_initialize(self, state: TransientState, eta_dot0) -> None:
        b = self.blocks
        if eta_dot0 is None:
            etad = np.zeros(self.sizes["eta"])
        else:
            etad = nodal_interpolate(self.spaces["eta"], eta_dot0)
        sizes = {n: self.sizes[n] for n in ("uf", "up", "pf", "lam")}
        offs, off = {}, 0
        for n in ("uf", "up", "pf", "lam"):
            offs[n] = off
            off += sizes[n]
        A = _bmat_fields([
            [b["Af"] + b["Mff"], None, -b["Df"].T, b["Bf"].T],
            [None, b["Ap"], None, b["Bp"].T],
            [b["Df"], None, None, None],
            [-b["Bf"], -b["Bp"], None, None],
        ], sizes)
        L0 = self.load(0.0)
        pp0 = self.view(state.X, "pp")
        rhs = np.concatenate([
            self.view(L0, "uf") + b["Mfe"] @ etad,
            self.view(L0, "up") + b["Dp"].T @ pp0,
            self.view(L0, "pf"),
            b["Be"] @ etad,
        ])
        cons = build_constraints(self.spaces, {"uf": offs["uf"], "up": offs["up"]},
                                 [bc for bc in self.bcs if bc.field in ("uf", "up")])
        x = ConstrainedOperator(A, cons).solve(rhs, cons.values(0.0))
        for n in ("uf", "up", "pf", "lam"):
            self.view(state.X, n)[:] = x[offs[n]:offs[n] + sizes[n]]

    # -- stepping ---------------------------------------------------------------

    def step(self, state: TransientState) -> TransientState:
        t1 = (state.n + 1) * self.tau
        rhs = self.load(t1) + (self.E @ state.X) / self.tau
        X = self.op.solve(rhs, self.constraints.values(t1))
        return TransientState(X=X, n=state.n + 1, tau=self.tau)

    # -- diagnostics --------------------------------------------------------------

    def constraint_residual(self, state: TransientState, prev: TransientState) -> float:
        """Relative size of b_Gamma(u_f, u_p, d_tau eta; mu) over multiplier dofs."""
        b = self.blocks
        d_eta = (self.view(state.X, "eta") - self.view(prev.X, "eta")) / self.tau
        terms = [b["Bf"] @ self.view(state.X, "uf"),
                 b["Bp"] @ self.view(state.X, "up"),
                 b["Be"] @ d_eta]
        res = np.abs(terms[0] + terms[1] + terms[2]).max()
        scale = max(np.abs(t).max() for t in terms)
        return float(res / scale) if scale > 0 else float(res)

    def reaction(self, state: TransientState, prev: TransientState) -> np.ndarray:
        """Residual on constrained rows: the essential-BC reaction forces.

        Returned in the unrotated frame, zero on free dofs up to solver
        accuracy.
        """
        r = self.M @ state.X - self.load(state.t) - (self.E @ prev.X) / self.tau
        return self.op.reaction(r)


def _bmat_fields(rows, sizes: dict) -> sp.csr_matrix:
    names = [n for n in FIELDS if n in sizes]
    fixed_rows = []
    for i, row in enumerate(rows):
        fixed = []
        for j, blk in enumerate(row):
            if blk is None and i == j:
                # keep the diagonal structurally present so bmat infers sizes
                fixed.append(sp.csr_matrix((sizes[names[i]], sizes[names[j]])))
            else:
                fixed.append(blk)
        fixed_rows.append(fixed)
    return sp.bmat(fixed_rows, format="csr")


def run_transient(system: CoupledSystem, T: float, state0: TransientState,
                  output_stride: int = 0, collect_diagnostics: bool = False):
    """March to time T; returns (states, diagnostics).

    ``output_stride`` 0 keeps the initial and final states only; stride k
    keeps every k-th step.  Diagnostics are per-step dicts with the interface
    constraint residual and the discrete energy identity residual.
    """
    tau = system.tau
    N = int(round(T / tau))
    if abs(N * tau - T) > 1e-12 * max(1.0, abs(T)):
        raise ValueError(f"final time {T} is not an integer number of steps of {tau}")
    states = [state0]
    diagnostics = []
    prev = state0
    for n in range(1, N + 1):
        cur = system.step(prev)
        if collect_diagnostics:
            from .verify import energy_identity_residual
            diagnostics.append({
                "n": n,
                "t": cur.t,
                "constraint_residual": system.constraint_residual(cur, prev),
                "energy_residual": energy_identity_residual(system, cur, prev),
            })
        keep = (output_stride > 0 and n % output_stride == 0) or n == N
        if keep:
            states.append(cur)
        prev = cur
    return states, diagnostics
