"""Monolithic time-discrete system and its backward Euler integration.

Unknown ordering is (u_f, u_p, eta_p, p_f, p_p, lambda).  The operator is
split into the part E multiplying discrete time derivatives (storage, slip
coupling to the structure velocity, interface constraint on the structure)
and the stationary part H; one step solves (E / tau + H) X^{n+1} =
L(t_{n+1}) + E X^n / tau.

Essential conditions are imposed by ``ConstrainedOperator``: it rotates
constrained velocity / displacement node pairs into normal-tangential form
where needed, then eliminates rows and columns with a symmetric right-hand
side correction.  The step matrix is factorized once, after the consistent
initialization's factor is freed, and reused.  A system holds the assembled
blocks, ``E`` and the constrained step operator; ``H`` and ``M = E / tau + H``
are built from the blocks on each read, so a caller binds them once.  The
constraints are built once per system; a sub-problem (the consistent
initialization, the Darcy extension and the inf-sup pairing of ``verify``)
is a slice of a freshly built ``H`` / ``E`` on the dofs of some fields,
``CoupledSystem.dofs``, with the constraints restricted to them,
``Constraints.restrict``, and the full ``H`` is dropped before the slice is
factorized.

``LUSolver`` factorizes the max-norm row/column equilibration of a matrix
after condensing out, cell by cell, the unknowns that couple only within
one cell (MINI bubbles, RT1 interior moments, and the discontinuous pore
pressure when the storage term makes its cell block invertible), so one
triangular solve of the smaller Schur complement per application normally
meets ``REFINE_TOL``; the scaled residual of the full matrix is checked
every time, one refinement pass is made only when it misses, and a solve
that still misses raises ``SingularMatrixError`` instead of returning a
wrong answer.  A Schur complement in which at most a fifth of the
unknowns (the multipliers and the Taylor-Hood pressure) lack a diagonal,
and whose diagonal entries and condensed cell blocks are within a bound of
their scale, as in the Example 1 operators, is factorized in a symmetric
minimum-degree order with diagonal pivots, each unknown without a diagonal
eliminated right after the last of its neighbours with one; any other, such
as example2's, in SuperLU's COLAMD order with partial pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import MultiplierSpace, PhysicalParams
from .config import ConfigError
from .interface import InterfacePairing, segment_quadrature
from .spaces import FESpace, l2_project, nodal_interpolate

FIELDS = ("uf", "up", "eta", "pf", "pp", "lam")
REFINE_TOL = 1e-12                # scaled residual that triggers (and must survive) refinement
INTERIOR_GROWTH_LIMIT = np.finfo(float).eps ** -0.5   # cells condensed only below this growth bound
SYMMETRIC_ORDER_SHARE = 0.2       # largest share of unknowns without a diagonal for the symmetric order
SYMMETRIC_ORDER_COND = 200.0      # largest interior_cond and 1 / diagonal_ratio for it
# the parameters each assembled block is built from; the other blocks depend
# on the meshes alone
BLOCK_PARAMS = {"Af": ("mu",), "Ap": ("mu", "K"), "Ae": ("mu_p", "lam_p"),
                **dict.fromkeys(("Mff", "Mfe", "Mee"), ("mu", "alpha_bjs", "K"))}


class SingularMatrixError(RuntimeError):
    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class LUSolver:
    """Direct solve of an equilibrated matrix with its cell-interior unknowns
    condensed out, refined only when needed.

    ``M`` is held as given when it is a CSR matrix with sorted indices and
    no duplicates (as a canonical CSR copy otherwise).  Rows and columns are
    scaled once by ``1/sqrt`` of their largest magnitudes, giving
    ``A = D_r M D_c`` on the index arrays of ``M``.  ``interior`` lists ``(m, k)``
    arrays of unknowns, one row per cell; the block ``A_II`` of ``A`` on
    them must couple only unknowns of the same row (``ValueError``
    otherwise).  Each ``k x k`` cell block is scaled by its own row and
    column maxima and decomposed (SVD), batched over the cells, and the Schur
    complement ``S = A_CC - A_CI A_II^-1 A_IC`` on the other unknowns is
    factorized by SuperLU.

    ``S`` is taken as quasi-definite when three quantities read from it and
    the cells allow it: at most ``SYMMETRIC_ORDER_SHARE`` of its unknowns
    lack a diagonal (``missing_share``), the smallest present diagonal entry
    over its column's largest magnitude (``diagonal_ratio``, signed, so a
    negative one fails) is at least ``1 / SYMMETRIC_ORDER_COND``, and so is
    ``1 / interior_cond``.  The Example 1 operators, scaled by unit
    coefficients, pass at every measured mesh size: the Taylor-Hood
    pressure and the multipliers, up to 9.8% of ``S``, lack a diagonal,
    ``diagonal_ratio`` is at least 0.014 and ``interior_cond`` at most 4.
    example2's, with coefficients from 1e-10 to 1e7, fail: ``interior_cond``
    is 2.3e4 and 8.9e4 at resolution 0.05, and ``diagonal_ratio`` 1.4e-5
    with nothing condensed.  A quasi-definite ``S`` has its kept unknowns
    put in a symmetric minimum-degree order in which each unknown without a
    diagonal comes right after the last of its neighbours with one
    (``_symmetric_order``): by then their elimination has given it a nonzero
    diagonal.  ``S`` is factorized in that order with diagonal pivots,
    passing over one below 1e-8 of its column (a zero pivot), and the
    residual check below stays the safety net.  Otherwise SuperLU orders
    the columns by COLAMD and pivots by threshold partial pivoting.
    ``ordering`` tells which (``"symmetric"`` or ``"colamd"``), ``fill`` is
    the number of entries of ``L`` and ``U``.

    The cells are eliminated without pivoting across cells, so a cell is
    condensed only if a bound on the entries it adds to ``S`` (its growth,
    in units of ``A``) is below ``INTERIOR_GROWTH_LIMIT``: round-off then
    stays below ``sqrt(eps)``, which one refinement pass repairs.  A singular
    or nearly singular cell block, or a small pivot with large couplings,
    leaves that cell's unknowns in ``S``.  ``interior`` and ``kept`` are the
    condensed and the other unknowns, the latter in the order of ``S``;
    ``interior_cond`` and
    ``interior_growth`` the largest condition number (2-norm, scaled) and
    growth of a condensed block.  Without ``interior`` nothing is condensed
    and ``S = A``; with every unknown condensed nothing is factorized
    (``fill`` is 0) and a solve is the cell solves alone.

    Each ``solve`` makes one triangular solve of ``S``, recovers the interior
    unknowns cell by cell, and checks the scaled residual of the full
    matrix, ``|D_r (b - M x)|_inf``, against ``REFINE_TOL`` times
    ``|D_r b|_inf``, per column; a column above it gets one refinement pass
    (counted in ``refinements``), and one still above it afterwards raises
    ``SingularMatrixError``.  ``max_residual`` is the largest scaled
    residual returned so far.
    """

    dense = False     # read by the benchmark's trace hook (perfbench/spans.py)

    def __init__(self, M, interior=None):
        if not (sp.issparse(M) and M.format == "csr" and M.has_canonical_format):
            M = sp.csr_matrix(M, copy=True)     # not the caller's arrays: sorted in place
            M.sum_duplicates()
        if M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        self.M = M
        self.n = M.shape[0]
        self.refinements = 0
        self.max_residual = 0.0
        rows, size = _row_ids(M), np.abs(M.data)
        self.dr = _inv_sqrt_max(_max_by(rows, size, self.n), "row")
        self.dc = _inv_sqrt_max(_max_by(M.indices, size, self.n), "column")
        del size
        # the equilibrated matrix D_r M D_c, on the index arrays of ``M``
        data = M.data * self.dr[rows]
        del rows
        data *= self.dc[M.indices]
        A = sp.csr_matrix((data, M.indices, M.indptr), shape=M.shape)
        S = self._condense(A, interior or ()).tocsc()
        del A         # not held while factorizing: lowers peak memory
        self._fact = None     # stays None when every unknown is condensed
        if S.shape[0]:
            options = {}
            if self._ordering == "symmetric":
                # a zero pivot gives way to an off-diagonal one (``_symmetric_order``)
                options = dict(permc_spec="NATURAL", diag_pivot_thresh=1e-8,
                               options={"SymmetricMode": True})
            try:
                self._fact = spla.splu(S, **options)
            except RuntimeError as exc:
                raise SingularMatrixError(str(exc)) from exc

    @property
    def ordering(self) -> str:
        """``"symmetric"`` or ``"colamd"``: the column order ``S`` was factorized in."""
        return self._ordering

    @property
    def fill(self) -> int:
        """Nonzeros of the ``L`` and ``U`` factors of ``S`` (builds both)."""
        return 0 if self._fact is None else self._fact.L.nnz + self._fact.U.nnz

    @property
    def missing_share(self) -> float:
        """Share of the unknowns of ``S`` without a diagonal (0 for an empty ``S``)."""
        return self._missing_share

    @property
    def diagonal_ratio(self) -> float:
        """Smallest present diagonal entry of ``S`` (signed) over its column's
        largest magnitude (inf when none is present)."""
        return self._diagonal_ratio

    def _condense(self, A, interior) -> sp.csr_matrix:
        """Factorize the interior cell blocks of the equilibrated CSR ``A``
        and return the Schur complement ``S`` on the kept unknowns, with
        ``kept`` and the couplings ``_A_CI``, ``_A_IC`` in the order ``S``
        is to be factorized in."""
        groups = [b.astype(np.int64) for b in map(np.asarray, interior) if b.size]
        cell = np.full(self.n, -1)     # cell number of each listed unknown
        slot = np.zeros(self.n, dtype=np.int64)   # its place in the cell's block
        first = np.cumsum([0] + [len(b) for b in groups])
        for f, b in zip(first, groups):
            cell[b] = f + np.arange(len(b))[:, None]
            slot[b] = np.arange(b.shape[1])
        listed = np.concatenate([b.ravel() for b in groups] or [[]]).astype(np.int64)
        if np.count_nonzero(cell >= 0) != len(listed):
            raise ValueError("an interior unknown is listed twice")
        # the entries of A in listed rows and columns (A_II), and the largest
        # coupling of each listed unknown to the unlisted ones, by column (u)
        # and by row (v_out), read through masks over A's entries
        rows = _row_ids(A)
        in_r, in_c = cell[rows] >= 0, cell[A.indices] >= 0
        both = in_r & in_c
        r, c, v = rows[both], A.indices[both], A.data[both]
        couple = (cell[r] != cell[c]) & (v != 0)
        if couple.any():
            j = int(np.argmax(couple))
            raise ValueError(f"interior unknowns {r[j]} and {c[j]} of different cells are coupled")
        to_col, to_row = ~in_r & in_c, in_r & ~in_c
        u = _max_by(A.indices[to_col], np.abs(A.data[to_col]), self.n)[listed]
        v_out = _max_by(rows[to_row], np.abs(A.data[to_row]), self.n)[listed]
        del rows, in_r, in_c, both, to_col, to_row
        kept_groups, self.interior_cond, self.interior_growth = [], 0.0, 0.0
        at = np.cumsum([0] + [b.size for b in groups])
        for f, at0, b in zip(first, at, groups):
            m, k = b.shape
            B = np.zeros((m, k, k))
            inside = (cell[r] >= f) & (cell[r] < f + m)
            B[cell[r[inside]] - f, slot[r[inside]], slot[c[inside]]] = v[inside]
            factors = _scaled_svd(B)
            scale_r, scale_c, _, sv, _ = factors
            # as B^-1 = diag(c) Bs^-1 diag(r) and |Bs^-1| <= 1 / sigma_min,
            # eliminating a cell adds at most (u . c)(r . v) / sigma_min to an
            # entry of S
            pos = slice(at0, at0 + m * k)         # the group's place in ``listed``
            with np.errstate(divide="ignore", invalid="ignore"):
                growth = ((u[pos].reshape(m, k) * scale_c).sum(axis=1)
                          * (v_out[pos].reshape(m, k) * scale_r).sum(axis=1) / sv[:, -1])
            ok = growth < INTERIOR_GROWTH_LIMIT
            if ok.any():
                kept_groups.append((b[ok], _CellBlocks(*(a[ok] for a in factors))))
                self.interior_cond = max(self.interior_cond, float((sv[ok, 0] / sv[ok, -1]).max()))
                self.interior_growth = max(self.interior_growth, float(growth[ok].max()))
        I = np.concatenate([b.ravel() for b, _ in kept_groups] or [[]]).astype(np.int64)
        is_interior = np.zeros(self.n, dtype=bool)
        is_interior[I] = True
        self.interior, self.kept = I, np.nonzero(~is_interior)[0]
        rows_I, rows_C = A[I], A[self.kept]
        self._A_IC, self._A_CI = rows_I[:, self.kept], rows_C[:, I]
        self._blocks, W, start = [], [sp.csr_matrix((0, len(self.kept)))], 0
        for b, blocks in kept_groups:
            span = slice(start, start + b.size)
            self._blocks.append((span, blocks))
            W.append(blocks.solve_sparse(self._A_IC[span]))     # rows of A_II^-1 A_IC
            start = span.stop
        S = rows_C[:, self.kept] - self._A_CI @ sp.vstack(W, format="csr")
        del rows_I, rows_C, W     # not held while ordering
        missing, self._missing_share, self._diagonal_ratio = _diagonal(S)
        # quasi-definite and scaled like the unit-coefficient operators: few
        # unknowns lack a diagonal, and no condensed cell block nor present
        # diagonal is more than SYMMETRIC_ORDER_COND from its scale
        symmetric = (S.shape[0] > 0 and self._missing_share <= SYMMETRIC_ORDER_SHARE
                     and self.interior_cond <= SYMMETRIC_ORDER_COND
                     and self._diagonal_ratio * SYMMETRIC_ORDER_COND >= 1)
        self._ordering = "symmetric" if symmetric else "colamd"
        if not symmetric:
            return S
        order = _symmetric_order(S, missing)
        self.kept, self._A_CI, self._A_IC = self.kept[order], self._A_CI[order], self._A_IC[:, order]
        return S[order][:, order]

    def _interior_solve(self, R):
        """``A_II^-1 R`` for (n_I, k) ``R``, cell block by cell block."""
        out = np.empty_like(R)
        for span, blocks in self._blocks:
            out[span] = blocks.solve(R[span])
        return out

    def _solve_scaled(self, R):
        """``X`` with ``M X = R`` for (n, k) ``R``, through the factor of ``S``."""
        Rs = R * self.dr[:, None]
        I, C = self.interior, self.kept
        Z = self._interior_solve(Rs[I])
        Yc = Rs[C] - self._A_CI @ Z
        if self._fact is not None:
            Yc = self._fact.solve(Yc)
        Y = np.empty_like(Rs)
        Y[C] = Yc
        Y[I] = Z - self._interior_solve(self._A_IC @ Yc)
        return Y * self.dc[:, None]

    def _residual(self, B, X):
        """``(R, |D_r R|_inf / |D_r B|_inf)`` with ``R = B - M X``, the ratio per column."""
        R = B - self.M @ X
        rn = np.abs(R * self.dr[:, None]).max(axis=0)
        bn = np.abs(B * self.dr[:, None]).max(axis=0)
        return R, rn / np.where(bn > 0, bn, 1.0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        B = b.reshape(self.n, -1)
        # each column over a power of two near its size: exact in the normal
        # range, and a subnormal right-hand side is solved and checked at unit size
        size = np.ldexp(1.0, np.frexp(np.abs(B).max(axis=0, initial=0.0))[1])
        B = B / size
        X = self._solve_scaled(B)
        R, ratio = self._residual(B, X)
        refine = ratio > REFINE_TOL
        if refine.any():
            self.refinements += 1
            X[:, refine] += self._solve_scaled(R[:, refine])
            _, ratio = self._residual(B, X)
        with np.errstate(over="ignore"):      # reported as non-finite below
            X *= size
        if not np.all(np.isfinite(X)):
            raise SingularMatrixError("solve produced non-finite values")
        worst = float(ratio.max(initial=0.0))
        if worst > REFINE_TOL:
            raise SingularMatrixError(
                f"scaled residual {worst:.2e} above {REFINE_TOL:.0e} after refinement")
        self.max_residual = max(self.max_residual, worst)
        return X.reshape(b.shape)


def _diagonal(S: sp.csr_matrix):
    """``(missing, share, ratio)`` for the equilibrated ``S``: which unknowns
    lack a diagonal, their share of the unknowns, and the smallest ratio of a
    present diagonal entry (signed) to its column's largest magnitude.

    An unknown lacks a diagonal when ``|s_jj| <= eps max_i |s_ij|``: round-off
    left on a multiplier's diagonal must not make it an early pivot."""
    if not S.shape[0]:
        return np.zeros(0, dtype=bool), 0.0, np.inf
    d = S.diagonal()
    colmax = abs(S).max(axis=0).toarray().ravel()
    missing = np.abs(d) <= np.finfo(float).eps * colmax
    share = np.count_nonzero(missing) / len(d)
    return missing, share, float((d[~missing] / colmax[~missing]).min(initial=np.inf))


def _symmetric_order(S: sp.csr_matrix, missing: np.ndarray) -> np.ndarray:
    """A symmetric fill-reducing order of the equilibrated ``S`` (new
    position to old unknown) in which each of the ``missing`` unknowns,
    those without a diagonal, comes after all of its neighbours that have
    one.

    It is SuperLU's multiple minimum degree order of the pattern of
    ``|S| + |S|^T``, read from an incomplete factorization that drops almost
    everything, with each missing unknown moved to right after the last of
    its neighbours with a diagonal (kept where it is if it already comes
    later, and put last if it has none).  Eliminating those neighbours first
    gives it a nonzero diagonal before it is pivoted on, and no dense
    trailing block of all the missing unknowns (the Taylor-Hood pressure
    and the multipliers: 1,153 of them in the high-order h = 1/32 step
    operator) is formed, which about halves the fill there.  Diagonal
    pivots are then safe, except a zero one: MINI's bubble term vanishes on
    constant pressures, so an order that eliminates every pressure before
    the interface velocities meets the constant-pressure mode as a zero
    pivot, which the factorization passes over for an off-diagonal one; the
    residual check of ``LUSolver.solve`` catches what a pivot order cannot.
    """
    n = S.shape[0]
    P = sp.csr_matrix((np.ones(S.nnz), S.indices, S.indptr), shape=S.shape)
    P = (P + P.T + n * sp.identity(n)).tocsc()
    perm_c = spla.spilu(P, permc_spec="MMD_AT_PLUS_A", drop_tol=0.99, fill_factor=1,
                        diag_pivot_thresh=0.0, options={"SymmetricMode": True}).perm_c
    # P is symmetric: the rows of its columns at the missing unknowns are their neighbours
    miss = np.nonzero(missing)[0]
    cols = P[:, miss]
    del P
    has = ~missing[cols.indices]
    which = np.repeat(np.arange(len(miss)), np.diff(cols.indptr))[has]
    # perm_c[j] is the new position of unknown j; ``after`` is one past the
    # last position of a neighbour with a diagonal, 0 for none
    after = _max_by(which, perm_c[cols.indices[has]] + 1.0, len(miss)).astype(np.int64)
    place = perm_c.astype(np.int64)
    place[miss] = np.where(after > 0, np.maximum(after - 1, place[miss]), n)
    # a missing unknown comes after the unknown whose place it shares; ties by unknown number
    return np.argsort(2 * place + missing, kind="stable")


def _scaled_svd(B: np.ndarray):
    """Scale (m, k, k) blocks by their row and then their column maxima and
    decompose them: the row and column scales ``r``, ``c`` (m, k), and
    ``U^T``, the singular values (m, k), largest first, and ``V`` of
    ``diag(r) B diag(c)``."""
    r = 1.0 / _nonzero(np.abs(B).max(axis=2))
    B = B * r[:, :, None]
    c = 1.0 / _nonzero(np.abs(B).max(axis=1))
    B *= c[:, None, :]
    U, s, Vt = np.linalg.svd(B)
    return r, c, np.swapaxes(U, 1, 2), s, np.swapaxes(Vt, 1, 2)


def _nonzero(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 1.0)


class _CellBlocks:
    """m cell blocks ``B`` of size k x k, held as the singular value
    decompositions of their scaled forms (see ``_scaled_svd``).

    A solve scales by ``r``, applies ``U^T``, divides by ``s``, applies ``V``
    and scales by ``c``, in that order; unlike a product with an explicit
    inverse this is backward stable however ill-conditioned a block is.
    ``solve`` applies ``U^T`` and ``V`` as block-diagonal CSR matrices on
    the same memory, built here, and the scales as vectors.
    ``solve_sparse``, which forms the Schur complement, applies them as
    batched matmuls: with CSR products there, the round-off in ``S`` left an
    example2 step at a scaled residual of 1.6e-12 after refinement, above
    ``REFINE_TOL``.
    """

    def __init__(self, r, c, Ut, s, V):
        Ut, V = np.ascontiguousarray(Ut), np.ascontiguousarray(V)
        self.r, self.c, self.Ut, self.s, self.V = r, c, Ut, s, V
        m, k = s.shape
        # row (cell, a) holds columns (cell, 0 .. k-1): entry [cell, a, b] of Ut or V
        cols = (k * np.arange(m, dtype=np.int32)[:, None, None]
                + np.arange(k, dtype=np.int32)).repeat(k, axis=1).ravel()
        rows = np.arange(0, m * k * k + 1, k, dtype=np.int32)
        self._Ut, self._V = (sp.csr_matrix((F.ravel(), cols, rows), shape=(m * k, m * k))
                             for F in (Ut, V))
        self._r, self._c, self._s = (x.reshape(-1, 1) for x in (r, c, s))

    def solve(self, R: np.ndarray) -> np.ndarray:
        """``B^-1 R`` for (m k, n) ``R``."""
        return self._V @ ((self._Ut @ (R * self._r)) / self._s) * self._c

    def solve_sparse(self, Q: sp.csr_matrix) -> sp.csr_matrix:
        """``B^-1 Q`` for the sparse (m k, n) ``Q``.

        The columns a cell's rows of ``Q`` touch are gathered into a dense
        (m, k, p) array, so each block is solved once for all of them.
        """
        m, k = self.s.shape
        Q = Q.tocoo()
        key = (Q.row // k) * Q.shape[1] + Q.col            # (cell, column)
        keys, slot_of = np.unique(key, return_inverse=True)
        cell, col = keys // Q.shape[1], keys % Q.shape[1]
        slot = np.arange(len(keys)) - np.searchsorted(cell, cell)
        D = np.zeros((m, k, slot.max(initial=-1) + 1))
        D[Q.row // k, Q.row % k, slot[slot_of]] = Q.data
        Y = np.matmul(self.Ut, D * self.r[:, :, None]) / self.s[:, :, None]
        X = (np.matmul(self.V, Y) * self.c[:, :, None])[cell, :, slot]     # (keys, k)
        rows = cell[:, None] * k + np.arange(k)
        return sp.csr_matrix((X.ravel(), (rows.ravel(), np.repeat(col, k))), shape=Q.shape)


def _row_ids(A: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of the CSR ``A``."""
    return np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype), np.diff(A.indptr))


def _max_by(ids: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The largest of ``values`` at each of the ids ``0 .. n-1``; 0 where none."""
    out = np.zeros(n)
    np.maximum.at(out, ids, values)
    return out


def _inv_sqrt_max(m: np.ndarray, kind: str) -> np.ndarray:
    """``1/sqrt`` of the largest magnitudes ``m``; a zero row or column is singular."""
    if not np.all(np.isfinite(m)):
        bad = int(np.argmin(np.isfinite(m)))
        raise SingularMatrixError(f"non-finite entry in {kind} {bad}", pivot=bad)
    if np.any(m == 0.0):
        bad = int(np.argmin(m))
        raise SingularMatrixError(f"singular matrix, zero {kind} {bad}", pivot=bad)
    return 1.0 / np.sqrt(m)


# ---------------------------------------------------------------------------
# essential boundary conditions


@dataclass
class DirichletBC:
    """Prescribe a vector Lagrangian field on tagged boundary edges.

    ``value(points, t) -> (k, 2)``; with ``normal_only``, and no ``value``, the
    normal component alone is constrained to zero and the tangential part is free.
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
    pairs: np.ndarray        # (r, 2) rotated (dof_x, dof_y) node pairs, global numbering
    normals: np.ndarray      # (r, 2) unit normal of each pair; slot dof_x holds v . n
    fixed: np.ndarray        # constrained dof ids, rotated frame, sorted
    _value_parts: list       # (ids (k, 2) into fixed, -1 where dropped, fn, points (k, 2))

    def rotation(self, n: int):
        if not len(self.pairs):
            return None
        (dx, dy), (nx, ny) = self.pairs.T, self.normals.T
        rest = np.setdiff1d(np.arange(n), self.pairs)
        rows = np.concatenate([rest, dx, dx, dy, dy])
        cols = np.concatenate([rest, dx, dy, dx, dy])
        R = sp.csr_matrix((np.concatenate([np.ones(len(rest)), nx, ny, -ny, nx]), (rows, cols)), shape=(n, n))
        R.eliminate_zeros()     # a zero normal component is no entry
        return R

    def free(self, n: int) -> np.ndarray:
        """Sorted ids of the unconstrained dofs among ``n``."""
        mask = np.ones(n, dtype=bool)
        mask[self.fixed] = False
        return np.nonzero(mask)[0]

    def values(self, t: float) -> np.ndarray:
        g = np.zeros(len(self.fixed))
        for ids, fn, points in self._value_parts:
            g[ids[ids >= 0]] = np.asarray(fn(points, t))[ids >= 0]
        return g

    def restrict(self, dofs: np.ndarray) -> Constraints:
        """The constraints on the sorted ``dofs``, renumbered to positions in it.

        A rotated pair must lie wholly inside or wholly outside ``dofs``.
        """
        at = _positions(dofs, self.fixed)
        renumber = np.append(np.where(at >= 0, np.cumsum(at >= 0) - 1, -1), -1)   # dropped: -1, also at [-1]
        pairs = _positions(dofs, self.pairs)
        split = (pairs[:, 0] < 0) != (pairs[:, 1] < 0)
        if split.any():
            raise ValueError(f"rotated pair {self.pairs[np.argmax(split)].tolist()} is split")
        parts = [(r, fn, points) for ids, fn, points in self._value_parts if ((r := renumber[ids]) >= 0).any()]
        return Constraints(pairs[pairs[:, 0] >= 0], self.normals[pairs[:, 0] >= 0], at[at >= 0], parts)


def _positions(dofs: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions of ``ids`` in the sorted ``dofs``, -1 where absent."""
    pos = np.searchsorted(dofs, ids)
    hit = pos < len(dofs)
    hit[hit] = dofs[pos[hit]] == ids[hit]
    return np.where(hit, pos, -1)


def _boundary_nodes(space: FESpace, tags):
    """One row per (node, tagged edge): the node's dof pair, its point and the
    edge's outward normal, for both ends of each edge, then each P2 midpoint."""
    mesh = space.mesh
    ids = mesh.boundary_edge_ids(tags)
    ends, normals = mesh.bedges[ids].ravel(), mesh.bedge_normals()[ids]
    dofs, points, edge_normals = [space.vertex_dofs(ends)], [mesh.nodes[ends]], [np.repeat(normals, 2, axis=0)]
    if space.scalar_name == "P2":
        dofs.append(space.edge_dofs(mesh.bedge_edge_ids()[ids]))
        points.append(0.5 * (points[0][0::2] + points[0][1::2]))
        edge_normals.append(normals)
    return np.concatenate(dofs), np.concatenate(points), np.concatenate(edge_normals)


def build_constraints(spaces: dict, offsets: dict, bcs: list) -> Constraints:
    """The essential conditions ``bcs`` on the fields at ``offsets``.

    ``ValueError`` for a condition that cannot take effect: one on a field
    without a space at an offset, a ``FluxBC`` on a field that is not
    Raviart-Thomas, a ``DirichletBC`` on one that is not vector Lagrange, a
    tag that matches no boundary edge, or a full ``DirichletBC`` without a
    value or a normal-only one with one.  Where conditions share a node, a
    full one wins over normal-only ones and the last full one gives the
    value; normal-only ones alone pin both components where the edge normals
    differ by more than 1e-8 (a corner), else rotate the pair to their mean.
    """
    fixed = []
    rows = [(np.empty((0, 2), dtype=np.int64), np.empty((0, 2)), np.empty((0, 2)),
             np.empty(0, dtype=np.int64))]      # (dof pairs, points, normals, condition)
    for k, bc in enumerate(bcs):
        name = f"{type(bc).__name__} on field {bc.field!r}"
        if bc.field not in offsets or bc.field not in spaces:
            raise ValueError(f"{name}, which has no space in the layout")
        off, space, flux = offsets[bc.field], spaces[bc.field], isinstance(bc, FluxBC)
        if (space.rt_order is not None) != flux or not space.vector:
            needs = "Raviart-Thomas" if flux else "vector Lagrange"
            raise ValueError(f"{name} of family {space.family}: needs a {needs} field")
        unmatched = np.setdiff1d(bc.tags, space.mesh.bedge_tags)
        if len(unmatched):
            raise ValueError(f"{name}: tag {str(unmatched[0])!r} matches no boundary edge of its mesh")
        if flux:
            eids = space.mesh.bedge_edge_ids()[space.mesh.boundary_edge_ids(bc.tags)]
            fixed.append(off + space.edge_dofs(eids).ravel())
        elif bc.normal_only == (bc.value is not None):
            raise ValueError(f"{name}: " + ("a normal-only condition takes no value" if bc.normal_only
                                            else "a full condition needs a value"))
        else:
            dofs, points, normals = _boundary_nodes(space, bc.tags)
            rows.append((off + dofs, points, normals, np.full(len(dofs), k)))

    # group the rows by node (x dof), each node's rows in the order of the conditions
    cols = [np.concatenate(a) for a in zip(*rows)]
    order = np.argsort(cols[0][:, 0], kind="stable")
    dofs, points, normals, which = (c[order] for c in cols)
    start = np.diff(dofs[:, 0], prepend=-1) != 0
    first, group, node = np.flatnonzero(start), np.cumsum(start) - 1, dofs[start]
    full_bc = np.array([isinstance(bc, DirichletBC) and not bc.normal_only for bc in bcs], dtype=bool)
    last_full = np.maximum.reduceat(np.where(full_bc[which], np.arange(len(dofs)), -1), first)
    full = last_full >= 0
    base = normals[first] / np.linalg.norm(normals[first], axis=1)[:, None]
    cross = base[group, 0] * normals[:, 1] - base[group, 1] * normals[:, 0]
    corner = ~full & np.logical_or.reduceat(np.abs(cross) > 1e-8 * np.linalg.norm(normals, axis=1), first)
    rotated = ~full & ~corner
    mean = np.zeros((len(first), 2))
    np.add.at(mean, group, normals)          # row by row from zero, as np.mean sums one node's normals
    mean = mean[rotated] / np.bincount(group)[rotated, None]
    mean /= np.sqrt(mean[:, None, :] @ mean[:, :, None])[:, 0]   # as np.linalg.norm of one vector: a dot
    fixed = np.unique(np.concatenate(fixed + [node[full | corner].ravel(), node[rotated, 0]]))
    src = last_full[full]            # the row that gives each full node its value
    ids, src_bc = np.searchsorted(fixed, node[full]), which[src]
    parts = [(ids[src_bc == k], bcs[k].value, points[src[src_bc == k]]) for k in np.unique(src_bc)]
    return Constraints(node[rotated], mean, fixed, parts)


class ConstrainedOperator:
    """A square operator with its essential conditions eliminated.

    The constrained node pairs are rotated once and the dofs split into free
    and fixed.  The free block ``A_ff`` is factorized on the first use of
    ``lu``, so an operator can be built before another one's factor is freed.
    ``interior`` lists ``(m, k)`` arrays of cell-interior dofs in the
    numbering of ``A``, one row per cell; they must all be free, and ``LUSolver``
    condenses them out cell by cell.  A cell's set must have an invertible
    diagonal block to be condensed: the RT1 interior moments with the P1dc
    pore pressure do when the storage term ``s0 > 0`` fills the pressure
    block, and are singular (3 pressure rows against 2 moments) when
    ``s0 = 0``, so ``CoupledSystem`` adds the pore pressure only for
    ``s0 > 0``.  Vectors passed in and returned are in the unrotated frame.

    ``R_c`` holds the rows of the rotation on the fixed dofs (of the
    identity without one) and ``A_c = R_c A`` the rotated rows of ``A``
    there, so ``CoupledSystem.reaction`` needs no product with all of ``A``.
    """

    def __init__(self, A, constraints: Constraints, interior=None):
        self.n = A.shape[0]
        self.R = constraints.rotation(self.n)
        At = A if self.R is None else (self.R @ A @ self.R.T).tocsr()
        self.fixed = constraints.fixed
        self.free = constraints.free(self.n)
        nf = len(self.fixed)
        self.R_c = (sp.csr_matrix((np.ones(nf), self.fixed, np.arange(nf + 1)), shape=(nf, self.n))
                    if self.R is None else self.R[self.fixed])
        self.A_c = (self.R_c @ A).tocsr()
        rows = At[self.free]
        self.A_ff, self.A_fc = rows[:, self.free], rows[:, self.fixed]
        del At, rows      # not held while factorizing: lowers peak memory
        number = np.full(self.n, -1, dtype=np.int64)    # free numbering, -1 if fixed
        number[self.free] = np.arange(len(self.free))
        interior = [np.asarray(b) for b in interior or ()]
        for b in interior:
            if np.any(number[b] < 0):
                raise ValueError(f"interior dof {int(b[number[b] < 0][0])} is constrained")
        self.interior = [number[b] for b in interior]      # in the free numbering
        self._lu = None

    @property
    def lu(self) -> LUSolver:
        """The factor of ``A_ff``, made on first access."""
        if self._lu is None:
            self._lu = LUSolver(self.A_ff, interior=self.interior)
        return self._lu

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
    """Assembled blocks, BC handling, and the factorized step operator.

    A system holds each operator once: the assembled ``blocks``, ``E`` and
    the constrained step operator ``op`` (whose free block is ``M_ff``).
    ``H`` and ``M`` are built from them on each read, so a caller that
    needs one more than once binds it to a name.  ``M`` is built once on
    construction, constrained and dropped; an ``E / tau`` with a non-finite
    entry raises ``ConfigError`` naming ``tau`` and ``s0`` before that.

    The step operator is factorized on the first access to ``lu``: by
    ``initial_state`` once the consistent initialization's factor is freed,
    so the two are never held together, or else by the first ``step``.
    """

    def __init__(self, spaces: dict, L: MultiplierSpace, pairing: InterfacePairing,
                 params: PhysicalParams, tau: float, bcs: list, data: dict | None = None):
        if tau <= 0:
            raise ValueError("time step must be positive")
        self.spaces = spaces
        self.L = L
        self.pairing = pairing
        self.params = params
        self.tau = tau
        self.bcs = bcs
        self.data = dict(data or {})
        assembly.check_load_data(self.data)

        self.sizes = {name: (L if name == "lam" else spaces[name]).n_dofs for name in FIELDS}
        self.offsets = dict(zip(FIELDS, accumulate(self.sizes.values(), initial=0)))
        self.n_dofs = sum(self.sizes.values())

        squad = segment_quadrature(pairing, assembly.INTERFACE_QUAD_DEGREE)
        b = {}
        with np.errstate(over="ignore", invalid="ignore"):      # checked below
            b["Af"] = assembly.assemble_stokes_viscous(spaces["uf"], params)
            b["Ap"] = assembly.assemble_darcy_mass(spaces["up"], params)
            b["Ae"] = assembly.assemble_elasticity(spaces["eta"], params)
            b["Mp"] = assembly.pressure_mass(spaces["pp"])
            b["Df"] = assembly.assemble_divergence(spaces["uf"], spaces["pf"])
            b["Dp"] = assembly.assemble_divergence(spaces["up"], spaces["pp"])
            b["Dep"] = assembly.assemble_divergence(spaces["eta"], spaces["pp"])
            b["Mff"], b["Mfe"], b["Mee"] = assembly.assemble_bjs(
                pairing, spaces["uf"], spaces["eta"], params, squad)
            b["Bf"], b["Bp"], b["Be"] = assembly.assemble_bgamma(
                pairing, spaces["uf"], spaces["up"], spaces["eta"], L, squad)
        for name, block in b.items():
            if not np.all(np.isfinite(block.data)):
                raise ConfigError(f"non-finite entry in block {name}, built from "
                                  + ", ".join(BLOCK_PARAMS.get(name, ("the mesh",))))
        self.blocks = b

        self.E = _bmat_fields([
            [None, None, -b["Mfe"], None, None, None],
            [None, None, None, None, None, None],
            [None, None, b["Mee"], None, None, None],
            [None, None, None, None, None, None],
            [None, None, params.alpha * b["Dep"], None, params.s0 * b["Mp"], None],
            [None, None, -b["Be"], None, None, None],
        ], self.sizes)
        with np.errstate(over="ignore", invalid="ignore"):     # checked here, before M is built
            finite = np.all(np.isfinite((self.E / tau).data))
        if not finite:
            raise ConfigError("non-finite entry in E / tau, built from tau and s0")

        self.constraints = build_constraints(spaces, self.offsets, bcs)
        # one block per cell: the fluid bubbles; the RT1 moments with the
        # pore pressure, whose cell block is singular without storage
        poro = ("up", "pp") if params.s0 > 0 else ("up",)
        interior = [self.interior_dofs(("uf",)), self.interior_dofs(poro)]
        self.op = ConstrainedOperator(self.M, self.constraints, interior)
        self.M_ff = self.op.A_ff
        self._E_c = self.op.R_c @ self.E     # E on the constrained rows, for ``reaction``
        self._loads = None
        self._load_at = (None, None)         # (t, load) of the last ``load`` call

    @property
    def H(self) -> sp.csr_matrix:
        """The stationary operator, built from ``blocks`` on each read."""
        b, alpha = self.blocks, self.params.alpha
        return _bmat_fields([
            [b["Af"] + b["Mff"], None, None, -b["Df"].T, None, b["Bf"].T],
            [None, b["Ap"], None, None, -b["Dp"].T, b["Bp"].T],
            [-b["Mfe"].T, None, b["Ae"], None, -alpha * b["Dep"].T, b["Be"].T],
            [b["Df"], None, None, None, None, None],
            [None, b["Dp"], None, None, None, None],
            [-b["Bf"], -b["Bp"], None, None, None, None],
        ], self.sizes)

    @property
    def M(self) -> sp.csr_matrix:
        """The step operator ``E / tau + H``, built on each read."""
        return (self.E / self.tau + self.H).tocsr()

    @property
    def lu(self) -> LUSolver:
        """The factor of the step operator, made on first access."""
        return self.op.lu

    def interior_dofs(self, names) -> np.ndarray:
        """(m, k) cell-interior dofs of the fields ``names``, global numbering."""
        return np.hstack([self.offsets[n] + self.spaces[n].interior_dofs() for n in names])

    def dofs(self, names) -> np.ndarray:
        """Global ids of the dofs of the fields ``names``, in ``FIELDS`` order."""
        return np.concatenate([self.offsets[n] + np.arange(self.sizes[n])
                               for n in sorted(names, key=FIELDS.index)])

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
        """The load vector ``sum g(t) L_g`` of the time-separable ``data``.

        The vectors ``L_g``, one per distinct time function, are assembled
        on the first call, after the factorizations, and combined once per
        time level: a call for the same ``t`` as the one before returns the
        same read-only vector.  Constant data (``g = 1``) gives equal vectors
        at every t.  ``data`` itself is checked on construction, before any
        assembly.
        """
        if self._load_at[0] == t:
            return self._load_at[1]
        if self._loads is None:
            spaces = {n: self.spaces[n] for n in FIELDS[:-1]}
            self._loads = assembly.assemble_loads({**spaces, "lam": self.L}, self.data)
        L = np.zeros(self.n_dofs)
        for g, vec in self._loads.items():
            L += g(t) * vec
        L.flags.writeable = False
        self._load_at = (t, L)
        return L

    # -- initial data ----------------------------------------------------------

    def initial_state(self, pp0=None, eta0=None, eta_dot0=None) -> TransientState:
        """Project initial pressure / displacement and fill the algebraic
        variables (u_f, u_p, p_f, lambda) by a Stokes-Darcy solve.  Then
        factorize the step operator, once that solve's factor is freed."""
        X = np.zeros(self.n_dofs)
        if pp0 is not None:
            self.view(X, "pp")[:] = l2_project(self.spaces["pp"], pp0)
        if eta0 is not None:
            self.view(X, "eta")[:] = nodal_interpolate(self.spaces["eta"], eta0)
        state = TransientState(X=X, n=0, tau=self.tau)
        self._consistent_initialize(state, eta_dot0)
        self.lu       # the step factor, made only now
        return state

    def _consistent_initialize(self, state: TransientState, eta_dot0) -> None:
        """Solve the rows of the algebraic fields (u_f, u_p, p_f, lambda) of
        H X + E X' = L(0) for them, given p_p, eta and eta' = ``eta_dot0``."""
        if eta_dot0 is None:
            etad = np.zeros(self.sizes["eta"])
        else:
            etad = nodal_interpolate(self.spaces["eta"], eta_dot0)
        S = self.dofs(("uf", "up", "pf", "lam"))
        cons = self.constraints.restrict(S)
        interior = [np.searchsorted(S, self.interior_dofs((n,))) for n in ("uf", "up")]
        H = self.H
        op = ConstrainedOperator(H[S][:, S], cons, interior=interior)
        rhs = self.load(0.0) - H @ state.X - self.E @ self.pack(eta=etad)
        del H             # not held while the slice is factorized
        state.X[S] = op.solve(rhs[S], cons.values(0.0))

    # -- stepping ---------------------------------------------------------------

    def step(self, state: TransientState) -> TransientState:
        """The next state; its ``X`` is read-only."""
        t1 = (state.n + 1) * self.tau
        rhs = self.load(t1) + (self.E @ state.X) / self.tau
        try:
            X = self.op.solve(rhs, self.constraints.values(t1))
        except SingularMatrixError:
            if np.all(np.isfinite(rhs)):
                raise
            raise ConfigError(f"non-finite right-hand side L + E X / tau of step {state.n + 1}, "
                              "built from tau, s0 and the previous state") from None
        X.flags.writeable = False
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

        Returned in the unrotated frame and zero on free dofs: the
        constrained rows of ``M X - L(t) - E X_prev / tau``, formed from the
        rows of ``M`` and ``E`` there alone.
        """
        op = self.op
        r_c = op.A_c @ state.X - op.R_c @ self.load(state.t) - (self._E_c @ prev.X) / self.tau
        return op.R_c.T @ r_c


def _bmat_fields(rows, sizes: dict) -> sp.csr_matrix:
    """The block matrix of ``rows``, one row and column of blocks per field
    in ``FIELDS`` order, of the ``sizes``; ``ValueError`` for a block whose
    shape does not match its two fields."""
    fixed_rows = []
    for row_name, row in zip(FIELDS, rows):
        fixed = []
        for col_name, blk in zip(FIELDS, row):
            want = (sizes[row_name], sizes[col_name])
            if blk is None and row_name == col_name:
                # keep the diagonal structurally present so bmat infers sizes
                blk = sp.csr_matrix(want)
            elif blk is not None and blk.shape != want:
                raise ValueError(f"block ({row_name}, {col_name}) has shape {blk.shape}, expected {want}")
            fixed.append(blk)
        fixed_rows.append(fixed)
    return sp.bmat(fixed_rows, format="csr")


def step_count(T: float, tau: float) -> int:
    """Number of steps of ``tau`` that reach ``T``; ``ValueError`` unless whole."""
    N = int(round(T / tau))
    if abs(N * tau - T) > 1e-12 * max(1.0, abs(T)):
        raise ValueError(f"final time {T} is not an integer number of steps of {tau}")
    return N


def run_transient(system: CoupledSystem, T: float, state0: TransientState,
                  output_stride: int = 0, collect_diagnostics: bool = False):
    """March to time T; returns (states, diagnostics).

    ``output_stride`` 0 keeps the initial and final states only; stride k
    keeps every k-th step.  Diagnostics are per-step dicts with the interface
    constraint residual and the discrete energy identity residual.
    """
    from .verify import energy_identity_residual

    N = step_count(T, system.tau)
    states = [state0]
    diagnostics = []
    prev = state0
    for n in range(1, N + 1):
        cur = system.step(prev)
        if collect_diagnostics:
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
