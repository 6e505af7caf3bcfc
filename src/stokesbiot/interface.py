"""Pairing of the two interface traces and their common refinement.

A trace is the set of boundary edges of one mesh tagged ``interface``, held
as arrays with one row per edge: boundary-edge ids, owner cells, end points
and their arclength parameters.  The poro-side trace is the master geometry:
its edges are chained by mesh node ids into one open polyline from its
lexicographically smallest end, whose vertices are the mesh nodes and whose
cumulative lengths parameterize the trace.  ``project_to_polyline`` maps the
fluid trace's end points onto it, and the merged breakpoints define segments
on which cross-mesh products are integrated exactly.  Each segment knows its
owning edge (hence cell) on both sides together with unit normals, the
tangent and the tangential permeability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Mesh2D
from .quadrature import edge_rule

MERGE_TOL = 1e-12          # times interface length, breakpoint dedup
PROJECTION_TOL = 1e-8      # times interface length, trace mismatch guard


class GeometryMismatchError(ValueError):
    pass


@dataclass
class Trace:
    """Interface edges of one mesh, one row per edge."""

    bedges: np.ndarray         # (k,) index into mesh.bedges
    cells: np.ndarray          # (k,) owner cell
    a: np.ndarray              # (k, 2) first endpoint in the edge's own orientation
    b: np.ndarray              # (k, 2)
    s: np.ndarray | None = None  # (k, 2) arclength of a and b on the master polyline


@dataclass
class InterfacePairing:
    mesh_f: Mesh2D
    mesh_p: Mesh2D
    fluid: Trace
    poro: Trace
    # per segment
    seg_fluid: np.ndarray      # index into the fluid trace
    seg_poro: np.ndarray       # index into the poro trace
    seg_t_f: np.ndarray        # (n, 2) sub-interval in the fluid edge's [0,1]
    seg_t_p: np.ndarray        # (n, 2) sub-interval in the poro edge's [0,1]
    seg_length: np.ndarray
    seg_n_f: np.ndarray        # (n, 2)
    seg_n_p: np.ndarray
    seg_tau: np.ndarray        # fluid-side unit tangent

    @property
    def n_segments(self) -> int:
        return len(self.seg_length)

    @property
    def length(self) -> float:
        return float(self.seg_length.sum())


def _collect_trace(mesh: Mesh2D) -> Trace:
    ids = mesh.boundary_edge_ids("interface")
    if len(ids) == 0:
        raise GeometryMismatchError("mesh has no edges tagged 'interface'")
    owner, _ = mesh.bedge_owner()
    return Trace(bedges=ids, cells=owner[ids],
                 a=mesh.nodes[mesh.bedges[ids, 0]], b=mesh.nodes[mesh.bedges[ids, 1]])


def _chain(mesh: Mesh2D, trace: Trace):
    """Vertices of the trace as one open polyline, their arclengths, and the
    arclengths (k, 2) of each edge's end points.

    Boundary edges keep their owner cell on the left, so each edge's head
    node is the tail node of the next one: the edges are chained by node
    ids.  The polyline starts at the lexicographically smallest end.  A
    branched, closed or split trace raises ``GeometryMismatchError``.
    """
    ends = mesh.bedges[trace.bedges]
    tail, head = ends[:, 0], ends[:, 1]
    k = len(tail)
    if len(np.unique(tail)) < k or len(np.unique(head)) < k:
        raise GeometryMismatchError("interface trace branches at a node")
    start = np.flatnonzero(~np.isin(tail, head))
    if len(start) != 1:
        raise GeometryMismatchError("interface trace is not a single open chain")
    succ = np.full(mesh.n_nodes, -1)
    succ[tail] = np.arange(k)
    order = [int(start[0])]
    while succ[head[order[-1]]] >= 0:
        order.append(int(succ[head[order[-1]]]))
    if len(order) != k:
        raise GeometryMismatchError("interface trace edges do not form one chain")
    ids = np.append(tail[order], head[order[-1]])
    if tuple(mesh.nodes[ids[-1]]) < tuple(mesh.nodes[ids[0]]):
        ids = ids[::-1]
    poly = mesh.nodes[ids]
    arc = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(poly, axis=0), axis=1))])
    position = np.empty(mesh.n_nodes, dtype=np.int64)
    position[ids] = np.arange(k + 1)
    return poly, arc, arc[position[ends]]


def project_to_polyline(points: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Nearest point of the segments (a[i], b[i]) to each of ``points`` (n, 2).

    Returns ``(segment, t, distance)``: the index of the nearest segment (the
    first one on a tie), the parameter in [0, 1] of the nearest point on it
    and the distance to it.
    """
    points = np.asarray(points, dtype=float)
    segment = np.zeros(len(points), dtype=np.int64)
    t = np.zeros(len(points))
    distance = np.full(len(points), np.inf)
    d = b - a
    L2 = np.einsum("ed,ed->e", d, d)
    for i in range(len(a)):
        ti = np.clip((points - a[i]) @ d[i] / L2[i], 0.0, 1.0)
        di = np.linalg.norm(points - (a[i] + ti[:, None] * d[i]), axis=1)
        closer = di < distance
        segment[closer], t[closer], distance[closer] = i, ti[closer], di[closer]
    return segment, t, distance


def _owners(trace: Trace, smid: np.ndarray, tol: float) -> np.ndarray:
    """Index of the trace edge whose parameter interval covers each of ``smid``."""
    lo, hi = trace.s.min(axis=1), trace.s.max(axis=1)
    order = np.argsort(lo, kind="stable")
    j = order[np.maximum(np.searchsorted(lo[order] - tol, smid, side="right") - 1, 0)]
    bad = np.flatnonzero((smid < lo[j] - tol) | (smid > hi[j] + tol))
    if len(bad):
        raise GeometryMismatchError(f"no edge covers interface parameter {smid[bad[0]]}")
    return j


def common_refinement(mesh_f: Mesh2D, mesh_p: Mesh2D) -> InterfacePairing:
    """Overlay the two 1D interface partitions into integration segments."""
    fluid = _collect_trace(mesh_f)
    poro = _collect_trace(mesh_p)

    poly, arc, poro.s = _chain(mesh_p, poro)
    total = arc[-1]

    ends = np.stack([fluid.a, fluid.b], axis=1).reshape(-1, 2)
    seg, t, dist = project_to_polyline(ends, poly[:-1], poly[1:])
    bad = np.flatnonzero(dist > PROJECTION_TOL * total)
    if len(bad):
        p, d = ends[bad[0]], dist[bad[0]]
        raise GeometryMismatchError(
            f"interface traces mismatch: point {p} is {d:.3e} from the master polyline")
    fluid.s = (arc[seg] + t * (arc[seg + 1] - arc[seg])).reshape(-1, 2)

    breaks = np.sort(np.concatenate([[0.0, total], poro.s.ravel(), fluid.s.ravel()]))
    breaks = breaks[np.concatenate([[True], np.diff(breaks) > MERGE_TOL * total])]
    bounds = np.column_stack([breaks[:-1], breaks[1:]])
    smid = 0.5 * (bounds[:, 0] + bounds[:, 1])
    seg_fluid = _owners(fluid, smid, MERGE_TOL * total)
    seg_poro = _owners(poro, smid, MERGE_TOL * total)

    def local(trace, j):
        s0 = trace.s[j, :1]
        return (bounds - s0) / (trace.s[j, 1:] - s0)

    seg_t_f, seg_t_p = local(fluid, seg_fluid), local(poro, seg_poro)
    pa = poro.a[seg_poro]
    ends = pa[:, None, :] + seg_t_p[:, :, None] * (poro.b[seg_poro] - pa)[:, None, :]
    seg_n_f = mesh_f.bedge_normals()[fluid.bedges[seg_fluid]]

    pairing = InterfacePairing(
        mesh_f=mesh_f, mesh_p=mesh_p, fluid=fluid, poro=poro,
        seg_fluid=seg_fluid, seg_poro=seg_poro, seg_t_f=seg_t_f, seg_t_p=seg_t_p,
        seg_length=np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1),
        seg_n_f=seg_n_f, seg_n_p=mesh_p.bedge_normals()[poro.bedges[seg_poro]],
        seg_tau=np.column_stack([-seg_n_f[:, 1], seg_n_f[:, 0]]))
    _validate_pairing(pairing, total)
    return pairing


def _validate_pairing(pairing: InterfacePairing, total: float) -> None:
    if abs(pairing.seg_length.sum() - total) > 1e-10 * total:
        raise GeometryMismatchError("segment lengths do not tile the interface")
    dots = np.einsum("kd,kd->k", pairing.seg_n_f, pairing.seg_n_p)
    if np.any(dots > -1.0 + 1e-8):
        worst = float(dots.max())
        raise GeometryMismatchError(f"opposite normals violated, max n_f.n_p = {worst}")


@dataclass
class SegmentQuadrature:
    """Per-segment quadrature points on both sides, with their cells."""

    points_f: np.ndarray     # (n_seg, q, 2) physical points on the fluid edge
    points_p: np.ndarray     # (n_seg, q, 2) physical points on the poro edge
    weights: np.ndarray      # (n_seg, q) arclength weights
    t_edge_p: np.ndarray     # (n_seg, q) parameter on the poro edge (multiplier coord)
    cells_f: np.ndarray
    cells_p: np.ndarray


def segment_quadrature(pairing: InterfacePairing, degree: int) -> SegmentQuadrature:
    rule = edge_rule(degree)

    def on_edges(trace, j, t):
        """Owner-edge parameters (n, q) and physical points (n, q, 2) of the rule."""
        tq = t[:, :1] + rule.points[None, :] * (t[:, 1:] - t[:, :1])
        a = trace.a[j]
        return tq, a[:, None, :] + tq[:, :, None] * (trace.b[j] - a)[:, None, :]

    _, xf = on_edges(pairing.fluid, pairing.seg_fluid, pairing.seg_t_f)
    t_edge_p, xp = on_edges(pairing.poro, pairing.seg_poro, pairing.seg_t_p)
    gap = np.abs(xf - xp).max(axis=(1, 2))
    bad = np.flatnonzero(gap > 1e-10 * max(1.0, pairing.length))
    if len(bad):
        raise GeometryMismatchError(f"segment {bad[0]}: quadrature points of the two sides "
                                    f"disagree by {gap[bad[0]]:.2e}")
    return SegmentQuadrature(points_f=xf, points_p=xp,
                             weights=rule.weights[None, :] * pairing.seg_length[:, None],
                             t_edge_p=t_edge_p, cells_f=pairing.fluid.cells[pairing.seg_fluid],
                             cells_p=pairing.poro.cells[pairing.seg_poro])


def tangential_permeability(pairing: InterfacePairing, K) -> np.ndarray:
    """K_j = (K tau) . tau per segment, K taken from the adjacent poro cell."""
    tau = pairing.seg_tau
    K = np.asarray(K, dtype=float)
    if K.ndim == 2:
        return np.einsum("kd,de,ke->k", tau, K, tau)
    return np.einsum("kd,kde,ke->k", tau, K[pairing.poro.cells[pairing.seg_poro]], tau)
