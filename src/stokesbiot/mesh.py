"""Triangular meshes for the two-subdomain geometry.

A ``Mesh2D`` stores one conforming triangulation (one subdomain per mesh in
this package).  Triangles are counterclockwise.  Boundary edges are stored
with the owning cell on their left, so the outward normal of edge (a, b) is
the direction (p_b - p_a) rotated by -90 degrees.

Boundary tags are lowercase identifiers; the tag ``"interface"`` marks the
side of the subdomain facing the other one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import ConfigError

FRACTURE_HALF_WIDTH = 0.05
FRACTURE_HALF_LENGTH = math.sqrt(0.5)

GEOMETRIC_TOL = 1e-10  # times domain diameter, node-coincidence tolerance


@dataclass
class Mesh2D:
    nodes: np.ndarray          # (n, 2) float
    tris: np.ndarray           # (m, 3) int, counterclockwise
    tri_tags: np.ndarray       # (m,) str, subdomain tag
    bedges: np.ndarray         # (k, 2) int, owner cell on the left
    bedge_tags: np.ndarray     # (k,) str
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- derived connectivity (built lazily, mesh treated as immutable) --

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_tris(self) -> int:
        return len(self.tris)

    def signed_areas(self) -> np.ndarray:
        p = self.nodes[self.tris]
        u = p[:, 1] - p[:, 0]
        v = p[:, 2] - p[:, 0]
        return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    def _edge_data(self):
        if "edges" not in self._cache:
            # local edge i is opposite local vertex i
            pairs = self.tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2)
            sorted_pairs = np.sort(pairs, axis=1)
            edges, inverse = np.unique(sorted_pairs, axis=0, return_inverse=True)
            self._cache["edges"] = edges
            self._cache["cell_edges"] = inverse.reshape(-1, 3)
        return self._cache["edges"], self._cache["cell_edges"]

    @property
    def edges(self) -> np.ndarray:
        """(ne, 2) unique edges with sorted node indices."""
        return self._edge_data()[0]

    @property
    def cell_edges(self) -> np.ndarray:
        """(m, 3) global edge index opposite each local vertex."""
        return self._edge_data()[1]

    def edge_cells(self) -> np.ndarray:
        """(ne, 2) adjacent cells per edge in increasing order, -1 when on the
        boundary; ``ValueError`` for an edge of three or more cells."""
        if "edge_cells" not in self._cache:
            flat = self.cell_edges.ravel()
            count = np.bincount(flat, minlength=len(self.edges))
            if count.max(initial=0) > 2:
                e = int(np.argmax(count))
                raise ValueError(f"edge {tuple(map(int, self.edges[e]))} borders {count[e]} cells")
            cells = np.argsort(flat, kind="stable") // 3      # grouped by edge, cells ascending
            first = np.cumsum(count) - count
            ec = np.full((len(count), 2), -1, dtype=np.int64)
            ec[:, 0] = cells[first]
            two = count == 2
            ec[two, 1] = cells[first[two] + 1]
            self._cache["edge_cells"] = ec
        return self._cache["edge_cells"]

    def bedge_owner(self) -> tuple[np.ndarray, np.ndarray]:
        """Owning cell and local edge index for every boundary edge."""
        if "bedge_owner" not in self._cache:
            edges, cell_edges = self._edge_data()
            # edges are unique sorted pairs in lexicographic order, so their
            # codes a * n + b are sorted too
            code = edges[:, 0] * self.n_nodes + edges[:, 1]
            keys = np.sort(self.bedges, axis=1)
            eid = np.minimum(np.searchsorted(code, keys[:, 0] * self.n_nodes + keys[:, 1]),
                             len(code) - 1)
            missing = edges[eid] != keys
            if missing.any():
                a, b = self.bedges[np.argmax(missing.any(axis=1))]
                raise ValueError(f"boundary edge {int(a), int(b)} not a mesh edge")
            c0, c1 = self.edge_cells()[eid].T
            if np.any(c1 != -1):
                a, b = self.bedges[np.argmax(c1 != -1)]
                raise ValueError(f"boundary edge {int(a), int(b)} is interior")
            local = np.argmax(cell_edges[c0] == eid[:, None], axis=1)
            self._cache["bedge_owner"] = (c0, local)
            self._cache["bedge_edge_ids"] = eid
        return self._cache["bedge_owner"]

    def bedge_edge_ids(self) -> np.ndarray:
        """Global mesh-edge index of every boundary edge."""
        self.bedge_owner()
        return self._cache["bedge_edge_ids"]

    def bedge_normals(self) -> np.ndarray:
        """Unit outward normals of the boundary edges."""
        d = self.nodes[self.bedges[:, 1]] - self.nodes[self.bedges[:, 0]]
        n = np.column_stack([d[:, 1], -d[:, 0]])
        return n / np.linalg.norm(n, axis=1)[:, None]

    def boundary_edge_ids(self, tags) -> np.ndarray:
        if isinstance(tags, str):
            tags = (tags,)
        mask = np.isin(self.bedge_tags, list(tags))
        return np.nonzero(mask)[0]

    def h_max(self) -> float:
        p = self.nodes[self.tris]
        lengths = [np.linalg.norm(p[:, i] - p[:, j], axis=1) for i, j in ((0, 1), (1, 2), (2, 0))]
        return float(np.max(lengths))

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation."""
        if np.any(self.tris < 0) or np.any(self.tris >= self.n_nodes):
            raise ValueError("triangle node index out of range")
        areas = self.signed_areas()
        if np.any(areas <= 0):
            bad = int(np.argmin(areas))
            raise ValueError(f"triangle {bad} has non-positive area {areas[bad]:.3e}")
        # every boundary edge is a directed edge of exactly one triangle
        n = self.n_nodes
        directed = self.tris[:, [0, 1, 2]] * n + self.tris[:, [1, 2, 0]]
        oriented = np.isin(self.bedges[:, 0] * n + self.bedges[:, 1], directed)
        if not oriented.all():
            a, b = self.bedges[np.argmin(oriented)]
            raise ValueError(f"boundary edge ({a},{b}) not oriented with its cell")
        # conformity: each edge borders 2 cells or is a boundary edge
        open_edges = self.edges[self.edge_cells()[:, 1] == -1]
        keys = np.sort(self.bedges, axis=1)
        tagged = np.isin(open_edges[:, 0] * n + open_edges[:, 1], keys[:, 0] * n + keys[:, 1])
        if not tagged.all():
            e = open_edges[np.argmin(tagged)]
            raise ValueError(f"edge {tuple(e)} on boundary but untagged")


# ---------------------------------------------------------------------------
# structured rectangle mesh


def build_structured(rect, nx: int, ny: int, subdomain: str,
                     boundary_tags: dict[str, str]) -> Mesh2D:
    """Uniform triangulation of ``rect = (x0, x1, y0, y1)``.

    Each grid cell is split by the diagonal from its lower-left to its
    upper-right corner (consistent direction, no criss-cross).
    ``boundary_tags`` maps the sides 'left', 'right', 'bottom', 'top' to tags.
    """
    x0, x1, y0, y1 = map(float, rect)
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be positive, got nx={nx}, ny={ny}")
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate rectangle {rect}")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    return _mesh_from_rows(ys, np.broadcast_to(xs, (ny + 1, nx + 1)), subdomain, boundary_tags)


def _mesh_from_rows(row_y, row_x, subdomain, boundary_tags,
                    left_tag_per_row=None) -> Mesh2D:
    """Triangulate a stack of horizontal node rows (same node count per row).

    ``row_y`` holds one y per row and ``row_x`` one x per row and column, so
    rows may have different x-coordinates (horizontal trapezoid cells,
    always convex).  A row whose nodes all coincide becomes a single node;
    the triangles and boundary edges that degenerate there are dropped.
    ``left_tag_per_row`` optionally overrides the 'left' tag for individual
    row intervals, which the fracture builder uses to split the left side
    into outer boundary and interface.
    """
    row_y = np.asarray(row_y, dtype=float)
    row_x = np.asarray(row_x, dtype=float)
    n_rows, n_cols = row_x.shape
    collapsed = np.all(row_x == row_x[:, :1], axis=1)
    kept = ~collapsed[:, None] | (np.arange(n_cols) == 0)
    nid = np.cumsum(kept, dtype=np.int64).reshape(n_rows, n_cols) - 1
    nid[collapsed] = nid[collapsed, :1]
    nodes = np.column_stack([row_x[kept], np.broadcast_to(row_y[:, None], row_x.shape)[kept]])

    a, b = nid[:-1, :-1], nid[:-1, 1:]
    c, d = nid[1:, 1:], nid[1:, :-1]
    tris = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    tris = tris[np.all(tris != np.roll(tris, 1, axis=1), axis=1)]

    left = boundary_tags["left"] if left_tag_per_row is None else left_tag_per_row
    left = np.broadcast_to(np.asarray(left, dtype="U16"), n_rows - 1)
    sides = [  # counterclockwise: bottom, right, top (right to left), left (top to bottom)
        (nid[0, :-1], nid[0, 1:], boundary_tags["bottom"]),
        (nid[:-1, -1], nid[1:, -1], boundary_tags["right"]),
        (nid[-1, :0:-1], nid[-1, -2::-1], boundary_tags["top"]),
        (nid[:0:-1, 0], nid[-2::-1, 0], left[::-1]),
    ]
    bedges = np.concatenate([np.column_stack([p, q]) for p, q, _ in sides])
    btags = np.concatenate([np.broadcast_to(np.asarray(t, dtype="U16"), len(p)) for p, _, t in sides])
    open_ = bedges[:, 0] != bedges[:, 1]

    mesh = Mesh2D(
        nodes=nodes,
        tris=tris,
        tri_tags=np.full(len(tris), subdomain, dtype="U16"),
        bedges=bedges[open_],
        bedge_tags=btags[open_],
    )
    mesh.validate()
    return mesh


# ---------------------------------------------------------------------------
# fracture geometry (reference domain [0,1] x [-1,1] with a lens-shaped
# fluid cavity attached to the left boundary)


def fracture_half_width(y: np.ndarray) -> np.ndarray:
    """Right extent of the fracture boundary, x^2 = 200(0.05-y)(0.05+y)."""
    return np.sqrt(np.maximum(0.0, 200.0 * (FRACTURE_HALF_WIDTH - y) * (FRACTURE_HALF_WIDTH + y)))


def fracture_samples(resolution: float) -> tuple[int, int]:
    """Rows across the fracture band and samples along the lens at
    ``resolution``; ``ConfigError`` naming it when it is too coarse."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    a = FRACTURE_HALF_LENGTH
    n_band = int(math.ceil(a * math.pi / resolution))
    n_band += n_band % 2  # keep y = 0 as a sample row
    ns_f = int(math.ceil(a / resolution))
    if n_band < 4 or ns_f < 2:
        raise ConfigError(f"resolution {resolution} too coarse for fracture half-width "
                          f"{FRACTURE_HALF_WIDTH}")
    return n_band, ns_f


def build_fracture_domain(resolution: float):
    """Mesh the fluid lens and the surrounding matrix on the reference domain.

    Both meshes sample the fracture boundary at the same points (uniform in
    the elliptic angle), so their interface traces coincide and the common
    refinement is one-to-one.  Returns ``(fluid_mesh, poro_mesh)``.
    """
    n_band, ns_f = fracture_samples(resolution)
    b = FRACTURE_HALF_WIDTH

    theta = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_band + 1)
    band_y = b * np.sin(theta)
    band_y[0], band_y[-1] = -b, b
    band_w = fracture_half_width(band_y)
    band_w[0] = band_w[-1] = 0.0

    s = np.linspace(0.0, 1.0, ns_f + 1)
    # the end rows have zero width, so the lens has no bottom or top edges
    fluid = _mesh_from_rows(band_y, band_w[:, None] * s, "fluid",
                            {"bottom": "interface", "right": "interface",
                             "top": "interface", "left": "inflow"})

    ns_p = int(math.ceil(1.0 / resolution))
    n_outer = int(math.ceil((1.0 - b) / resolution))
    xs = np.linspace(0.0, 1.0, ns_p + 1)
    below = np.linspace(-1.0, -b, n_outer + 1)[:-1]
    above = np.linspace(b, 1.0, n_outer + 1)[1:]
    row_y = np.concatenate([below, band_y, above])
    w = np.where(np.abs(row_y) < b, fracture_half_width(row_y), 0.0)[:, None]
    # rows inside the open band have their left node on the fracture curve
    lo, hi = row_y[:-1], row_y[1:]
    inside = ((lo >= -b - 1e-14) & (hi <= b + 1e-14)
              & ~((hi <= -b + 1e-14) | (lo >= b - 1e-14)))
    poro = _mesh_from_rows(row_y, w + xs * (1.0 - w), "poro",
                           {"bottom": "bottom", "right": "right", "top": "top", "left": "left"},
                           left_tag_per_row=np.where(inside, "interface", "left"))

    _check_trace_match(fluid, poro)
    return fluid, poro


def _check_trace_match(fluid: Mesh2D, poro: Mesh2D) -> None:
    diam = math.sqrt(5.0)
    pf = _trace_points(fluid)
    pp = _trace_points(poro)
    if polyline_hausdorff(pf, pp) > GEOMETRIC_TOL * diam:
        raise ValueError("fluid and poro interface traces do not coincide")


def _trace_points(mesh: Mesh2D) -> np.ndarray:
    ids = mesh.boundary_edge_ids("interface")
    pts = mesh.nodes[np.unique(mesh.bedges[ids])]
    return pts[np.lexsort((pts[:, 0], pts[:, 1]))]


def polyline_hausdorff(p: np.ndarray, q: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point-sampled polylines."""

    def one_sided(a, b):
        d = 0.0
        for pt in a:
            seg = np.linalg.norm(b - pt, axis=1).min()
            d = max(d, seg)
        return d

    return max(one_sided(p, q), one_sided(q, p))


# ---------------------------------------------------------------------------
# domain mapping


@dataclass(frozen=True)
class DomainMap:
    """Closed-form coordinate map with its Jacobian evaluator."""

    fn: Callable[[np.ndarray], np.ndarray]          # (n,2) -> (n,2)
    jacobian: Callable[[np.ndarray], np.ndarray]    # (n,2) -> (n,2,2)


def reservoir_domain_map() -> DomainMap:
    """Map from the reference rectangle to the curved physical reservoir.

    x = xh,  y = 5 cos((xh+yh)/100) cos^2((pi xh+yh)/100) + yh/2 - xh/10.
    """

    def fn(p):
        xh, yh = p[:, 0], p[:, 1]
        u = (xh + yh) / 100.0
        v = (math.pi * xh + yh) / 100.0
        y = 5.0 * np.cos(u) * np.cos(v) ** 2 + yh / 2.0 - xh / 10.0
        return np.column_stack([xh, y])

    def jac(p):
        xh, yh = p[:, 0], p[:, 1]
        u = (xh + yh) / 100.0
        v = (math.pi * xh + yh) / 100.0
        du = 0.01
        dy_dx = (-5.0 * np.sin(u) * du * np.cos(v) ** 2
                 - 10.0 * np.cos(u) * np.cos(v) * np.sin(v) * (math.pi / 100.0) - 0.1)
        dy_dy = (-5.0 * np.sin(u) * du * np.cos(v) ** 2
                 - 10.0 * np.cos(u) * np.cos(v) * np.sin(v) * du + 0.5)
        J = np.zeros((len(p), 2, 2))
        J[:, 0, 0] = 1.0
        J[:, 1, 0] = dy_dx
        J[:, 1, 1] = dy_dy
        return J

    return DomainMap(fn=fn, jacobian=jac)


def apply_domain_map(mesh: Mesh2D, dmap: DomainMap) -> Mesh2D:
    """Move mesh nodes through the map; connectivity and tags are kept."""
    J = dmap.jacobian(mesh.nodes)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(det <= 0):
        raise ValueError("map Jacobian not positive at all mesh nodes")
    mapped = Mesh2D(
        nodes=dmap.fn(mesh.nodes),
        tris=mesh.tris.copy(),
        tri_tags=mesh.tri_tags.copy(),
        bedges=mesh.bedges.copy(),
        bedge_tags=mesh.bedge_tags.copy(),
    )
    areas = mapped.signed_areas()
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise ValueError(f"mapped triangle {bad} degenerates (area {areas[bad]:.3e})")
    return mapped


# ---------------------------------------------------------------------------
# ASCII mesh file format:
#   mesh2d 1
#   <#nodes> <#tris> <#bedges>
#   x y                per node
#   i j k subdomain    per triangle (0-based indices)
#   i j tag            per boundary edge


def write_mesh(mesh: Mesh2D, path) -> None:
    with open(path, "w") as f:
        f.write("mesh2d 1\n")
        f.write(f"{mesh.n_nodes} {mesh.n_tris} {len(mesh.bedges)}\n")
        for x, y in mesh.nodes:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        for (i, j, k), tag in zip(mesh.tris, mesh.tri_tags):
            f.write(f"{i} {j} {k} {tag}\n")
        for (i, j), tag in zip(mesh.bedges, mesh.bedge_tags):
            f.write(f"{i} {j} {tag}\n")
