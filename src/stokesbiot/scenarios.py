"""Fractured-reservoir experiments: configuration, material laws, runners.

Geometry is the reference rectangle [0,1] x [-1,1] with a lens-shaped fluid
cavity on the left boundary, optionally mapped to the curved physical
reservoir.  Units are m / s / KPa.  Heterogeneous material data comes from
rasters (porosity and isotropic permeability); a deterministic layered
stand-in for the external 60 x 220 field dataset ships with the package.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .assembly import PhysicalParams, Separable, make_multiplier_space
from .config import ConfigError
from .interface import common_refinement, project_to_polyline
from .manufactured import PI
from .mesh import Mesh2D, apply_domain_map, build_fracture_domain, reservoir_domain_map
from .solver import CoupledSystem, DirichletBC, FluxBC, run_transient
from .spaces import make_space
from .vtkio import write_manifest, write_output, write_scenario_snapshots


class RasterParseError(ConfigError):
    """Raised for malformed raster files; carries the path and the offending
    line number."""


@dataclass
class RasterField:
    """Rectangular cell-centered scalar grid, values row-major (ny rows of nx)."""

    nx: int
    ny: int
    x0: float
    y0: float
    dx: float
    dy: float
    values: np.ndarray     # (ny, nx)

    def validate(self, kind: str | None = None) -> None:
        if self.values.shape != (self.ny, self.nx):
            raise ValueError(f"raster values shape {self.values.shape} != ({self.ny}, {self.nx})")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("raster contains non-finite values")
        if kind == "porosity" and (self.values.min() < 0 or self.values.max() >= 1):
            raise ValueError("porosity values must lie in [0, 1)")
        if kind == "permeability" and self.values.min() <= 0:
            raise ValueError("permeability values must be positive")

    def value_at(self, points: np.ndarray) -> np.ndarray:
        p = np.atleast_2d(points)
        i = np.floor((p[:, 0] - self.x0) / self.dx).astype(int)
        j = np.floor((p[:, 1] - self.y0) / self.dy).astype(int)
        bad = (i < 0) | (i >= self.nx) | (j < 0) | (j >= self.ny)
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            raise ValueError(f"point {tuple(p[k])} outside raster extent")
        return self.values[j, i]


def write_raster(field: RasterField, path) -> None:
    write_output(path, "".join([
        "raster 1\n", f"{field.nx} {field.ny} {field.x0!r} {field.y0!r} {field.dx!r} {field.dy!r}\n",
        *(" ".join(repr(float(v)) for v in row) + "\n" for row in field.values)]))


def read_raster(path) -> RasterField:
    with open(path) as f:
        lines = f.read().split("\n")
    if not lines or lines[0].split() != ["raster", "1"]:
        raise RasterParseError("bad header", 1, path)
    try:
        parts = lines[1].split()
        nx, ny = int(parts[0]), int(parts[1])
        x0, y0, dx, dy = map(float, parts[2:6])
    except (ValueError, IndexError):
        raise RasterParseError("bad size line", 2, path) from None
    flat = []
    for ln, line in enumerate(lines[2:], start=3):
        for tok in line.split():
            try:
                flat.append(float(tok))
            except ValueError:
                raise RasterParseError(f"bad value {tok!r}", ln, path) from None
    if len(flat) != nx * ny:
        raise RasterParseError(f"expected {nx * ny} values, found {len(flat)}", len(lines), path)
    field = RasterField(nx=nx, ny=ny, x0=x0, y0=y0, dx=dx, dy=dy,
                        values=np.array(flat).reshape(ny, nx))
    field.validate()
    return field


def project_raster(field: RasterField, mesh: Mesh2D) -> np.ndarray:
    """Piecewise-constant projection: each cell takes the value at its centroid."""
    centroids = mesh.nodes[mesh.tris].mean(axis=1)
    try:
        return field.value_at(centroids)
    except ValueError as exc:
        bad = str(exc)
        raise ValueError(f"cell centroid outside raster: {bad}") from None


# ---------------------------------------------------------------------------
# material laws


def lame_from_E_nu(E, nu):
    """(lambda, mu) from Young's modulus and Poisson ratio."""
    E = np.asarray(E, dtype=float)
    nu = float(nu)
    if np.any(E <= 0):
        raise ValueError("Young's modulus must be positive")
    if not 0.0 <= nu < 0.5:
        raise ValueError(f"Poisson ratio {nu} outside [0, 0.5)")
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    if lam.ndim == 0:
        return float(lam), float(mu)
    return lam, mu


def youngs_from_porosity(phi):
    """E = 1e7 (1 - phi/0.5)^2.1; 0.5 is the porosity of vanishing stiffness."""
    phi = np.asarray(phi, dtype=float)
    if np.any(phi < 0) or np.any(phi > 0.5):
        raise ValueError("porosity outside [0, 0.5]")
    E = 1e7 * (1.0 - phi / 0.5) ** 2.1
    return float(E) if E.ndim == 0 else E


def synthetic_spe_standin(nx: int = 60, ny: int = 220):
    """Deterministic layered porosity / permeability rasters on [0,1] x [-1,1].

    Horizontal bands with mild lateral drift; permeability spans about four
    orders of magnitude like the field dataset it stands in for.
    """
    x = (np.arange(nx) + 0.5) / nx
    y = -1.0 + 2.0 * (np.arange(ny) + 0.5) / ny
    X, Y = np.meshgrid(x, y)
    layers = 1.3 * np.sin(9.0 * PI * Y + 0.7 * np.sin(2.0 * PI * X)) \
        + 0.6 * np.sin(23.0 * Y + 1.5 * X) + 0.3 * np.sin(4.0 * PI * Y * Y)
    logk = -12.0 + 1.4 * layers
    perm = 10.0 ** np.clip(logk, -15.0, -9.0)
    poro = 0.05 + 0.35 * (logk - logk.min()) / (logk.max() - logk.min())
    common = dict(nx=nx, ny=ny, x0=0.0, y0=-1.0, dx=1.0 / nx, dy=2.0 / ny)
    pf = RasterField(values=poro, **common)
    kf = RasterField(values=perm, **common)
    pf.validate("porosity")
    kf.validate("permeability")
    return pf, kf


# ---------------------------------------------------------------------------
# scenario configuration

RESERVOIR_NU = 0.2     # Poisson ratio of every reservoir matrix


@dataclass
class ScenarioConfig:
    name: str
    domain: str = "mapped"               # "reference" or "mapped"
    resolution: float = 0.04
    T: float = 300.0
    tau: float = 1.0
    params: PhysicalParams = field(default_factory=PhysicalParams)
    injection: float = 10.0              # inflow speed at the fracture mouth
    boundary_pressure: float = 1000.0    # natural Darcy data (KPa)
    initial_pressure: float = 1000.0
    porosity_raster: str | None = None   # example 3 inputs
    permeability_raster: str | None = None
    output_stride: int = 0

    def resolved(self) -> dict:
        d = {k: getattr(self, k) for k in ("name", "domain", "resolution", "T", "tau",
                                           "injection", "boundary_pressure",
                                           "initial_pressure", "porosity_raster",
                                           "permeability_raster", "output_stride")}
        p = self.params
        d["params"] = {"mu": p.mu, "K": np.asarray(p.K).tolist(),
                       "lam_p": np.asarray(p.lam_p).tolist(),
                       "mu_p": np.asarray(p.mu_p).tolist(),
                       "alpha": p.alpha, "s0": p.s0, "alpha_bjs": p.alpha_bjs}
        return d


def reservoir_params(E: float = 1e7, K=None, s0: float = 6.89e-2) -> PhysicalParams:
    lam, mu_p = lame_from_E_nu(E, RESERVOIR_NU)
    K = np.diag([200e-12, 50e-12]) if K is None else K
    return PhysicalParams(mu=1e-6, K=K, lam_p=lam, mu_p=mu_p,
                          alpha=1.0, s0=s0, alpha_bjs=1.0)


def example2_config(resolution: float = 0.04) -> ScenarioConfig:
    return ScenarioConfig(name="example2", domain="mapped", resolution=resolution,
                          params=reservoir_params())


def example3_config(porosity_raster: str | None = None, permeability_raster: str | None = None,
                    resolution: float = 0.04) -> ScenarioConfig:
    return ScenarioConfig(name="example3", domain="reference", resolution=resolution,
                          params=reservoir_params(),
                          porosity_raster=porosity_raster,
                          permeability_raster=permeability_raster)


def sensitivity_configs(resolution: float = 0.04) -> dict:
    base = dict(domain="mapped", resolution=resolution)
    K_aniso = np.diag([200e-12, 50e-12])
    cases = {
        "A": reservoir_params(E=1e3, K=np.eye(2) * 1e-6, s0=1.0),
        "B": reservoir_params(E=1e3, K=K_aniso, s0=1.0),
        "C": reservoir_params(E=1e3, K=K_aniso, s0=1e-2),
        "D": reservoir_params(E=1e10, K=K_aniso, s0=1e-2),
    }
    out = {}
    for label, params in cases.items():
        params.validate()
        out[label] = ScenarioConfig(name=f"sensitivity:{label}", params=params, **base)
    return out


SCENARIO_ELEMENTS = {
    "uf": "VecP2", "pf": "P1", "up": "RT1", "pp": "P1dc", "eta": "VecP1",
}
MULTIPLIER_ORDER = 1


def build_scenario_system(config: ScenarioConfig) -> CoupledSystem:
    mesh_f, mesh_p = build_fracture_domain(config.resolution)
    params = config.params
    if config.porosity_raster or config.permeability_raster:
        if config.domain != "reference":
            raise ValueError("raster coefficients require the reference domain")
        if not (config.porosity_raster and config.permeability_raster):
            raise ValueError("both porosity and permeability rasters are required")
        poro_field = read_raster(config.porosity_raster)
        poro_field.validate("porosity")
        perm_field = read_raster(config.permeability_raster)
        perm_field.validate("permeability")
        phi = project_raster(poro_field, mesh_p)
        k_iso = project_raster(perm_field, mesh_p)
        E = youngs_from_porosity(np.minimum(phi, 0.499))
        E = np.maximum(E, 1.0)  # keep stiffness positive where porosity ~ 0.5
        lam, mu_p = lame_from_E_nu(E, RESERVOIR_NU)
        params = params.with_overrides(K=k_iso, lam_p=lam, mu_p=mu_p)
    if config.domain == "mapped":
        dmap = reservoir_domain_map()
        mesh_f = apply_domain_map(mesh_f, dmap)
        mesh_p = apply_domain_map(mesh_p, dmap)
    params.validate(mesh_p.n_tris)

    pairing = common_refinement(mesh_f, mesh_p)
    spaces = {name: make_space(mesh_f if name in ("uf", "pf") else mesh_p, fam)
              for name, fam in SCENARIO_ELEMENTS.items()}
    L = make_multiplier_space(pairing, MULTIPLIER_ORDER)

    inj = config.injection

    def inflow_velocity(p, t):
        return np.tile([inj, 0.0], (len(p), 1))   # into the fracture (mouth at x = 0)

    # the left side (x = 0, fracture mouth) acts as a symmetry plane: no flow
    # and no normal displacement, so the hydrostatic state is an exact
    # equilibrium when nothing is injected
    bcs = [
        DirichletBC("uf", ("inflow",), value=inflow_velocity),
        FluxBC("up", ("left",)),
        DirichletBC("eta", ("top", "right", "bottom", "left"), normal_only=True),
    ]
    pD = config.boundary_pressure
    data = {"darcy_pressure": (("bottom", "right", "top"), Separable(lambda p: np.full(len(p), pD)))}
    return CoupledSystem(spaces, L, pairing, params, config.tau, bcs, data)


# ---------------------------------------------------------------------------
# running and summarizing


def interface_distances(mesh_p: Mesh2D, points: np.ndarray) -> np.ndarray:
    """Distance from ``points`` to the interface polyline of the poro mesh."""
    ends = mesh_p.nodes[mesh_p.bedges[mesh_p.boundary_edge_ids("interface")]]
    return project_to_polyline(points, ends[:, 0], ends[:, 1])[2]


def cell_mean_pressure(system: CoupledSystem, state) -> np.ndarray:
    """Pore pressure averaged over the dofs of each poro cell."""
    space = system.spaces["pp"]
    pp = system.view(state.X, "pp")
    return pp[space.cell_dofs[:, 0]] if space.family == "P0" else pp[space.cell_dofs].mean(axis=1)


def scenario_summary(system: CoupledSystem, state) -> dict:
    mesh_p = system.spaces["pp"].mesh
    if "near_interface" not in mesh_p._cache:      # cells with a centroid within 0.1
        centroids = mesh_p.nodes[mesh_p.tris].mean(axis=1)
        near = interface_distances(mesh_p, centroids) <= 0.1
        near.flags.writeable = False
        mesh_p._cache["near_interface"] = near
    near = mesh_p._cache["near_interface"]
    cell_pp = cell_mean_pressure(system, state)
    up_c = _rt_at_centroids(system.spaces["up"], system.view(state.X, "up"))
    eta = system.view(state.X, "eta")
    eta_nodes = eta.reshape(-1, 2)
    return {
        "t": state.t,
        "near_fracture_mean_pp": float(cell_pp[near].mean()),
        "max_pp": float(cell_pp.max()),
        "min_pp": float(cell_pp.min()),
        "max_up": float(np.linalg.norm(up_c, axis=1).max()),
        "max_displacement": float(np.linalg.norm(eta_nodes, axis=1).max()),
    }


def _rt_at_centroids(space, coeffs) -> np.ndarray:
    """The RT field of ``coeffs`` at the cell centroids (m, 2); the basis
    values there are tabulated once per space."""
    if "centroid_values" not in space._cache:
        mesh = space.mesh
        centroids = mesh.nodes[mesh.tris].mean(axis=1)[:, None, :]
        vals = space.basis_values(np.arange(mesh.n_tris), centroids)   # (m, n, 1, 2)
        vals.flags.writeable = False
        space._cache["centroid_values"] = vals
    return np.einsum("mnqd,mn->md", space._cache["centroid_values"], coeffs[space.cell_dofs])


def run_scenario(config: ScenarioConfig, outdir: str | None = None,
                 collect_diagnostics: bool = True) -> dict:
    """Run one scenario; returns the summary of the final state.

    Writes VTK snapshots per the output schedule and a manifest when
    ``outdir`` is given.
    """
    system = build_scenario_system(config)
    p0 = config.initial_pressure
    state0 = system.initial_state(pp0=lambda p: np.full(len(p), p0),
                                  eta0=lambda p: np.zeros((len(p), 2)),
                                  eta_dot0=None)
    states, diagnostics = run_transient(system, config.T, state0,
                                        output_stride=config.output_stride,
                                        collect_diagnostics=collect_diagnostics)
    summary = scenario_summary(system, states[-1])
    summary["n_dofs"] = system.n_dofs
    if diagnostics:
        summary["max_constraint_residual"] = max(d["constraint_residual"] for d in diagnostics)
        summary["max_energy_residual"] = max(d["energy_residual"] for d in diagnostics)
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        write_scenario_snapshots(outdir, config.name.replace(":", "_"), system, states)
        manifest = {"config": config.resolved(), "summary": summary}
        write_manifest(os.path.join(outdir, "manifest.json"), manifest)
    return summary


def _sweep_workers(n_cases: int) -> int:
    """Worker processes for a sweep: ``SB_THREADS`` (default all cores), at
    most one per case.  A value that is not a positive integer is a
    ``ConfigError``."""
    raw = os.environ.get("SB_THREADS")
    if raw is None:
        n = os.cpu_count() or 1
    else:
        try:
            n = int(raw)
        except ValueError:
            n = 0
        if n < 1:
            raise ConfigError(f"SB_THREADS = {raw!r} is not a positive integer")
    return min(n, n_cases)


def sweep_threads(n_cases: int) -> dict:
    """Thread settings of a sweep: its worker count and the BLAS thread
    variables every worker inherits (``None`` where unset)."""
    return {"workers": _sweep_workers(n_cases),
            "env": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def run_sensitivity(configs: dict, outdir: str | None = None) -> dict:
    """Run the ``{label: ScenarioConfig}`` sweep; honors SB_THREADS for
    process parallelism."""
    n_workers = _sweep_workers(len(configs))
    if n_workers > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=n_workers) as ex:
            futs = {c: ex.submit(run_scenario, cfg,
                                 os.path.join(outdir, c) if outdir else None)
                    for c, cfg in configs.items()}
            return {c: f.result() for c, f in futs.items()}
    return {c: run_scenario(cfg, os.path.join(outdir, c) if outdir else None)
            for c, cfg in configs.items()}
