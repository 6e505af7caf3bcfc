import math
from dataclasses import replace

import numpy as np
import pytest

from stokesbiot.mesh import build_structured
from stokesbiot.scenarios import (RasterField, RasterParseError, build_scenario_system,
                                  example2_config, example3_config, interface_distances,
                                  lame_from_E_nu, project_raster, read_raster, run_scenario,
                                  sensitivity_configs, synthetic_spe_standin, write_raster,
                                  youngs_from_porosity)

TAGS = {"left": "left", "right": "right", "bottom": "bottom", "top": "top"}


# ---------------------------------------------------------------------------
# material laws


def test_lame_reference_values():
    lam, mu = lame_from_E_nu(1e7, 0.2)
    assert lam == pytest.approx(5 / 18 * 1e7, rel=1e-12)
    assert mu == pytest.approx(5 / 12 * 1e7, rel=1e-12)


def test_lame_zero_poisson_collapse():
    lam, mu = lame_from_E_nu(3.0, 0.0)
    assert lam == 0.0
    assert mu == pytest.approx(1.5)


def test_lame_incompressible_guard():
    lam, _ = lame_from_E_nu(1e7, 0.4999)
    assert math.isfinite(lam) and lam > 1e9
    with pytest.raises(ValueError):
        lame_from_E_nu(1e7, 0.5)
    with pytest.raises(ValueError):
        lame_from_E_nu(-1.0, 0.2)


def test_youngs_from_porosity():
    assert youngs_from_porosity(0.0) == pytest.approx(1e7)
    assert youngs_from_porosity(0.5) == 0.0
    assert youngs_from_porosity(0.25) == pytest.approx(1e7 * 0.5**2.1, rel=1e-12)
    with pytest.raises(ValueError):
        youngs_from_porosity(0.6)
    phi = np.linspace(0.0, 0.5, 20)
    E = youngs_from_porosity(phi)
    assert np.all(np.diff(E) < 0)


# ---------------------------------------------------------------------------
# rasters


def test_raster_roundtrip(tmp_path):
    field, _ = synthetic_spe_standin(nx=6, ny=10)
    path = tmp_path / "f.raster"
    write_raster(field, path)
    back = read_raster(path)
    assert back.nx == field.nx and back.ny == field.ny
    assert np.array_equal(back.values, field.values)


def test_raster_parse_errors(tmp_path):
    p = tmp_path / "bad.raster"
    p.write_text("nope\n")
    with pytest.raises(RasterParseError):
        read_raster(p)
    p.write_text("raster 1\n2 2 0 0 0.5 0.5\n1 2 3\n")
    with pytest.raises(RasterParseError):
        read_raster(p)


def test_project_raster_quadrants():
    field = RasterField(nx=2, ny=2, x0=0.0, y0=0.0, dx=0.5, dy=0.5,
                        values=np.array([[1.0, 2.0], [3.0, 4.0]]))
    mesh = build_structured((0, 1, 0, 1), 2, 2, "poro", TAGS)
    vals = project_raster(field, mesh)
    centroids = mesh.nodes[mesh.tris].mean(axis=1)
    for c, v in zip(centroids, vals):
        expected = {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 3.0, (1, 1): 4.0}[
            (int(c[0] > 0.5), int(c[1] > 0.5))]
        assert v == expected


def test_project_raster_constant():
    field = RasterField(nx=3, ny=3, x0=0, y0=-1, dx=1 / 3, dy=2 / 3,
                        values=np.full((3, 3), 7.5))
    mesh = build_structured((0, 1, -1, 1), 4, 4, "poro", TAGS)
    assert np.all(project_raster(field, mesh) == 7.5)


def test_project_raster_out_of_bounds():
    field = RasterField(nx=2, ny=2, x0=0.0, y0=0.0, dx=0.25, dy=0.25,
                        values=np.ones((2, 2)))
    mesh = build_structured((0, 1, 0, 1), 2, 2, "poro", TAGS)
    with pytest.raises(ValueError, match="raster"):
        project_raster(field, mesh)


def test_synthetic_standin_shape_and_ranges():
    poro, perm = synthetic_spe_standin()
    assert poro.values.shape == (220, 60)
    assert perm.values.shape == (220, 60)
    assert perm.values.min() > 0
    assert 0 <= poro.values.min() and poro.values.max() < 1
    assert perm.values.max() / perm.values.min() > 1e2   # heterogeneous


# ---------------------------------------------------------------------------
# configurations


def test_example2_params_match_reference_values():
    cfg = example2_config()
    p = cfg.params
    assert p.mu == pytest.approx(1e-6)
    assert np.allclose(np.asarray(p.K), np.diag([200e-12, 50e-12]))
    assert p.s0 == pytest.approx(6.89e-2)
    assert p.alpha == 1.0
    assert p.alpha_bjs == 1.0
    assert cfg.T == 300.0 and cfg.tau == 1.0
    assert p.lam_p == pytest.approx(5 / 18 * 1e7)
    assert p.mu_p == pytest.approx(5 / 12 * 1e7)


def test_sensitivity_cases_match_reference_values():
    cfgs = sensitivity_configs()
    assert set(cfgs) == {"A", "B", "C", "D"}
    A, B, C, D = (cfgs[k].params for k in "ABCD")
    assert np.allclose(np.asarray(A.K), np.eye(2) * 1e-6)
    assert A.s0 == 1.0
    lamA, muA = lame_from_E_nu(1e3, 0.2)
    assert A.lam_p == pytest.approx(lamA) and A.mu_p == pytest.approx(muA)
    assert np.allclose(np.asarray(B.K), np.diag([200e-12, 50e-12]))
    assert B.s0 == 1.0
    assert C.s0 == pytest.approx(1e-2)
    # case D differs from case C only in the stiffness
    lamD, muD = lame_from_E_nu(1e10, 0.2)
    assert D.lam_p == pytest.approx(lamD) and D.mu_p == pytest.approx(muD)
    assert D.s0 == C.s0 and np.allclose(np.asarray(D.K), np.asarray(C.K))
    for cfg in cfgs.values():
        cfg.params.validate()


def test_interface_distance_helper():
    from stokesbiot.mesh import build_fracture_domain

    _, poro = build_fracture_domain(0.08)
    pts = np.array([[0.9, 0.9], [0.75, 0.0]])
    d = interface_distances(poro, pts)
    assert d[0] > 0.5
    assert d[1] < 0.1


# ---------------------------------------------------------------------------
# short runs (coarse meshes, reduced horizons)


def test_zero_injection_stays_hydrostatic():
    cfg = replace(example2_config(resolution=0.1), T=5.0, injection=0.0)
    summary = run_scenario(cfg, outdir=None, collect_diagnostics=False)
    assert abs(summary["near_fracture_mean_pp"] - 1000.0) < 1e-6 * 1000.0
    assert summary["max_up"] < 1e-8
    assert summary["max_displacement"] < 1e-10


def test_example2_short_run_pressurizes():
    cfg = replace(example2_config(resolution=0.1), T=5.0)
    summary = run_scenario(cfg, outdir=None)
    assert summary["near_fracture_mean_pp"] > 1100.0
    assert summary["max_constraint_residual"] < 1e-9
    assert summary["max_energy_residual"] < 1e-8


def test_example3_heterogeneous_run(tmp_path):
    poro, perm = synthetic_spe_standin()
    pp, kp = tmp_path / "poro.raster", tmp_path / "perm.raster"
    write_raster(poro, pp)
    write_raster(perm, kp)
    cfg = replace(example3_config(str(pp), str(kp), resolution=0.1), T=3.0)
    summary = run_scenario(cfg, outdir=None, collect_diagnostics=False)
    assert summary["near_fracture_mean_pp"] > 1000.0
    assert np.isfinite(summary["max_up"])


def test_sensitivity_monotone_responses():
    """C -> D: stiffer rock moves less; A -> B: lower permeability, larger drop."""
    cfgs = sensitivity_configs(resolution=0.1)
    res = {}
    for label in "ABCD":
        res[label] = run_scenario(replace(cfgs[label], T=10.0), outdir=None,
                                  collect_diagnostics=False)
    assert res["D"]["max_displacement"] < res["C"]["max_displacement"]
    drop = {k: res[k]["max_pp"] - res[k]["min_pp"] for k in "AB"}
    assert drop["B"] > drop["A"]


def test_scenario_outputs_written(tmp_path):
    cfg = replace(example2_config(resolution=0.1), T=2.0, output_stride=0)
    summary = run_scenario(cfg, outdir=str(tmp_path))
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "manifest.json" in files
    assert any(f.startswith("example2_fluid_") and f.endswith(".vtk") for f in files)
    assert any(f.startswith("example2_poro_") for f in files)
    import json

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["T"] == 2.0
    assert manifest["summary"]["near_fracture_mean_pp"] == summary["near_fracture_mean_pp"]


def test_raster_requires_reference_domain(tmp_path):
    poro, perm = synthetic_spe_standin()
    pp, kp = tmp_path / "p.raster", tmp_path / "k.raster"
    write_raster(poro, pp)
    write_raster(perm, kp)
    cfg = replace(example3_config(str(pp), str(kp)), domain="mapped")
    with pytest.raises(ValueError):
        build_scenario_system(cfg)
