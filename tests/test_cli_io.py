import json

import numpy as np
import pytest

from stokesbiot.cli import cli
from stokesbiot.config import ConfigError, parse_config, parse_set_pairs
from stokesbiot.mesh import Mesh2D, build_structured, read_mesh
from stokesbiot.vtkio import CSV_HEADER, convergence_csv, read_vtk_points, write_vtk

TAGS = {"left": "left", "right": "right", "bottom": "bottom", "top": "top"}


# ---------------------------------------------------------------------------
# VTK writer


def tiny_mesh():
    return Mesh2D(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  tris=np.array([[0, 1, 2]]),
                  tri_tags=np.array(["fluid"]),
                  bedges=np.array([[0, 1], [1, 2], [2, 0]]),
                  bedge_tags=np.array(["a", "b", "c"]))


def test_vtk_structure(tmp_path):
    path = tmp_path / "t.vtk"
    write_vtk(path, tiny_mesh(), point_data={"p": np.array([1.0, 2.0, 3.0])},
              cell_data={"k": np.array([4.0])})
    text = path.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "POINTS 3 double" in text
    assert "CELLS 1 4" in text
    assert "CELL_TYPES 1" in text
    idx = text.index("CELL_TYPES 1")
    assert text[idx + 1] == "5"
    assert "POINT_DATA 3" in text
    assert "CELL_DATA 1" in text


def test_vtk_vector_z_padding(tmp_path):
    path = tmp_path / "v.vtk"
    vel = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    write_vtk(path, tiny_mesh(), point_data={"velocity": vel})
    lines = path.read_text().splitlines()
    i = lines.index("VECTORS velocity double")
    row = lines[i + 1].split()
    assert len(row) == 3 and float(row[2]) == 0.0


def test_vtk_roundtrip_full_precision(tmp_path):
    mesh = build_structured((0, 1, -1, 0), 3, 3, "poro", TAGS)
    path = tmp_path / "m.vtk"
    write_vtk(path, mesh)
    pts = read_vtk_points(path)
    assert np.array_equal(pts, mesh.nodes)


def test_vtk_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "x.vtk", tiny_mesh(), point_data={"p": np.zeros(5)})


def test_vtk_deterministic(tmp_path):
    mesh = tiny_mesh()
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    data = {"p": np.array([0.1, 0.2, 0.3])}
    write_vtk(p1, mesh, point_data=data)
    write_vtk(p2, mesh, point_data=data)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# convergence CSV


def test_convergence_csv_shape():
    from stokesbiot.verify import NORM_KEYS, ConvergenceTable, ErrorReport, LOW_ORDER

    rows = [ErrorReport(h=1 / 8, dof_counts={}, abs_errors={k: 0.1 for k in NORM_KEYS},
                        rel_errors={k: 0.1 for k in NORM_KEYS}),
            ErrorReport(h=1 / 16, dof_counts={}, abs_errors={k: 0.05 for k in NORM_KEYS},
                        rel_errors={k: 0.05 for k in NORM_KEYS})]
    table = ConvergenceTable(elements=LOW_ORDER, matching=True, rows=rows)
    csv = convergence_csv(table)
    lines = csv.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    cells = lines[2].split(",")
    assert len(cells) == 11
    assert cells[2] == "1.00"    # rate between the two rows
    assert lines[1].split(",")[2] == ""


# ---------------------------------------------------------------------------
# config files


def test_parse_config_values(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("""
[params]
s0 = 6.89e-2
alpha = 1.0
# comment line
[time]
T = 10
tau = 0.5
[output]
stride = 5
""")
    cfg = parse_config(p)
    assert cfg["params"]["s0"] == pytest.approx(0.0689)
    assert cfg["time"]["t"] == 10.0
    assert cfg["output"]["stride"] == 5


def test_parse_config_missing_time_section_defaults(tmp_path):
    from dataclasses import replace

    from stokesbiot.config import apply_overrides
    from stokesbiot.scenarios import example2_config

    p = tmp_path / "run.cfg"
    p.write_text("[params]\ns0 = 0.1\n")
    cfg = apply_overrides(example2_config(), parse_config(p))
    assert cfg.T == 300.0 and cfg.tau == 1.0        # scenario defaults kept
    assert cfg.params.s0 == pytest.approx(0.1)


@pytest.mark.parametrize("body,line", [
    ("[params]\nalpha = 1.5\n", 2),
    ("[params]\ns0 = 0.1\ns0 = 0.2\n", 3),
    ("[params]\nmu = fast\n", 2),
    ("[nope]\n", 1),
    ("[params]\nwhatever = 3\n", 2),
    ("s0 = 1\n", 1),
])
def test_parse_config_errors(tmp_path, body, line):
    p = tmp_path / "bad.cfg"
    p.write_text(body)
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert err.value.line == line


def test_parse_set_pairs():
    out = parse_set_pairs(["s0=0.5", "alpha=1.0"])
    assert out == {"s0": 0.5, "alpha": 1.0}
    with pytest.raises(ConfigError):
        parse_set_pairs(["alpha=2.0"])
    with pytest.raises(ConfigError):
        parse_set_pairs(["bogus=1"])
    with pytest.raises(ConfigError):
        parse_set_pairs(["s0=inf"])


# ---------------------------------------------------------------------------
# CLI


def test_cli_usage_errors():
    assert cli(["converge", "--elements", "low", "--matching", "maybe"]) == 1
    assert cli(["bogus"]) == 1
    assert cli(["run", "--scenario", "unknown"]) == 1


@pytest.mark.parametrize("pair,key", [
    ("stride=x", "stride"),
    ("tau=inf", "tau"),
    ("foo=1", "foo"),
])
def test_cli_bad_set_value_is_usage_error(tmp_path, capsys, pair, key):
    rc = cli(["run", "--scenario", "example2", "--set", pair, "--out", str(tmp_path)])
    assert rc == 1
    assert key in capsys.readouterr().err


def test_cli_bad_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[output]\nstride = x\n")
    rc = cli(["run", "--scenario", "example2", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "stride" in capsys.readouterr().err


def test_cli_mesh_rect(tmp_path):
    out = tmp_path / "rect.mesh"
    assert cli(["mesh", "--make", "rect", "--nx", "4", "--ny", "3", "--out", str(out)]) == 0
    mesh = read_mesh(out)
    assert mesh.n_tris == 24


def test_cli_mesh_fracture(tmp_path):
    prefix = tmp_path / "frac"
    assert cli(["mesh", "--make", "fracture", "--resolution", "0.08", "--out", str(prefix)]) == 0
    fluid = read_mesh(f"{prefix}_fluid.mesh")
    poro = read_mesh(f"{prefix}_poro.mesh")
    assert len(fluid.boundary_edge_ids("interface")) == len(poro.boundary_edge_ids("interface"))


def test_cli_converge_writes_table(tmp_path, capsys):
    rc = cli(["converge", "--elements", "low", "--levels", "2", "--n0", "4",
              "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "convergence_low_matching.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "convergence_low_matching_manifest.json").read_text())
    assert manifest["levels"] == 2


def test_cli_run_scenario_with_overrides(tmp_path):
    rc = cli(["run", "--scenario", "example2", "--resolution", "0.1",
              "--final-time", "2", "--set", "s0=0.1", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "example2" / "manifest.json").read_text())
    assert manifest["config"]["params"]["s0"] == pytest.approx(0.1)
    assert manifest["config"]["T"] == 2.0


def test_cli_run_single_sensitivity_case(tmp_path, monkeypatch):
    monkeypatch.setenv("SB_THREADS", "1")
    rc = cli(["run", "--scenario", "sensitivity:D", "--resolution", "0.1",
              "--final-time", "2", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "D" / "manifest.json").exists()
    assert not (tmp_path / "C").exists()


def test_cli_runtime_error_exit_code(tmp_path):
    # fracture resolution too coarse -> runtime failure, exit 2
    rc = cli(["run", "--scenario", "example2", "--resolution", "2.0", "--out", str(tmp_path)])
    assert rc == 2


def test_cli_diag_energy(capsys):
    rc = cli(["diag", "--energy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "energy residual" in out
