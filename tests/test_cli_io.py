import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stokesbiot.cli import cli
from stokesbiot.config import _SCHEMA, ConfigError, parse_config, parse_set_pairs
from stokesbiot.mesh import Mesh2D, build_structured
from stokesbiot.verify import NORM_KEYS
from stokesbiot.scenarios import build_scenario_system, example2_config
from stokesbiot.vtkio import CSV_HEADER, convergence_csv, scenario_fields, write_manifest, write_vtk

from helpers import read_mesh_file, read_vtk_points, write_vtk_per_value

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


@pytest.mark.parametrize("shape", [(3, 4), (3, 1), (3, 2, 2)])
def test_vtk_rejects_a_field_of_another_shape(tmp_path, shape):
    path = tmp_path / "x.vtk"
    with pytest.raises(ValueError, match=r"'velocity' has shape"):
        write_vtk(path, tiny_mesh(), point_data={"p": np.zeros(3), "velocity": np.zeros(shape)})
    assert not path.exists()


def test_vtk_matches_the_per_value_writer(tmp_path):
    special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e-300, 0.1]
    mesh = Mesh2D(nodes=np.array([[-0.0, 0.0], [1e300, 5e-324], [0.1, 1.0], [1.0, 1.0]]),
                  tris=np.array([[0, 1, 2], [1, 3, 2]]),
                  tri_tags=np.array(["fluid", "fluid"]),
                  bedges=np.array([[0, 1], [1, 3], [3, 2], [2, 0]]),
                  bedge_tags=np.array(["a", "b", "c", "d"]))
    point = {"s": special[:4], "v2": np.reshape(special, (4, 2)),
             "v3": np.reshape(special[:3] * 4, (4, 3)), "n": np.arange(4)}
    cell = {"k": special[4:6], "w": np.reshape(special[2:8], (2, 3))}
    for point_data, cell_data in ((point, cell), (point, None), (None, cell), (None, None)):
        write_vtk(tmp_path / "bulk.vtk", mesh, point_data=point_data, cell_data=cell_data)
        write_vtk_per_value(tmp_path / "ref.vtk", mesh, point_data=point_data, cell_data=cell_data)
        assert (tmp_path / "bulk.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()


def test_example2_snapshots_match_the_per_value_writer(tmp_path):
    system = build_scenario_system(example2_config(resolution=0.7))
    state0 = system.initial_state(pp0=lambda p: np.full(len(p), 1000.0),
                                  eta0=lambda p: np.zeros((len(p), 2)))
    for state in (state0, system.step(state0)):
        for fields, mesh in zip(scenario_fields(system, state),
                                (system.spaces["uf"].mesh, system.spaces["pp"].mesh)):
            write_vtk(tmp_path / "bulk.vtk", mesh, fields["point"], fields["cell"])
            write_vtk_per_value(tmp_path / "ref.vtk", mesh, fields["point"], fields["cell"])
            assert (tmp_path / "bulk.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()


def test_vtk_formats_the_geometry_once_per_mesh(tmp_path):
    mesh, path = tiny_mesh(), tmp_path / "x.vtk"
    data = {"p": np.array([0.1, 0.2, 0.3])}
    write_vtk(path, mesh, point_data=data)
    first = path.read_text()
    geometry = mesh._cache["vtk_geometry"]
    assert first.startswith(geometry) and geometry.endswith("CELL_TYPES 1\n5\n")
    mesh._cache["vtk_geometry"] = "cached\n"
    write_vtk(path, mesh, point_data=data)
    assert path.read_text() == "cached\n" + first[len(geometry):]


def test_outputs_are_rewritten_to_exactly_the_new_bytes(tmp_path):
    mesh = tiny_mesh()
    writers = {"x.vtk": lambda path: write_vtk(path, mesh, point_data={"p": np.zeros(3)}),
               "x.json": lambda path: write_manifest(path, {"a": [1.5, None]})}
    for name, write in writers.items():
        write(tmp_path / f"fresh_{name}")
        new = (tmp_path / f"fresh_{name}").read_bytes()
        (tmp_path / name).write_bytes(b"old " * len(new))
        write(tmp_path / name)
        assert (tmp_path / name).read_bytes() == new, name


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


@pytest.mark.parametrize("pairs", [["nu=0"], ["s0=0.5", "nu=0"]])
def test_set_pair_error_names_the_pair(pairs):
    # a --set pair is not a file line
    with pytest.raises(ConfigError) as err:
        parse_set_pairs(pairs)
    assert str(err.value) == "--set nu=0: outside (0, 0.5)"
    assert err.value.line is None


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


def test_cli_nu_zero_is_usage_error(tmp_path, capsys):
    # nu = 0 gives lam_p = 0, which the Lame coefficients may not be
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[params]\nnu = 0\n")
    out = tmp_path / "out"
    for extra in (["--set", "nu=0"], ["--config", str(cfg)]):
        rc = cli(["run", "--scenario", "example2", "--resolution", "0.2", "--final-time", "1",
                  "--out", str(out)] + extra)
        assert rc == 1
        assert "nu" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("pair", ["k=1e-300", "kxx=1e-300", "kyy=1e-300", "k=1e300"])
def test_cli_permeability_singular_in_double_is_usage_error(tmp_path, capsys, pair):
    # det K under- or overflows, so K^-1 = adj(K) / det K cannot be formed
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli(["run", "--scenario", "example2", "--resolution", "0.2", "--final-time", "1",
                  "--set", pair, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "k, kxx, kyy" in err and "singular" in err
    assert not out.exists()


@pytest.mark.parametrize("pair", ["kxx=1e-200", "kyy=1e200"])
def test_cli_permeability_too_anisotropic_is_usage_error(tmp_path, capsys, pair):
    # det K is a normal double, but the step solve cannot take K's eigenvalue
    # spread (kxx=1e-200 left a scaled residual of 1.46e+01 after refinement)
    out = tmp_path / "out"
    rc = cli(["run", "--scenario", "example2", "--resolution", "0.2", "--final-time", "1",
              "--set", pair, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "k, kxx, kyy" in err and "eigenvalue ratio" in err
    assert not out.exists()


def test_permeability_ratio_bound_keeps_measured_runs():
    from stokesbiot.assembly import PERMEABILITY_RATIO_LIMIT, PhysicalParams

    # example2 at resolution 0.2 ran with kxx = 7.5e5 against kyy = 5e-11
    PhysicalParams(K=np.diag([7.5e5, 5e-11])).validate()
    with pytest.raises(ConfigError, match="eigenvalue ratio"):
        PhysicalParams(K=np.diag([1.0, 0.9 / PERMEABILITY_RATIO_LIMIT])).validate()


def test_cli_non_finite_block_is_usage_error(tmp_path, capsys):
    # mu K^-1 overflows in the Darcy mass block: named with its parameters,
    # and without a numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli(["run", "--scenario", "example2", "--resolution", "0.2", "--final-time", "1",
                  "--set", "mu=1e300", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "block Ap" in err and "mu" in err and "Warning" not in err


def test_cli_non_finite_step_operator_is_usage_error(tmp_path, capsys):
    # 1 / tau overflows, so E / tau cannot be formed: named with its
    # parameters before anything is written, and without a numpy warning
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli(["run", "--scenario", "example2", "--resolution", "0.7", "--set", "tau=1e-310",
                  "--final-time", "1e-310", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "E / tau" in err and "tau and s0" in err and "Warning" not in err
    assert not out.exists()


def test_cli_overflowing_step_right_hand_side_is_usage_error(tmp_path, capsys):
    # E / tau is finite, but s0 E X / tau overflows in the first step's
    # right-hand side: named with its parameters, before anything is written
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli(["run", "--scenario", "example2", "--resolution", "0.7", "--set", "s0=1e308",
                  "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "E X / tau" in err and "tau, s0" in err and "Warning" not in err
    assert not out.exists()


def test_cli_output_dir_is_unknown_key(tmp_path, capsys, monkeypatch):
    import stokesbiot.scenarios

    def no_run(*args, **kwargs):
        raise AssertionError("no scenario may run")

    monkeypatch.setattr(stokesbiot.scenarios, "run_scenario", no_run)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[output]\ndir = elsewhere\n")
    for extra in (["--config", str(cfg)], ["--set", "dir=elsewhere"]):
        rc = cli(["run", "--scenario", "example2", "--out", str(tmp_path)] + extra)
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown" in err and "'dir'" in err


@pytest.mark.parametrize("argv,first,second", [
    (["--resolution", "0.2", "--final-time", "1", "--set", "t=2.5"], "--final-time 1", "--set t=2.5"),
    (["--set", "mu=1", "--set", "mu=2"], "--set mu=1", "--set mu=2"),
    (["--resolution", "0.2", "--set", "resolution=0.3"], "--resolution 0.2", "--set resolution=0.3"),
    (["--set", "t=5", "--final-time", "5"], "--set t=5", "--final-time 5"),
    (["--resolution", "0.2", "--resolution", "0.3"], "--resolution 0.2", "--resolution 0.3"),
], ids=["final-time-and-set-t", "set-twice", "resolution-and-set", "equal-values", "flag-twice"])
def test_cli_value_given_twice_is_usage_error(tmp_path, capsys, monkeypatch, argv, first, second):
    # the first of the two used to be dropped without a word
    import stokesbiot.scenarios

    def no_build(*args, **kwargs):
        raise AssertionError("no scenario may be built")

    monkeypatch.setattr(stokesbiot.scenarios, "build_scenario_system", no_build)
    out = tmp_path / "out"
    rc = cli(["run", "--scenario", "example2", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert first in err and second in err
    assert not out.exists()


def test_set_pairs_reject_a_key_given_twice():
    with pytest.raises(ConfigError, match=r"^--set mu=2: 'mu' is already given by --set mu=1$"):
        parse_set_pairs(["mu=1", "s0=0.5", "mu=2"])


@pytest.mark.parametrize("argv,config,source", [
    (["--set", "t=1.5"], None, "--set t=1.5"),
    (["--set", "tau=0.7"], None, "--set tau=0.7"),
    (["--final-time", "2", "--set", "tau=0.3"], None, "--final-time 2 and --set tau=0.3"),
    # a config file's key is named with the file, unless the command line overrides it
    pytest.param([], "[time]\nt = 1.5\n", "{cfg}: [time] t = 1.5", id="config-file-t"),
    pytest.param(["--final-time", "2"], "[time]\ntau = 0.7\n", "--final-time 2 and {cfg}: [time] tau = 0.7",
                 id="config-file-tau-and-flag"),
    pytest.param(["--set", "t=2.5"], "[time]\nt = 1.5\ntau = 2\n", "--set t=2.5 and {cfg}: [time] tau = 2.0",
                 id="config-file-t-overridden"),
])
def test_cli_step_count_error_names_its_source(tmp_path, capsys, argv, config, source):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    if config is not None:
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    rc = cli(["run", "--scenario", "example2", "--resolution", "0.2", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(source.format(cfg=cfg) + ": final time ")
    assert not out.exists()


_KEYS = {k: spec for keys in _SCHEMA.values() for k, spec in keys.items()}
_RANGED = {k: spec for k, spec in _KEYS.items() if spec[2]}


def _out_of_range(key):
    kind, check, _ = _RANGED[key]
    if kind == "int":
        return st.integers(max_value=-1).map(str)
    return st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not check(v)).map(repr)


def _in_range(key):
    kind, check, _ = _KEYS[key]
    if kind == "int":
        return st.integers(min_value=0, max_value=9).map(str)
    return st.floats(min_value=0.0, max_value=1.0, exclude_min=True).filter(check).map(repr)


BAD_SET_PAIRS = st.one_of(
    st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
    .filter(lambda k: k not in _KEYS).map(lambda k: [f"{k}=1"]),
    st.tuples(st.sampled_from(sorted(_KEYS)), st.text("bcdghjklmopqrsuvwxz,;", max_size=6))
    .map(lambda kv: ["=".join(kv)]),
    st.tuples(st.sampled_from(sorted(_KEYS)), st.sampled_from(["inf", "-inf", "nan", "1e999"]))
    .map(lambda kv: ["=".join(kv)]),
    st.sampled_from(sorted(_RANGED)).flatmap(lambda k: _out_of_range(k).map(lambda v: [f"{k}={v}"])),
    # a valid key given twice
    st.sampled_from(sorted(_KEYS)).flatmap(
        lambda k: st.lists(_in_range(k).map(lambda v: f"{k}={v}"), min_size=2, max_size=2)),
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pairs=BAD_SET_PAIRS)
def test_cli_bad_set_pair_property(tmp_path, capsys, pairs):
    # unknown keys, non-numbers, non-finite and out-of-range values, and a
    # key given twice, all fail in the parse: before the resolution of 2.0,
    # too coarse to mesh, is checked, and before anything is built
    out = tmp_path / "out"
    argv = ["run", "--scenario", "example2", "--resolution", "2.0", "--out", str(out)]
    rc = cli(argv + [a for pair in pairs for a in ("--set", pair)])
    err = capsys.readouterr().err
    assert rc == 1
    assert any(f"--set {pair}" in err for pair in pairs) and "Traceback" not in err
    assert not out.exists()


def test_cli_mesh_rect(tmp_path):
    out = tmp_path / "rect.mesh"
    assert cli(["mesh", "--make", "rect", "--nx", "4", "--ny", "3", "--out", str(out)]) == 0
    mesh = read_mesh_file(out)
    assert mesh.n_tris == 24


def test_cli_mesh_fracture(tmp_path):
    prefix = tmp_path / "frac"
    assert cli(["mesh", "--make", "fracture", "--resolution", "0.08", "--out", str(prefix)]) == 0
    fluid = read_mesh_file(f"{prefix}_fluid.mesh")
    poro = read_mesh_file(f"{prefix}_poro.mesh")
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
    text = (tmp_path / "convergence_low_matching_manifest.json").read_text()
    manifest = json.loads(text, parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))
    assert manifest["levels"] == 2
    rows = manifest["rows"]
    assert [r["h"] for r in rows] == [0.25, 0.125]
    for row, cells in zip(rows, lines[1:]):
        assert set(row) == {"h", "dof_counts", "rel_errors", "abs_errors"}
        assert set(row["rel_errors"]) == set(row["abs_errors"]) == set(NORM_KEYS)
        assert row["dof_counts"]["uf"] > 0
        # the CSV's relative errors (3 significant digits) are the manifest's
        assert float(cells.split(",")[1]) == pytest.approx(row["rel_errors"]["uf_l2H1"], rel=5e-3)
    assert rows[1]["dof_counts"]["uf"] > rows[0]["dof_counts"]["uf"]
    assert set(manifest["rates"]) == set(NORM_KEYS)
    for k, (rate,) in manifest["rates"].items():
        e0, e1 = rows[0]["rel_errors"][k], rows[1]["rel_errors"][k]
        assert rate == pytest.approx(math.log2(e0 / e1), rel=1e-12), k


def test_cli_converge_manifest_writes_nonfinite_rates_as_null(tmp_path, monkeypatch):
    import stokesbiot.verify
    from stokesbiot.verify import ConvergenceTable, ErrorReport

    def table(elements, levels, **kwargs):
        rows = [ErrorReport(h=1 / 4, dof_counts={"uf": 10}, abs_errors=dict.fromkeys(NORM_KEYS, 0.1),
                            rel_errors=dict.fromkeys(NORM_KEYS, 0.1)),
                ErrorReport(h=1 / 8, dof_counts={"uf": 40}, abs_errors=dict.fromkeys(NORM_KEYS, 0.0),
                            rel_errors=dict.fromkeys(NORM_KEYS, 0.0))]
        return ConvergenceTable(elements=elements, matching=True, rows=rows)

    monkeypatch.setattr(stokesbiot.verify, "convergence_study", table)
    assert cli(["converge", "--elements", "low", "--levels", "2", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "convergence_low_matching_manifest.json").read_text()
    manifest = json.loads(text, parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))
    assert manifest["rates"] == {k: [None] for k in NORM_KEYS}


def test_cli_converge_rewrites_its_outputs_in_place(tmp_path, monkeypatch, capsys):
    import stokesbiot.verify
    from stokesbiot.verify import ConvergenceTable, ErrorReport

    def table(elements, levels, **kwargs):
        rows = [ErrorReport(h=2.0 ** -k, dof_counts={"uf": 4 ** k}, abs_errors=dict.fromkeys(NORM_KEYS, 4.0 ** -k),
                            rel_errors=dict.fromkeys(NORM_KEYS, 2.0 ** -k)) for k in range(2, 2 + levels)]
        return ConvergenceTable(elements=elements, matching=True, rows=rows)

    monkeypatch.setattr(stokesbiot.verify, "convergence_study", table)
    argv = ["converge", "--elements", "low", "--out", str(tmp_path)]
    paths = [tmp_path / "convergence_low_matching.csv", tmp_path / "convergence_low_matching_manifest.json"]
    assert cli(argv + ["--levels", "2"]) == 0
    short = [p.read_bytes() for p in paths]
    assert cli(argv + ["--levels", "4"]) == 0
    assert all(len(p.read_bytes()) > len(b) for p, b in zip(paths, short))
    assert cli(argv + ["--levels", "2"]) == 0
    assert [p.read_bytes() for p in paths] == short


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


def test_cli_sensitivity_applies_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("SB_THREADS", "1")
    rc = cli(["run", "--scenario", "sensitivity:D", "--resolution", "0.1",
              "--final-time", "2", "--set", "s0=0.02", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "D" / "manifest.json").read_text())
    assert manifest["config"]["params"]["s0"] == pytest.approx(0.02)
    assert manifest["config"]["T"] == 2.0
    summary = json.loads((tmp_path / "sensitivity_summary.json").read_text())
    assert summary["threads"] == {
        "workers": 1,
        "env": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


@pytest.mark.parametrize("value", ["0", "-1", "x", ""])
def test_cli_bad_sb_threads_is_usage_error(tmp_path, capsys, monkeypatch, value):
    import concurrent.futures

    import stokesbiot.scenarios

    def no_run(*args, **kwargs):
        raise AssertionError("no case may run and no worker may start")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
    monkeypatch.setattr(stokesbiot.scenarios, "run_scenario", no_run)
    monkeypatch.setenv("SB_THREADS", value)
    rc = cli(["run", "--scenario", "sensitivity", "--out", str(tmp_path)])
    assert rc == 1
    assert "SB_THREADS" in capsys.readouterr().err


def _sensitivity_d_config(tmp_path, monkeypatch, sets):
    """The config ``run --scenario sensitivity:D --set ...`` hands to its run."""
    import stokesbiot.scenarios

    seen = []

    def capture(config, outdir=None):
        seen.append(config)
        return {"near_fracture_mean_pp": 0.0, "max_displacement": 0.0}

    monkeypatch.setenv("SB_THREADS", "1")
    monkeypatch.setattr(stokesbiot.scenarios, "run_scenario", capture)
    argv = ["run", "--scenario", "sensitivity:D", "--out", str(tmp_path)]
    for pair in sets:
        argv += ["--set", pair]
    assert cli(argv) == 0
    return seen[0]


@pytest.mark.parametrize("pair,E,nu", [("nu=0.2", 1e10, 0.2), ("nu=0.3", 1e10, 0.3),
                                        ("e=5e9", 5e9, 0.2)])
def test_cli_set_e_or_nu_keeps_the_other(tmp_path, monkeypatch, pair, E, nu):
    from stokesbiot.scenarios import lame_from_E_nu

    # case D has E = 1e10 and nu = 0.2
    params = _sensitivity_d_config(tmp_path, monkeypatch, [pair]).params
    lam, mu_p = lame_from_E_nu(E, nu)
    assert params.lam_p == pytest.approx(lam, rel=1e-12)
    assert params.mu_p == pytest.approx(mu_p, rel=1e-12)


def test_cli_set_kxx_edits_the_k_that_k_sets(tmp_path, monkeypatch):
    cfg = _sensitivity_d_config(tmp_path, monkeypatch, ["k=1e-10", "kxx=3e-10"])
    assert np.array_equal(np.asarray(cfg.params.K), np.diag([3e-10, 1e-10]))
    cfg = _sensitivity_d_config(tmp_path, monkeypatch, ["kyy=1e-10"])
    assert np.array_equal(np.asarray(cfg.params.K), np.diag([200e-12, 1e-10]))


@pytest.mark.parametrize("argv,flag", [
    (["run", "--scenario", "example2", "--resolution", "0.1", "--final-time", "-5"], "--final-time"),
    (["run", "--scenario", "example2", "--resolution", "-1"], "--resolution"),
    (["run", "--scenario", "example2", "--resolution", "nan"], "--resolution"),
    (["converge", "--elements", "low", "--levels", "0"], "--levels"),
    (["converge", "--elements", "low", "--n0", "0"], "--n0"),
    (["mesh", "--make", "rect", "--nx", "-2", "--out", "rect.mesh"], "--nx"),
    (["mesh", "--make", "fracture", "--resolution", "0", "--out", "frac"], "--resolution"),
])
def test_cli_non_positive_flag_is_usage_error(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert cli(argv) == 1
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_python_m_exit_codes(tmp_path):
    """``python -m stokesbiot`` exits 0 on success, 1 on a usage error and 2
    on a runtime failure."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cases = [
        (["mesh", "--make", "rect", "--nx", "2", "--ny", "2", "--out", "rect.mesh"], 0),
        (["converge", "--elements", "low", "--levels", "0"], 1),
        (["run", "--scenario", "example2", "--resolution", "2.0"], 1),
        (["mesh", "--make", "rect", "--out", os.path.join("missing", "rect.mesh")], 2),
    ]
    for argv, code in cases:
        proc = subprocess.run([sys.executable, "-m", "stokesbiot", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == code, (argv, proc.stderr)
    assert (tmp_path / "rect.mesh").exists()


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # a fracture resolution too coarse to mesh the lens is a usage error
    out = tmp_path / "out"
    rc = cli(["run", "--scenario", "example2", "--resolution", "2.0", "--out", str(out)])
    assert rc == 1
    assert "resolution 2.0 too coarse" in capsys.readouterr().err
    assert not out.exists()


def test_cli_malformed_raster_is_usage_error(tmp_path, capsys):
    from stokesbiot.scenarios import synthetic_spe_standin, write_raster

    poro, perm = tmp_path / "porosity.raster", tmp_path / "permeability.raster"
    for field, path in zip(synthetic_spe_standin(nx=6, ny=10), (poro, perm)):
        write_raster(field, path)
    lines = poro.read_text().split("\n")
    lines[3] = "zz " + lines[3]
    poro.write_text("\n".join(lines))
    rc = cli(["run", "--scenario", "example3", "--resolution", "0.2", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert str(poro) in err and "line 4" in err and "'zz'" in err


def test_cli_diag_energy(capsys):
    rc = cli(["diag", "--energy"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "energy residual" in out


@pytest.mark.parametrize("rect", ["0,1,x,1", "1,0,0,1", "0,1,1,1", "0,1,0", "0,inf,0,1"])
def test_cli_bad_rect_is_usage_error(tmp_path, capsys, monkeypatch, rect):
    monkeypatch.chdir(tmp_path)
    assert cli(["mesh", "--make", "rect", "--rect", rect, "--out", "rect.mesh"]) == 1
    assert "argument --rect:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scenario", ["example2", "sensitivity:C"])
def test_cli_final_time_off_the_step_grid_is_usage_error(tmp_path, capsys, scenario):
    out = tmp_path / "out"
    rc = cli(["run", "--scenario", scenario, "--final-time", "0.5", "--out", str(out)])
    assert rc == 1
    assert "--final-time" in capsys.readouterr().err
    assert not out.exists()


def test_cli_diag_has_no_out_flag(capsys):
    assert cli(["diag", "--infsup", "--out", "somewhere"]) == 1
    assert "unrecognized arguments: --out" in capsys.readouterr().err
