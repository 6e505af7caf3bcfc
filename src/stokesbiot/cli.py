"""Command line front end.

Subcommands:
  converge   manufactured-solution refinement study (CSV table, manifest)
  run        reservoir scenarios (example2 | example3 | sensitivity[:X])
  mesh       generate and write meshes
  diag       numerical diagnostics (inf-sup constant, energy identity)

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import ConfigError, parse_set_pairs


def _positive(kind):
    """argparse type: a finite number of ``kind`` greater than zero."""
    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"{text!r} is not a positive {kind.__name__}")
        return value
    return convert


def _config_flag(flag, key):
    """argparse type of a ``run`` flag that stands for ``--set key=``: the
    ``(source, "key=text")`` pair of ``config.split_pair``, checked here."""
    def convert(text):
        pair = (f"{flag} {text}", f"{key}={text}")
        try:
            parse_set_pairs([pair])
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return pair
    return convert


def _rect(text):
    """argparse type of ``--rect``: finite x0,x1,y0,y1 with x0 < x1 and y0 < y1."""
    try:
        x0, x1, y0, y1 = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not four numbers x0,x1,y0,y1") from None
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0) and x0 < x1 and y0 < y1):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rectangle with x0 < x1 and y0 < y1")
    return x0, x1, y0, y1


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stokesbiot", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("converge", help="run a refinement study")
    c.add_argument("--elements", choices=["low", "high"], required=True)
    c.add_argument("--levels", type=_positive(int), default=4)
    c.add_argument("--matching", choices=["yes", "no"], default="yes")
    c.add_argument("--n0", type=_positive(int), default=8, help="coarsest cells per unit length")
    c.add_argument("--out", default=".")

    r = sub.add_parser("run", help="run a reservoir scenario")
    r.add_argument("--scenario", required=True,
                   help="example2 | example3 | sensitivity | sensitivity:A..D")
    r.add_argument("--set", dest="sets", action="append", default=[],
                   metavar="KEY=VALUE", help="override a configuration value")
    r.add_argument("--config", default=None, help="configuration file")
    r.add_argument("--resolution", dest="sets", action="append", metavar="RESOLUTION",
                   type=_config_flag("--resolution", "resolution"), help="same as --set resolution=RESOLUTION (default 0.04)")
    r.add_argument("--final-time", dest="sets", action="append", metavar="T",
                   type=_config_flag("--final-time", "t"), help="same as --set t=T")
    r.add_argument("--out", default=".")

    m = sub.add_parser("mesh", help="generate meshes")
    m.add_argument("--make", choices=["rect", "fracture"], required=True)
    m.add_argument("--nx", type=_positive(int), default=8)
    m.add_argument("--ny", type=_positive(int), default=8)
    m.add_argument("--rect", type=_rect, default="0,1,0,1", help="x0,x1,y0,y1")
    m.add_argument("--subdomain", default="fluid")
    m.add_argument("--resolution", type=_positive(float), default=0.05)
    m.add_argument("--out", required=True, help="output path (prefix for fracture)")

    d = sub.add_parser("diag", help="numerical diagnostics")
    d.add_argument("--infsup", action="store_true")
    d.add_argument("--energy", action="store_true")
    return p


def _cmd_converge(args) -> int:
    from .verify import HIGH_ORDER, LOW_ORDER, convergence_study
    from .vtkio import convergence_csv, write_manifest, write_output

    elements = LOW_ORDER if args.elements == "low" else HIGH_ORDER
    matching = args.matching == "yes"
    table = convergence_study(elements, args.levels, matching=matching, n0=args.n0, verbose=True)
    csv = convergence_csv(table)
    os.makedirs(args.out, exist_ok=True)
    name = f"convergence_{args.elements}_{'matching' if matching else 'nonmatching'}"
    path = os.path.join(args.out, name + ".csv")
    write_output(path, csv)
    rows = [{"h": r.h, "dof_counts": r.dof_counts, "rel_errors": r.rel_errors,
             "abs_errors": r.abs_errors} for r in table.rows]
    rates = {k: [r if math.isfinite(r) else None for r in v] for k, v in table.rates().items()}
    write_manifest(os.path.join(args.out, name + "_manifest.json"), {
        "command": "converge", "elements": args.elements, "levels": args.levels,
        "matching": matching, "n0": args.n0, "csv": path, "rows": rows, "rates": rates,
    })
    print(csv, end="")
    print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    from .config import apply_overrides, parse_config, split_pair
    from .mesh import fracture_samples
    from .scenarios import (ScenarioConfig, example2_config, example3_config, run_scenario,
                            run_sensitivity, sensitivity_configs, sweep_threads,
                            synthetic_spe_standin, write_raster)
    from .solver import step_count
    from .vtkio import write_manifest

    sets = parse_set_pairs(args.sets)
    sections = parse_config(args.config) if args.config else {}
    resolution = sets.get("resolution", ScenarioConfig.resolution)

    name = args.scenario.lower()
    poro = os.path.join(args.out, "porosity.raster")
    perm = os.path.join(args.out, "permeability.raster")
    if name.startswith("sensitivity"):
        cases = ("A", "B", "C", "D")
        if ":" in name:
            case = name.split(":", 1)[1].upper()
            if case not in {"A", "B", "C", "D"}:
                raise SystemExit(f"unknown sensitivity case {case!r}")
            cases = (case,)
        configs = {c: cfg for c, cfg in sensitivity_configs(resolution).items() if c in cases}
    elif name == "example2":
        configs = {name: example2_config(resolution=resolution)}
    elif name == "example3":
        configs = {name: example3_config(porosity_raster=poro, permeability_raster=perm,
                                         resolution=resolution)}
    else:
        raise SystemExit(f"unknown scenario {args.scenario!r}")
    configs = {c: apply_overrides(config, sections, sets) for c, config in configs.items()}
    for config in configs.values():    # before anything is written
        config.params.validate()
        try:
            step_count(config.T, config.tau)
        except ValueError as exc:
            given = [src for src, key, _ in map(split_pair, args.sets) if key in ("t", "tau")]
            given += [f"{args.config}: [time] {key} = {value!r}"
                      for key, value in sections.get("time", {}).items() if key not in sets]
            raise SystemExit(f"{' and '.join(given)}: {exc}") from None
        fracture_samples(config.resolution)

    if name.startswith("sensitivity"):
        results = run_sensitivity(configs, outdir=args.out)
        for c, summary in sorted(results.items()):
            print(f"case {c}: near-fracture mean p_p = {summary['near_fracture_mean_pp']:.4g} KPa, "
                  f"max |eta| = {summary['max_displacement']:.4g} m")
        write_manifest(os.path.join(args.out, "sensitivity_summary.json"),
                       {**results, "threads": sweep_threads(len(configs))})
        return 0

    if name == "example3" and not (os.path.exists(poro) and os.path.exists(perm)):
        os.makedirs(args.out, exist_ok=True)
        pf, kf = synthetic_spe_standin()
        write_raster(pf, poro)
        write_raster(kf, perm)
        print(f"wrote synthetic field data: {poro}, {perm}")
    summary = run_scenario(configs[name], outdir=os.path.join(args.out, name))
    for k, v in sorted(summary.items()):
        print(f"{k}: {v}")
    return 0


def _cmd_mesh(args) -> int:
    from .mesh import build_fracture_domain, build_structured, write_mesh

    if args.make == "rect":
        mesh = build_structured(args.rect, args.nx, args.ny, args.subdomain,
                                {"left": "left", "right": "right", "bottom": "bottom", "top": "top"})
        write_mesh(mesh, args.out)
        print(f"wrote {args.out}: {mesh.n_nodes} nodes, {mesh.n_tris} triangles")
    else:
        fluid, poro = build_fracture_domain(args.resolution)
        for mesh, suffix in ((fluid, "fluid"), (poro, "poro")):
            path = f"{args.out}_{suffix}.mesh"
            write_mesh(mesh, path)
            print(f"wrote {path}: {mesh.n_nodes} nodes, {mesh.n_tris} triangles")
    return 0


def _cmd_diag(args) -> int:
    if not (args.infsup or args.energy):
        raise SystemExit("choose --infsup and/or --energy")
    if args.infsup:
        from .verify import LOW_ORDER, UNSTABLE_CONTROL, example1_system, inf_sup_estimate
        print("inf-sup constants (stable low-order pairing vs unstable P1-P1 control):")
        for n in (4, 8, 16):
            bs = inf_sup_estimate(example1_system(n, LOW_ORDER))
            bu = inf_sup_estimate(example1_system(n, UNSTABLE_CONTROL))
            print(f"  h=1/{n:2d}: stable beta_h = {bs:.4f}   control beta_h = {bu:.2e}")
    if args.energy:
        from .manufactured import example1_solution
        from .verify import LOW_ORDER, example1_system, run_example1
        ms = example1_solution()
        system = example1_system(16, LOW_ORDER)
        _, diags = run_example1(system, ms, collect_diagnostics=True)
        print("per-step diagnostics (h=1/16):")
        for d in diags:
            print(f"  n={d['n']:2d} t={d['t']:.3f}: constraint residual {d['constraint_residual']:.2e}, "
                  f"energy residual {d['energy_residual']:.2e}")
    return 0


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "converge":
            return _cmd_converge(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "mesh":
            return _cmd_mesh(args)
        if args.command == "diag":
            return _cmd_diag(args)
        return 1
    except (SystemExit, ConfigError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
