"""Command line front end.

Subcommands:
  converge   manufactured-solution refinement study (CSV table)
  run        reservoir scenarios (example2 | example3 | sensitivity[:X])
  mesh       generate and write meshes
  diag       numerical diagnostics (inf-sup constant, energy identity)

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stokesbiot", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("converge", help="run a refinement study")
    c.add_argument("--elements", choices=["low", "high"], required=True)
    c.add_argument("--levels", type=int, default=4)
    c.add_argument("--matching", choices=["yes", "no"], default="yes")
    c.add_argument("--n0", type=int, default=8, help="coarsest cells per unit length")
    c.add_argument("--out", default=".")

    r = sub.add_parser("run", help="run a reservoir scenario")
    r.add_argument("--scenario", required=True,
                   help="example2 | example3 | sensitivity | sensitivity:A..D")
    r.add_argument("--set", dest="sets", action="append", default=[],
                   metavar="KEY=VALUE", help="override a configuration value")
    r.add_argument("--config", default=None, help="configuration file")
    r.add_argument("--resolution", type=float, default=0.04)
    r.add_argument("--final-time", type=float, default=None)
    r.add_argument("--out", default=".")

    m = sub.add_parser("mesh", help="generate meshes")
    m.add_argument("--make", choices=["rect", "fracture"], required=True)
    m.add_argument("--nx", type=int, default=8)
    m.add_argument("--ny", type=int, default=8)
    m.add_argument("--rect", default="0,1,0,1", help="x0,x1,y0,y1")
    m.add_argument("--subdomain", default="fluid")
    m.add_argument("--resolution", type=float, default=0.05)
    m.add_argument("--out", required=True, help="output path (prefix for fracture)")

    d = sub.add_parser("diag", help="numerical diagnostics")
    d.add_argument("--infsup", action="store_true")
    d.add_argument("--energy", action="store_true")
    d.add_argument("--out", default=".")
    return p


def _cmd_converge(args) -> int:
    from .verify import HIGH_ORDER, LOW_ORDER, convergence_study
    from .vtkio import convergence_csv, write_manifest

    elements = LOW_ORDER if args.elements == "low" else HIGH_ORDER
    matching = args.matching == "yes"
    table = convergence_study(elements, args.levels, matching=matching, n0=args.n0, verbose=True)
    csv = convergence_csv(table)
    os.makedirs(args.out, exist_ok=True)
    name = f"convergence_{args.elements}_{'matching' if matching else 'nonmatching'}"
    path = os.path.join(args.out, name + ".csv")
    with open(path, "w") as f:
        f.write(csv)
    write_manifest(os.path.join(args.out, name + "_manifest.json"), {
        "command": "converge", "elements": args.elements, "levels": args.levels,
        "matching": matching, "n0": args.n0, "csv": path,
    })
    print(csv, end="")
    print(f"wrote {path}")
    return 0


def _cmd_run(args) -> int:
    from .config import apply_overrides, parse_config, parse_set_pairs
    from .scenarios import (example2_config, example3_config, run_scenario,
                            run_sensitivity, synthetic_spe_standin, write_raster)
    from .vtkio import write_manifest

    sets = parse_set_pairs(args.sets)
    sections = parse_config(args.config) if args.config else {}
    os.makedirs(args.out, exist_ok=True)

    name = args.scenario.lower()
    if name.startswith("sensitivity"):
        cases = ("A", "B", "C", "D")
        if ":" in name:
            case = name.split(":", 1)[1].upper()
            if case not in {"A", "B", "C", "D"}:
                raise SystemExit(f"unknown sensitivity case {case!r}")
            cases = (case,)
        results = run_sensitivity(cases, resolution=args.resolution,
                                  outdir=args.out, T=args.final_time)
        for c, summary in sorted(results.items()):
            print(f"case {c}: near-fracture mean p_p = {summary['near_fracture_mean_pp']:.4g} KPa, "
                  f"max |eta| = {summary['max_displacement']:.4g} m")
        write_manifest(os.path.join(args.out, "sensitivity_summary.json"), results)
        return 0

    if name == "example2":
        config = example2_config(resolution=args.resolution)
    elif name == "example3":
        poro = os.path.join(args.out, "porosity.raster")
        perm = os.path.join(args.out, "permeability.raster")
        if not (os.path.exists(poro) and os.path.exists(perm)):
            pf, kf = synthetic_spe_standin()
            write_raster(pf, poro)
            write_raster(kf, perm)
            print(f"wrote synthetic field data: {poro}, {perm}")
        config = example3_config(porosity_raster=poro, permeability_raster=perm,
                                 resolution=args.resolution)
    else:
        raise SystemExit(f"unknown scenario {args.scenario!r}")

    config = apply_overrides(config, sections, sets)
    if args.final_time is not None:
        from dataclasses import replace
        config = replace(config, T=args.final_time)
    summary = run_scenario(config, outdir=os.path.join(args.out, name))
    for k, v in sorted(summary.items()):
        print(f"{k}: {v}")
    return 0


def _cmd_mesh(args) -> int:
    from .mesh import build_fracture_domain, build_structured, write_mesh

    if args.make == "rect":
        rect = tuple(float(v) for v in args.rect.split(","))
        if len(rect) != 4:
            raise SystemExit("--rect expects x0,x1,y0,y1")
        mesh = build_structured(rect, args.nx, args.ny, args.subdomain,
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
            bs = inf_sup_estimate(example1_system(n, LOW_ORDER, factorize=False))
            bu = inf_sup_estimate(example1_system(n, UNSTABLE_CONTROL, factorize=False))
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
