"""Stokes-Biot benchmark: fixed workloads, end-to-end times, per-layer spans.

    python3 perfbench/run.py --workload example2 --seed 1 --seconds 10 --trace 0

Runs one workload through the public API of the ``stokesbiot`` package found
in the checkout's ``src/``, checks every pass for correctness, prints a table
and, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats whole passes until ``--seconds`` have passed (at least
one) and reports the ``end_to_end`` metrics of ``BENCHMARK.json`` as medians
over the passes that passed the correctness gate.  ``--trace 1`` runs one
untraced pass and then one pass with spans around every call into the
package's modules (``spans.py``) and reports the ``per_layer`` metrics;
the difference between the two passes is ``trace.overhead_s``.

``--workload all`` runs every workload, untraced and then traced, each in a
fresh process, in an order permuted by the seed, and prints both tables.

The workloads are fixed configurations: the seed is recorded and, under
``all``, permutes the workload order.  Each run pins the BLAS thread pools to
one thread and writes its outputs, spans and facts under ``.bench_out/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = str(ROOT / ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SETUP_SAMPLES = 3
POST_SAMPLES = 5     # per pass, where a workload can repeat its post-processing


def prepare() -> None:
    """Pin BLAS threads and import the package from the checkout, or exit 2."""
    for var in THREAD_VARS:
        os.environ[var] = "1"      # must precede the first numpy import
    if not (SRC / "stokesbiot" / "__init__.py").is_file():
        print(f"run.py: no stokesbiot package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_facts(args, attempted: int) -> dict:
    import numpy
    import scipy
    import stokesbiot

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": attempted,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "commit": git_commit(), "package": stokesbiot.__file__,
    }


# ---------------------------------------------------------------------------
# one workload


def timed_passes(wl, name, reference, outdir, seconds, post_samples=1):
    """As many whole passes as fit in ``seconds`` (at least one).

    A further pass starts only if the last one, repeated, would end within
    ``seconds``.  Returns the passes that passed the correctness gate, the
    number attempted, the problems found and the peak memory after the first
    pass.
    """
    import workloads

    good, problems, attempted = [], [], 0
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        attempted += 1
        try:
            p = wl.run_pass(workloads.fresh_dir(outdir), post_samples)
            found = workloads.check(wl, name, p, reference)
        except Exception:     # a failed pass is counted, the run goes on
            found = [traceback.format_exc()]
        if attempted == 1:    # peak memory of the fresh process, one pass
            first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if found:
            problems.append("; ".join(found))
        else:
            good.append(p)
        now = time.perf_counter()
        if (now - t_start) + (now - t_pass) > seconds:
            break
    return good, attempted, problems, first_pass_rss_mb


def end_to_end(wl, passes, seconds, peak_rss_mb) -> tuple[dict, dict]:
    setups = [p.setup_s for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES and sum(setups) < seconds / 2:
        setups.append(wl.setup_sample())
    steps = [t for p in passes for t in p.step_s]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(setups),
        "step_ms": 1e3 * statistics.median(steps),
        "post_s": statistics.median(t for p in passes for t in p.post_s),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"wall_s": [p.wall_s for p in passes], "setup_s": setups,
               "post_s": [p.post_s for p in passes], "steps": len(steps)}
    return metrics, samples


ASSEMBLY_BLOCKS = ("stokes_viscous", "elasticity", "darcy_mass", "divergence", "bjs", "bgamma")


def per_layer(tracer, untraced, traced, out_bytes) -> dict:
    t = tracer.self_time
    c = tracer.counts
    steps = c["step_calls"]
    big = tracer.largest_system()
    metrics = {
        "mesh.build_s": t("mesh.build"),
        "mesh.cells": c["cells"],
        "interface.common_refinement_s": t("interface.common_refinement"),
        "interface.segment_quadrature_s": t("interface.segment_quadrature"),
        "interface.segments": c["segments"],
        "spaces.make_space_s": t("spaces.make_space"),
        "spaces.project_s": t("spaces.project"),
        "spaces.dofs": c["dofs"],
        "assembly.blocks_s": t(*(f"assembly.{b}" for b in ASSEMBLY_BLOCKS + ("pressure_mass",))),
        "assembly.loads_ms": 1e3 * t("assembly.loads") / steps,
        "assembly.load_calls": c["load_calls"],
        "assembly.nnz_M": big["nnz_M"],
        "solver.unknowns": big["unknowns"],
        "solver.system_self_s": t("solver.system"),
        "solver.constraints_s": t("solver.constraints"),
        "solver.factor_s": t("solver.factor"),
        "solver.factor_calls": c["factor_calls"],
        "solver.nnz_Mff": big["nnz_Mff"],
        "solver.lu_fill": big["lu_fill"],
        "solver.init_s": t("solver.init"),
        "solver.solve_ms": 1e3 * t("solver.solve") / c["solve_calls"],
        "solver.solve_calls": c["solve_calls"],
        "solver.step_self_ms": 1e3 * t("solver.step") / steps,
        "solver.step_calls": steps,
        "verify.diagnostics_ms": 1e3 * t("verify.diagnostics") / steps,
        "verify.max_constraint_residual": traced.max_constraint_residual,
        "verify.max_energy_residual": traced.max_energy_residual,
        "case.build_s": t("case.build"),
        "case.analysis_s": t("case.analysis"),
        "vtkio.write_s": t("vtkio.write"),
        "vtkio.bytes": out_bytes,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.wrapper_s": tracer.wrapper_cost_s() * len(tracer.spans),
        "trace.uncovered_share": 1.0 - tracer.covered_s() / traced.wall_s,
        "trace.spans": len(tracer.spans),
    }
    metrics.update({f"assembly.{b}_s": t(f"assembly.{b}") for b in ASSEMBLY_BLOCKS})
    return metrics


def run_one(args) -> int:
    import spans
    import workloads

    units = metric_specs()[str(args.trace)]
    reference = workloads.load_reference()
    wl = workloads.WORKLOADS[args.workload]()
    outdir = os.path.join(OUT_DIR, "output", args.workload)
    record, metrics = {}, {}
    if args.trace == 0:
        passes, attempted, problems, rss = timed_passes(wl, args.workload, reference, outdir,
                                                        args.seconds, POST_SAMPLES)
        if passes:
            metrics, record["samples"] = end_to_end(wl, passes, args.seconds, rss)
    else:
        passes, attempted, problems, _ = timed_passes(wl, args.workload, reference, outdir, 0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, n, found, _ = timed_passes(wl, args.workload, reference, outdir, 0)
        finally:
            tracer.uninstall()
        attempted += n
        problems += found
        if passes and traced:
            metrics = per_layer(tracer, passes[0], traced[0], workloads.dir_bytes(outdir))
            record["spans"] = os.path.join(OUT_DIR, "traces",
                                           f"{args.workload}-seed{args.seed}.json")
            os.makedirs(os.path.dirname(record["spans"]), exist_ok=True)
            with open(record["spans"], "w") as f:
                json.dump(tracer.dump(), f)
    failed = len(problems)
    for p in problems:
        print(f"correctness gate failed: {p}", file=sys.stderr)
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    facts = run_facts(args, attempted)
    print(f"workload {args.workload}  trace {args.trace}  passes {attempted}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print("facts " + json.dumps(facts, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record.update(facts=facts, result=result, problems=problems)
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-trace{args.trace}-seed{args.seed}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    import workloads

    names = sorted(workloads.WORKLOADS)
    random.Random(args.seed).shuffle(names)
    tables, ok = {}, True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            ok &= proc.returncode == 0
            tables[name, trace] = result
    units = metric_specs()
    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced run)")):
        print(f"{title} metrics, seed {args.seed}, order {names}")
        print(f"  {'metric':34s}" + "".join(f"{n:>18s}" for n in names) + "  unit")
        for metric, unit in units[str(trace)].items():
            cells = []
            for n in names:
                res = tables[n, trace]
                value = res["metrics"].get(metric, {}).get("value") if res else None
                cells.append(f"{value:>18.6g}" if value is not None else f"{'-':>18s}")
            print(f"  {metric:34s}" + "".join(cells) + f"  {unit}")
        print("  " + f"{'failures':34s}" + "".join(
            f"{(str(r['failed']) + '/' + str(r['attempted'])) if r else 'crashed':>18s}"
            for r in (tables[n, trace] for n in names)))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Stokes-Biot benchmark")
    ap.add_argument("--workload", required=True,
                    help="example2, converge-low-nm, converge-high or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    prepare()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
