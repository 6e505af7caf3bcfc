"""Check that the benchmark's phase-split drivers run the same program.

For each workload, runs the library driver (``scenarios.run_scenario`` or
``verify.convergence_study``) and one phase-split pass from ``workloads.py``,
and requires bit-identical summaries, error norms, per-step diagnostics and
output files.  With ``--write-reference`` it also freezes the library
driver's results into ``reference.json``, the values the correctness gate of
``run.py`` compares against.

    python3 perfbench/equivalence.py [--workload NAME] [--write-reference]

Exits 1 if any workload differs.  Takes about twice the benchmark's
untraced pass time of each workload.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import sys

import run


def _differences(name: str, lib: dict, mine: dict, lib_dir: str, my_dir: str) -> list[str]:
    """Everything that is not bit-identical between the two drivers."""
    out = []
    if name == "example2":
        if lib["summary"] != mine["summary"]:
            out.append(f"summary differs:\n  library {lib['summary']}\n  phases  {mine['summary']}")
    else:
        a, b = lib["table"], mine["table"]
        for ra, rb in zip(a.rows, b.rows):
            if (ra.h, ra.dof_counts, ra.abs_errors, ra.rel_errors, ra.absolute_flag) != \
                    (rb.h, rb.dof_counts, rb.abs_errors, rb.rel_errors, rb.absolute_flag):
                out.append(f"h={ra.h}: error report differs")
        if len(a.rows) != len(b.rows):
            out.append("level count differs")
        if a.diagnostics != b.diagnostics:
            out.append("per-step diagnostics differ")
        if lib["csv"] != mine["csv"]:
            out.append("CSV text differs")
    common = sorted(set(os.listdir(lib_dir)) & set(os.listdir(my_dir)))
    _, mismatch, errors = filecmp.cmpfiles(lib_dir, my_dir, common, shallow=False)
    out += [f"output file {f} differs" for f in mismatch + errors]
    return out


def main(argv=None) -> int:
    run.prepare()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), action="append")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    reference = {} if not os.path.exists(workloads.REFERENCE_FILE) else workloads.load_reference()
    failed = False
    for name in names:
        wl = workloads.WORKLOADS[name]()
        lib_dir = workloads.fresh_dir(os.path.join(run.OUT_DIR, "equivalence", name, "library"))
        my_dir = workloads.fresh_dir(os.path.join(run.OUT_DIR, "equivalence", name, "phases"))
        lib = wl.library_run(lib_dir)
        mine = wl.run_pass(my_dir).result
        diffs = _differences(name, lib, mine, lib_dir, my_dir)
        print(f"{name}: {'bit-identical' if not diffs else 'DIFFERENT'}")
        for d in diffs:
            print("  " + d)
        failed |= bool(diffs)
        if args.write_reference:
            reference[name] = wl.reference_of(lib)
    if args.write_reference:
        with open(workloads.REFERENCE_FILE, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
