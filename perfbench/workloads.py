"""Phase-split drivers for the three benchmark workloads.

Each pass makes the calls of the library driver it mirrors
(``scenarios.run_scenario`` or ``verify.convergence_study``), in the same
order and with the same object lifetimes, and times the phases build ->
``initial_state`` -> step loop -> post-processing.  ``equivalence.py`` checks
that both drivers give bit-identical results.

Functions are looked up on their module at call time, so the wrappers of
``spans.Tracer`` see every call.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stokesbiot import manufactured, scenarios, verify, vtkio

CONSTRAINT_TOL = 1e-9      # acceptance criterion 4
ENERGY_TOL = 1e-8          # acceptance criterion 5
REFERENCE_RTOL = 1e-6
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class Pass:
    wall_s: float = 0.0
    setup_s: float = 0.0
    post_s: list = field(default_factory=list)     # one or more samples
    step_s: list = field(default_factory=list)   # step + diagnostics, largest system
    max_constraint_residual: float = 0.0
    max_energy_residual: float = 0.0
    result: dict = field(default_factory=dict)   # what the correctness gate checks


def _march(system, T, state0, output_stride, step_s, after_step=None):
    """``solver.run_transient`` with per-step diagnostics, timing each step.

    ``after_step(n, state, diagnostics)`` runs after each step, outside its
    timing.
    """
    tau = system.tau
    N = int(round(T / tau))
    if abs(N * tau - T) > 1e-12 * max(1.0, abs(T)):
        raise ValueError(f"final time {T} is not an integer number of steps of {tau}")
    states = [state0]
    diagnostics = []
    prev = state0
    for n in range(1, N + 1):
        t0 = time.perf_counter()
        cur = system.step(prev)
        diagnostics.append({
            "n": n,
            "t": cur.t,
            "constraint_residual": system.constraint_residual(cur, prev),
            "energy_residual": verify.energy_identity_residual(system, cur, prev),
        })
        step_s.append(time.perf_counter() - t0)
        if after_step is not None:
            after_step(n, cur, diagnostics)
        if (output_stride > 0 and n % output_stride == 0) or n == N:
            states.append(cur)
        prev = cur
    return states, diagnostics


def _rel_close(got, want) -> bool:
    return abs(got - want) <= REFERENCE_RTOL * abs(want)


class Example2:
    """Fracture-lens reservoir, one factorization reused for 300 steps."""

    def __init__(self, resolution: float = 0.05):
        self.config = scenarios.example2_config(resolution=resolution)

    def _setup(self):
        config = self.config
        system = scenarios.build_scenario_system(config)
        p0 = config.initial_pressure
        state0 = system.initial_state(pp0=lambda p: np.full(len(p), p0),
                                      eta0=lambda p: np.zeros((len(p), 2)),
                                      eta_dot0=None)
        return system, state0

    def setup_sample(self) -> float:
        t0 = time.perf_counter()
        self._setup()
        return time.perf_counter() - t0

    def _post(self, system, states, diagnostics, outdir):
        config = self.config
        summary = scenarios.scenario_summary(system, states[-1])
        summary["n_dofs"] = system.n_dofs
        summary["max_constraint_residual"] = max(d["constraint_residual"] for d in diagnostics)
        summary["max_energy_residual"] = max(d["energy_residual"] for d in diagnostics)
        os.makedirs(outdir, exist_ok=True)
        vtkio.write_scenario_snapshots(outdir, config.name.replace(":", "_"), system, states)
        vtkio.write_manifest(os.path.join(outdir, "manifest.json"),
                             {"config": config.resolved(), "summary": summary})
        return summary

    def run_pass(self, outdir: str, post_samples: int = 1) -> Pass:
        """One run; ``post_samples - 1`` extra post-processing samples are
        taken during the step loop, outside every other timing.

        Post-processing takes about 0.2 s here, so samples taken back to back
        all see the machine in one state; spread over the run they do not.
        """
        config = self.config
        out = Pass()
        extra = []
        n_steps = int(round(config.T / config.tau))
        marks = {round(n_steps * k / post_samples) for k in range(1, post_samples)}

        def sample_post(n, cur, diagnostics):
            if n in marks:
                t = time.perf_counter()
                self._post(system, [state0, cur], diagnostics, outdir)
                extra.append(time.perf_counter() - t)

        t0 = time.perf_counter()
        system, state0 = self._setup()
        t1 = time.perf_counter()
        states, diagnostics = _march(system, config.T, state0, config.output_stride,
                                     out.step_s, sample_post)
        t2 = time.perf_counter()
        summary = self._post(system, states, diagnostics, outdir)
        t3 = time.perf_counter()
        out.wall_s, out.setup_s = t3 - t0 - sum(extra), t1 - t0
        out.post_s = [t3 - t2] + extra
        out.max_constraint_residual = summary["max_constraint_residual"]
        out.max_energy_residual = summary["max_energy_residual"]
        out.result = {"summary": summary}
        return out

    def library_run(self, outdir: str) -> dict:
        return {"summary": scenarios.run_scenario(self.config, outdir=outdir,
                                                  collect_diagnostics=True)}

    @staticmethod
    def reference_of(result: dict) -> dict:
        return {k: float(v) if isinstance(v, float) else v for k, v in result["summary"].items()}

    @staticmethod
    def compare(result: dict, reference: dict) -> list[str]:
        summary = result["summary"]
        problems = []
        for key, want in reference.items():
            if key.startswith("max_") and key.endswith("_residual"):
                continue     # gated by tolerance, not by value
            got = summary.get(key)
            if isinstance(want, int) and got != want:
                problems.append(f"{key} = {got}, expected {want}")
            elif not isinstance(want, int) and not _rel_close(got, want):
                problems.append(f"{key} = {got!r}, expected {want!r} within {REFERENCE_RTOL}")
        return problems


class Convergence:
    """Manufactured-solution refinement study (verification Example 1)."""

    def __init__(self, elements, levels: int, matching: bool,
                 T: float = 0.01, tau: float = 1e-3, n0: int = 8):
        self.elements, self.levels, self.matching = elements, levels, matching
        self.T, self.tau, self.n0 = T, tau, n0

    def _setup(self, n, ms):
        system = verify.example1_system(n, self.elements, matching=self.matching, tau=self.tau)
        state0 = system.initial_state(pp0=lambda p: ms.pp(p, 0.0),
                                      eta0=lambda p: ms.eta(p, 0.0),
                                      eta_dot0=lambda p: ms.dt_eta(p, 0.0))
        return system, state0

    def setup_sample(self) -> float:
        ms = manufactured.example1_solution()
        total = 0.0
        for k in range(self.levels):
            t0 = time.perf_counter()
            system, state0 = self._setup(self.n0 * 2**k, ms)
            total += time.perf_counter() - t0
        return total

    def run_pass(self, outdir: str, post_samples: int = 1) -> Pass:
        """One study; its error norms run level by level, so they are not repeated."""
        out = Pass()
        post_s = 0.0
        t_start = time.perf_counter()
        rows, diagnostics = [], []
        ms = manufactured.example1_solution()
        for k in range(self.levels):
            n = self.n0 * 2**k
            t0 = time.perf_counter()
            system, state0 = self._setup(n, ms)
            t1 = time.perf_counter()
            out.step_s = []      # keep the largest (last) level's steps
            states, diags = _march(system, self.T, state0, 1, out.step_s)
            t2 = time.perf_counter()
            rep = verify.error_norms(states, ms, system)
            rep = verify.ErrorReport(h=1.0 / n, dof_counts=rep.dof_counts,
                                     abs_errors=rep.abs_errors, rel_errors=rep.rel_errors,
                                     absolute_flag=rep.absolute_flag)
            rows.append(rep)
            diagnostics.append(diags)
            out.setup_s += t1 - t0
            post_s += time.perf_counter() - t2
        table = verify.ConvergenceTable(elements=self.elements, matching=self.matching,
                                        rows=rows, diagnostics=diagnostics)
        t0 = time.perf_counter()
        csv = vtkio.convergence_csv(table)
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "convergence.csv"), "w") as f:
            f.write(csv)
        t1 = time.perf_counter()
        out.post_s = [post_s + t1 - t0]
        out.wall_s = t1 - t_start
        out.max_constraint_residual = table.max_constraint_residual()
        out.max_energy_residual = table.max_energy_residual()
        out.result = {"table": table, "csv": csv}
        return out

    def library_run(self, outdir: str) -> dict:
        table = verify.convergence_study(self.elements, self.levels, matching=self.matching,
                                         T=self.T, tau=self.tau, n0=self.n0,
                                         collect_diagnostics=True)
        return {"table": table, "csv": vtkio.convergence_csv(table)}

    @staticmethod
    def reference_of(result: dict) -> list:
        return [{"h": row.h, "dof_counts": dict(row.dof_counts), "rel_errors": dict(row.rel_errors)}
                for row in result["table"].rows]

    @staticmethod
    def compare(result: dict, reference: list) -> list[str]:
        rows = result["table"].rows
        if len(rows) != len(reference):
            return [f"{len(rows)} levels, expected {len(reference)}"]
        problems = []
        for row, want in zip(rows, reference):
            if row.dof_counts != want["dof_counts"]:
                problems.append(f"h={row.h}: dofs {row.dof_counts}, expected {want['dof_counts']}")
            for key, value in want["rel_errors"].items():
                got = row.rel_errors[key]
                if not _rel_close(got, value):
                    problems.append(f"h={row.h}: {key} = {got!r}, expected {value!r}")
        return problems


WORKLOADS = {
    "example2": lambda: Example2(resolution=0.05),
    "converge-low-nm": lambda: Convergence(verify.LOW_ORDER, 4, matching=False),
    "converge-high": lambda: Convergence(verify.HIGH_ORDER, 3, matching=True),
}


def load_reference() -> dict:
    with open(REFERENCE_FILE) as f:
        return json.load(f)


def check(workload, name: str, p: Pass, reference: dict) -> list[str]:
    """Correctness gate of one pass; returns the problems found."""
    problems = []
    if not p.max_constraint_residual <= CONSTRAINT_TOL:
        problems.append(f"constraint residual {p.max_constraint_residual:.3e} > {CONSTRAINT_TOL}")
    if not p.max_energy_residual <= ENERGY_TOL:
        problems.append(f"energy residual {p.max_energy_residual:.3e} > {ENERGY_TOL}")
    return problems + workload.compare(p.result, reference[name])


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
