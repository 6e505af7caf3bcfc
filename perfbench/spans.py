"""In-memory spans around calls into the stokesbiot modules.

``Tracer.install`` replaces the public entry points listed in ``TARGETS`` by
timing wrappers and ``Tracer.uninstall`` puts the originals back.  A function
is rebound in every ``stokesbiot`` module namespace that holds it, because
``from .interface import segment_quadrature`` makes a second binding that
patching ``stokesbiot.interface`` alone would miss.  Methods are patched on
their class.  Nothing under ``src/`` is edited.

A span records its name, start, end and parent; its self time is its duration
minus the time its direct children cover.  Spans that share a name form one
layer metric.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _count_cells(tracer, args, out):
    meshes = out if isinstance(out, tuple) else (out,)
    tracer.counts["cells"] += sum(m.n_tris for m in meshes)


def _count_segments(tracer, args, out):
    tracer.counts["segments"] += out.n_segments


def _count_dofs(tracer, args, out):
    tracer.counts["dofs"] += out.n_dofs


def _record_system(tracer, args, out):
    system = args[0]
    lu = system.lu
    if lu is None:
        fill = 0
    elif lu.dense:
        fill = lu.n * lu.n
    else:
        fill = lu._fact.L.nnz + lu._fact.U.nnz
    tracer.systems.append({"unknowns": system.n_dofs, "nnz_M": system.M.nnz,
                           "nnz_Mff": system.M_ff.nnz, "lu_fill": fill})


def _counter(key):
    def hook(tracer, args, out):
        tracer.counts[key] += 1
    return hook


# (module, function or Class.method, span name, hook run on the result)
TARGETS = (
    ("mesh", "build_structured", "mesh.build", _count_cells),
    ("mesh", "build_fracture_domain", "mesh.build", _count_cells),
    ("mesh", "apply_domain_map", "mesh.build", None),
    ("interface", "common_refinement", "interface.common_refinement", _count_segments),
    ("interface", "segment_quadrature", "interface.segment_quadrature", None),
    ("spaces", "make_space", "spaces.make_space", _count_dofs),
    ("assembly", "make_multiplier_space", "spaces.make_space", _count_dofs),
    ("spaces", "l2_project", "spaces.project", None),
    ("spaces", "nodal_interpolate", "spaces.project", None),
    ("assembly", "assemble_stokes_viscous", "assembly.stokes_viscous", None),
    ("assembly", "assemble_elasticity", "assembly.elasticity", None),
    ("assembly", "assemble_darcy_mass", "assembly.darcy_mass", None),
    ("assembly", "assemble_divergence", "assembly.divergence", None),
    ("assembly", "pressure_mass", "assembly.pressure_mass", None),
    ("assembly", "assemble_bjs", "assembly.bjs", None),
    ("assembly", "assemble_bgamma", "assembly.bgamma", None),
    ("assembly", "assemble_loads", "assembly.loads", _counter("load_calls")),
    ("solver", "CoupledSystem.__init__", "solver.system", _record_system),
    ("solver", "build_constraints", "solver.constraints", None),
    ("solver", "LUSolver.__init__", "solver.factor", _counter("factor_calls")),
    ("solver", "LUSolver.solve", "solver.solve", _counter("solve_calls")),
    ("solver", "CoupledSystem.initial_state", "solver.init", None),
    ("solver", "CoupledSystem.step", "solver.step", _counter("step_calls")),
    ("solver", "CoupledSystem.constraint_residual", "verify.diagnostics", None),
    ("verify", "energy_identity_residual", "verify.diagnostics", None),
    ("verify", "error_norms", "case.analysis", None),
    ("verify", "example1_system", "case.build", None),
    ("scenarios", "build_scenario_system", "case.build", None),
    ("scenarios", "scenario_summary", "case.analysis", None),
    ("vtkio", "write_scenario_snapshots", "vtkio.write", None),
    ("vtkio", "write_manifest", "vtkio.write", None),
    ("vtkio", "convergence_csv", "vtkio.write", None),
)

COUNT_KEYS = ("cells", "segments", "dofs", "load_calls", "factor_calls", "solve_calls",
              "step_calls")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.systems: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(),
                                   self._stack[-1] if self._stack else -1))
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self.spans[index]
                span.end = time.perf_counter()
                self._stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.duration
            if hook is not None:
                hook(self, args, out)
            return out
        return traced

    def install(self) -> None:
        for modname, attr, name, hook in TARGETS:
            module = importlib.import_module(f"stokesbiot.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(original, name, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("stokesbiot"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    @staticmethod
    def wrapper_cost_s(calls: int = 20000) -> float:
        """Time one wrapped call adds over a plain call, measured here."""
        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "calibration", None)
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
        return max(0.0, (t1 - t0) - (t2 - t1)) / calls

    # -- reading -------------------------------------------------------------

    def self_time(self, *names: str) -> float:
        return sum(s.self_s for s in self.spans if s.name in names)

    def covered_s(self) -> float:
        """Time inside top-level spans (they never overlap: one thread)."""
        return sum(s.duration for s in self.spans if s.parent < 0)

    def largest_system(self) -> dict:
        return max(self.systems, key=lambda s: s["unknowns"])

    def dump(self) -> list:
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - t0, s.end - t0, s.parent] for s in self.spans]
