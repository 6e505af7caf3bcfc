"""The benchmark's trace hook still reads the factorization of a condensed
system: ``perfbench/spans.py`` records ``lu.dense``, ``lu.n`` and
``lu._fact.L`` / ``.U`` of ``CoupledSystem.lu`` and the sizes of ``M`` and
``M_ff``, and wraps the entry points its ``TARGETS`` name."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from stokesbiot.solver import LUSolver
from stokesbiot.verify import LOW_ORDER, example1_system

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [4, 16])
def test_record_system_reads_condensed_factor(spans, n):
    system = example1_system(n, LOW_ORDER, matching=False)
    lu = system.lu
    assert len(lu.interior) > 0 and lu.dense is False
    tracer = spans.Tracer()
    spans._record_system(tracer, (system,), None)
    fill = tracer.systems[-1]["lu_fill"]
    # ``M`` is built on each read, from the operators the system holds
    assert tracer.systems[-1]["nnz_M"] == (system.E / system.tau + system.H).nnz
    # no more than the fill of the uncondensed factorization of the free matrix
    full = LUSolver(system.M_ff)
    assert 0 < fill <= full._fact.L.nnz + full._fact.U.nnz


def test_trace_targets_resolve(spans):
    """Every entry point the tracer wraps exists, so that a rename cannot
    leave a traced run without its spans."""
    for modname, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"stokesbiot.{modname}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"{modname}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"
