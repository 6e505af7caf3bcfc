"""The benchmark's trace hook still reads the factorization of a condensed
system: ``perfbench/spans.py`` records ``lu.dense``, ``lu.n`` and
``lu._fact.L`` / ``.U`` of ``CoupledSystem.lu``."""

import importlib.util
import sys
from pathlib import Path

import pytest

from stokesbiot.solver import DENSE_FALLBACK, LUSolver
from stokesbiot.verify import LOW_ORDER, example1_system

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n,dense", [(4, True), (16, False)])
def test_record_system_reads_condensed_factor(spans, n, dense):
    system = example1_system(n, LOW_ORDER, matching=False)
    lu = system.lu
    assert len(lu.interior) > 0 and lu.dense is dense
    tracer = spans.Tracer()
    spans._record_system(tracer, (system,), None)
    fill = tracer.systems[-1]["lu_fill"]
    # the same formula on the uncondensed factorization of the free matrix
    full = LUSolver(system.M_ff)
    full_fill = full.n**2 if full.dense else full._fact.L.nnz + full._fact.U.nnz
    assert 0 < fill <= full_fill
    if not dense:
        assert len(lu.kept) >= DENSE_FALLBACK
