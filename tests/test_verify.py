import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokesbiot import verify
from stokesbiot.assembly import Separable
from stokesbiot.manufactured import ManufacturedSolution, example1_solution
from stokesbiot.solver import TransientState
from stokesbiot.verify import (HIGH_ORDER, LOW_ORDER, NORM_FIELDS, NORM_KEYS, UNSTABLE_CONTROL,
                               _norm_rule, error_norms, example1_system, inf_sup_estimate,
                               multiplier_seminorm_gram, patch_test, run_example1)

from helpers import multiplier_seminorm


@pytest.fixture(scope="module")
def run8():
    ms = example1_solution()
    system = example1_system(8, LOW_ORDER)
    states, _ = run_example1(system, ms)
    return system, states, ms


def test_zero_numeric_gives_relative_one(run8):
    system, states, ms = run8
    zeroed = [TransientState(X=np.zeros_like(s.X), n=s.n, tau=s.tau) for s in states]
    rep = error_norms(zeroed, ms, system)
    for k, v in rep.rel_errors.items():
        assert v == pytest.approx(1.0, abs=1e-12), k


def test_errors_below_one_for_computed_solution(run8):
    system, states, ms = run8
    rep = error_norms(states, ms, system)
    for k, v in rep.rel_errors.items():
        assert 0 < v < 1, (k, v)
    assert not any(rep.absolute_flag.values())


def test_discrete_time_norm_inequality(run8):
    """``error_norms`` combines the per-state squared errors of
    ``_field_norms`` as max over states 0..N (linf) and tau * sum over
    states 1..N (l2); on those values linf >= l2 / sqrt(T)."""
    system, states, ms = run8
    tau, T = system.tau, states[-1].t
    rep = error_norms(states, ms, system)
    times = [s.t for s in states]
    for key in ("pp_linfL2", "up_l2L2"):
        name, grad, time_norm = NORM_FIELDS[key]
        coeffs = np.column_stack([system.view(s.X, name) for s in states])
        e2, s2, _, _ = verify._field_norms(system.spaces[name], coeffs, times, getattr(ms, name),
                                           None if grad is None else getattr(ms, grad))
        seq = e2 + s2
        linf, l2 = math.sqrt(seq.max()), math.sqrt(tau * seq[1:].sum())
        assert rep.abs_errors[key] == pytest.approx(linf if time_norm == "linf" else l2, rel=1e-14)
        assert linf >= l2 / math.sqrt(T) - 1e-14


# ---------------------------------------------------------------------------
# multiplier seminorm


def test_seminorm_zero_and_homogeneity(run8):
    system, _, _ = run8
    n = system.sizes["lam"]
    assert multiplier_seminorm(np.zeros(n), system) == 0.0
    rng = np.random.default_rng(5)
    mu = rng.standard_normal(n)
    base = multiplier_seminorm(mu, system)
    assert base > 0


@settings(max_examples=10, deadline=None)
@given(c=st.floats(-20, 20))
@example(c=2.2250738585e-313)     # subnormal right-hand side of the Darcy extension
def test_seminorm_absolute_homogeneity(c):
    system = example1_system(4, LOW_ORDER)
    rng = np.random.default_rng(9)
    mu = rng.standard_normal(system.sizes["lam"])
    base = multiplier_seminorm(mu, system)
    val = multiplier_seminorm(c * mu, system)
    assert val == pytest.approx(abs(c) * base, rel=1e-9, abs=1e-12)


def test_seminorm_dense_oracle():
    """Sparse-path auxiliary solve equals a dense re-solve of the saddle system."""
    import scipy.sparse as sp

    system = example1_system(4, LOW_ORDER)
    b = system.blocks
    rng = np.random.default_rng(17)
    mu = rng.standard_normal(system.sizes["lam"])
    val = multiplier_seminorm(mu, system)
    nu, npp = system.sizes["up"], system.sizes["pp"]
    A = sp.bmat([[b["Ap"], -b["Dp"].T], [b["Dp"], None]]).toarray()
    rhs = np.concatenate([-(b["Bp"].T @ mu), np.zeros(npp)])
    x = np.linalg.solve(A, rhs)
    ustar = x[:nu]
    oracle = math.sqrt(ustar @ (b["Ap"] @ ustar))
    assert val == pytest.approx(oracle, rel=1e-10)


def test_seminorm_gram_consistency():
    system = example1_system(4, LOW_ORDER)
    S = multiplier_seminorm_gram(system)
    assert np.allclose(S, S.T, atol=1e-12 * max(1.0, np.abs(S).max()))
    rng = np.random.default_rng(2)
    mu = rng.standard_normal(system.sizes["lam"])
    assert math.sqrt(max(0.0, mu @ S @ mu)) == pytest.approx(
        multiplier_seminorm(mu, system), rel=1e-9)


# ---------------------------------------------------------------------------
# inf-sup


def test_inf_sup_positive_and_stable_under_refinement():
    betas = [inf_sup_estimate(example1_system(n, LOW_ORDER)) for n in (4, 8)]
    assert all(b > 0 for b in betas)
    assert max(betas) / min(betas) < 2.0


def test_inf_sup_unstable_control_singular():
    """Equal-order P1-P1 carries exact spurious pressure modes on this mesh
    family, so the control's inf-sup constant is numerically zero (the
    strongest form of instability the diagnostic can report)."""
    stable = inf_sup_estimate(example1_system(8, LOW_ORDER))
    b4 = inf_sup_estimate(example1_system(4, UNSTABLE_CONTROL))
    b8 = inf_sup_estimate(example1_system(8, UNSTABLE_CONTROL))
    assert max(b4, b8) < 1e-6 * stable or b4 / max(b8, 1e-300) > 2.0


def test_zero_exact_norm_reported_absolute():
    """A zero-denominator norm is flagged and reported as absolute."""
    base = example1_solution()
    system = example1_system(4, LOW_ORDER)
    probe = np.zeros((1, 2))

    def zero(field):
        shape = np.shape(field(probe, 0.0))[1:]
        return Separable(lambda p: np.zeros((len(p),) + shape))

    ms0 = ManufacturedSolution(**{name: zero(f) for name, f in vars(base).items()})
    states = [TransientState(X=np.zeros(system.n_dofs), n=n, tau=system.tau) for n in range(3)]
    rep = error_norms(states, ms0, system)
    assert all(rep.absolute_flag.values())
    assert all(v == 0.0 for v in rep.abs_errors.values())


@pytest.mark.parametrize("name", ["pf", "grad_eta"])
def test_non_separable_exact_field_rejected(run8, name):
    system, states, ms = run8
    exact = getattr(ms, name)
    plain = dataclasses.replace(ms, **{name: lambda p, t: exact(p, t)})
    with pytest.raises(ValueError, match=repr(name)):
        error_norms(states, plain, system)


# ---------------------------------------------------------------------------
# error norms: per field, all states batched, cell-chunked


@pytest.fixture(scope="module", params=[(LOW_ORDER, False), (HIGH_ORDER, True)],
                ids=["low-nonmatching", "high-matching"])
def run8_pair(request):
    elements, matching = request.param
    ms = example1_solution()
    system = example1_system(8, elements, matching=matching)
    states, _ = run_example1(system, ms)
    return system, states, ms


def _per_state_error_norms(states, ms, system):
    """The per-state formula: every exact field evaluated in full at every
    norm-rule point for each state, one state at a time."""
    def weighted_sum(values, w):
        return np.vdot(w, values.reshape(w.shape + (-1,)).sum(axis=-1))

    def field_norms(space, coeffs, exact, exact_grad, t):
        rule = _norm_rule(space)
        pts, w = space.geometry.quadrature(rule)
        flat = pts.reshape(-1, 2)
        c = coeffs[space.cell_dofs]
        if space.rt_order is not None:
            vals, _ = space.tabulate(rule)
            uh = np.matmul(c[:, None, :], vals.reshape(c.shape + (-1,))).reshape(pts.shape)
            ue = np.asarray(exact(flat, t)).reshape(pts.shape)
            return weighted_sum((uh - ue) ** 2, w), weighted_sum(ue**2, w)
        vals = space.ref_values(rule)
        if space.vector:
            c3 = c.reshape(c.shape[0], -1, 2)
            uh = vals.T @ c3
            ue = np.asarray(exact(flat, t)).reshape(pts.shape)
            _, grads = space.tabulate(rule)
            gh = np.einsum("miqa,mid->mqda", grads, c3, optimize=True)
            ge = np.asarray(exact_grad(flat, t)).reshape(gh.shape)
            return (weighted_sum((uh - ue) ** 2, w) + weighted_sum((gh - ge) ** 2, w),
                    weighted_sum(ue**2, w) + weighted_sum(ge**2, w))
        ph = c @ vals
        pe = np.asarray(exact(flat, t)).reshape(w.shape)
        return weighted_sum((ph - pe) ** 2, w), weighted_sum(pe**2, w)

    fields = {"uf_l2H1": ("uf", ms.uf, ms.grad_uf), "pf_l2L2": ("pf", ms.pf, None),
              "up_l2L2": ("up", ms.up, None), "pp_linfL2": ("pp", ms.pp, None),
              "eta_linfH1": ("eta", ms.eta, ms.grad_eta)}
    rel, absolute = {}, {}
    for key, (name, exact, grad) in fields.items():
        sq = [field_norms(system.spaces[name], system.view(s.X, name), exact, grad, s.t)
              for s in states]
        err, ex = [e for e, _ in sq], [x for _, x in sq]
        if key.endswith("l2H1") or key.endswith("l2L2"):
            num, den = (math.sqrt(system.tau * sum(v[1:])) for v in (err, ex))
        else:
            num, den = math.sqrt(max(err)), math.sqrt(max(ex))
        absolute[key], rel[key] = num, num / den
    return rel, absolute


def test_error_norms_match_per_state_formula(run8_pair):
    system, states, ms = run8_pair
    rep = error_norms(states, ms, system)
    rel, absolute = _per_state_error_norms(states, ms, system)
    for k in NORM_KEYS:
        assert rep.rel_errors[k] == pytest.approx(rel[k], rel=1e-12, abs=0), k
        assert rep.abs_errors[k] == pytest.approx(absolute[k], rel=1e-12, abs=0), k


def test_exact_terms_evaluated_once_per_point(run8_pair):
    """Each spatial term of each exact field sees every norm-rule point of
    its field's mesh exactly once per call, whatever the number of states."""
    system, states, ms = run8_pair
    seen = {}

    def recorded(name, g, f):
        def call(p):
            seen.setdefault((name, g), []).append(p.copy())
            return f(p)
        return call

    fields = {field: n for n, grad, _ in NORM_FIELDS.values() for field in (n, grad) if field}
    counted = dataclasses.replace(ms, **{
        field: Separable({g: recorded(field, g, f) for g, f in getattr(ms, field).terms.items()})
        for field in fields})
    error_norms(states, counted, system)
    n_terms = 0
    for field, name in fields.items():
        space = system.spaces[name]
        pts, _ = space.geometry.quadrature(_norm_rule(space))
        for g in getattr(ms, field).terms:
            np.testing.assert_array_equal(np.concatenate(seen[field, g]), pts.reshape(-1, 2))
            n_terms += 1
    assert len(seen) == n_terms


def test_error_norms_independent_of_chunking(run8_pair, monkeypatch):
    system, states, ms = run8_pair
    default = error_norms(states, ms, system)
    monkeypatch.setattr(verify, "NORM_CHUNK", 7)
    chunked = error_norms(states, ms, system)
    for k in NORM_KEYS:
        assert chunked.rel_errors[k] == pytest.approx(default.rel_errors[k], rel=1e-13, abs=0), k
        assert chunked.abs_errors[k] == pytest.approx(default.abs_errors[k], rel=1e-13, abs=0), k


def _error_norms_transient(n):
    """The traced memory peak of ``error_norms`` above what was held before
    it, on the low-order, non-matching system at h = 1/n."""
    ms = example1_solution()
    system = example1_system(n, LOW_ORDER, matching=False)
    states, _ = run_example1(system, ms)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        error_norms(states, ms, system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def test_error_norms_transient_does_not_grow_with_the_mesh():
    """Quadrature points and basis data are made one chunk of cells at a
    time: from h = 1/16 to h = 1/32 the transient memory of the norms grows
    by at most 1.3 times (1.07 measured; 1.80 with whole-mesh tabulations)."""
    assert _error_norms_transient(32) <= 1.3 * _error_norms_transient(16)


def test_rates_monotone_stabilizing():
    """Consecutive rate jumps shrink beyond the first refinement pair."""
    from stokesbiot.verify import convergence_study

    tab = convergence_study(LOW_ORDER, 4, matching=True, n0=4)
    rates = tab.rates()
    for k in ("uf_l2H1", "up_l2L2", "pp_linfL2", "eta_linfH1"):
        jumps = np.abs(np.diff(rates[k]))
        assert jumps[1] <= jumps[0] + 1e-3, (k, rates[k])


def test_convergence_study_frees_each_level_before_the_next(monkeypatch):
    """The level-k system, its factor and states are unreachable when the
    level-k+1 system is built and factorized."""
    systems, alive = [], []
    build = verify.example1_system

    def spy(*args, **kwargs):
        alive.append([ref() is not None for ref in systems])
        system = build(*args, **kwargs)
        systems.append(weakref.ref(system))
        return system

    monkeypatch.setattr(verify, "example1_system", spy)
    verify.convergence_study(LOW_ORDER, 3, n0=4, T=0.002)
    assert alive == [[], [False], [False, False]]


# ---------------------------------------------------------------------------
# patch test


@pytest.mark.parametrize("elements", [LOW_ORDER, HIGH_ORDER], ids=["low", "high"])
def test_patch_solution_reproduced(elements):
    errors = patch_test(elements)
    for name, err in errors.items():
        assert err < 1e-10, (name, err)
