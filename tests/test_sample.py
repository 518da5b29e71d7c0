import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relsens import (GaussianCopulaJoint, LimitState, Marginal, crude_mc,
                     evaluate, sample, subset_simulation)
from relsens.errors import DomainError, EvalError, StagnationError
from relsens.config import load_config
from conftest import CONFIG_DIR, PF_IND, lognormal_linear_pf
from test_quantile import samples


A_HALF = math.exp(-0.9416278773557891)       # design factor giving pf = 1/2
A_RARE = 1.4363                              # design factor giving pf ~ 3.7e-4


def _pf_design(ex1_problem, a):
    from dataclasses import replace
    return lognormal_linear_pf(replace(ex1_problem, const_term=math.log(a)))


# -- crude Monte Carlo ---------------------------------------------------------

def test_mc_reproducible_bitwise(ex1_joint, ex1_lsf):
    r1 = crude_mc(ex1_joint, ex1_lsf, n=50_000, seed=77)
    r2 = crude_mc(ex1_joint, ex1_lsf, n=50_000, seed=77)
    assert r1.pf_hat == r2.pf_hat
    assert np.array_equal(r1.failure_samples, r2.failure_samples)
    r3 = crude_mc(ex1_joint, ex1_lsf, n=50_000, seed=78)
    assert r3.pf_hat != r1.pf_hat


def test_mc_certain_failure(ex1_joint):
    always = LimitState.from_expression("0*R - 1", ("R", "S", "XR", "XS"))
    res = crude_mc(ex1_joint, always, n=500, seed=1)
    assert res.pf_hat[0] == 1.0
    assert res.failure_samples.shape == (500, 4)
    assert (res.ci95[0][0], res.ci95[1][0]) == (1.0, 1.0)


def test_mc_failure_rows_are_failures(ex1_joint, ex1_lsf):
    res = crude_mc(ex1_joint, ex1_lsf, n=300_000, seed=5)
    g = evaluate(ex1_lsf, res.failure_samples)
    assert np.all(g <= 0.0)
    assert len(res.failure_samples) == round(res.pf_hat[0] * res.n)


def test_mc_example1_value(ex1_joint, ex1_lsf):
    res = crude_mc(ex1_joint, ex1_lsf, n=10**6, seed=123)
    se = math.sqrt(PF_IND * (1 - PF_IND) / 10**6)
    assert abs(res.pf_hat[0] - PF_IND) < 3 * se
    assert res.ci95[0][0] < PF_IND < res.ci95[1][0]


def test_mc_example2_value(ex2_mc):
    assert 0.0092 <= ex2_mc.pf_hat[0] <= 0.0096
    assert len(ex2_mc.failure_samples) == round(ex2_mc.pf_hat[0] * 10**6)


def test_mc_ci_coverage(ex1_joint, ex1_lsf):
    hits = 0
    for seed in range(200):
        res = crude_mc(ex1_joint, ex1_lsf, n=100_000, seed=10_000 + seed)
        hits += res.ci95[0][0] <= PF_IND <= res.ci95[1][0]
    assert hits >= 180           # nominal 95%, required >= 90%


# -- subset simulation ------------------------------------------------------------

def test_subset_single_level_case(ex1_joint, ex1_design_lsf, ex1_problem):
    pf_true = _pf_design(ex1_problem, A_HALF)
    assert pf_true == pytest.approx(0.5, abs=1e-12)
    res = subset_simulation(ex1_joint, ex1_design_lsf, n_per_level=2000,
                            p0=0.1, seed=42, a=A_HALF)
    assert len(res.levels) == 1
    assert res.levels[0][0] == 0.0
    assert res.pf_hat == pytest.approx(0.5, abs=0.05)


def test_subset_result_invariants(ex1_joint, ex1_lsf):
    res = subset_simulation(ex1_joint, ex1_lsf, n_per_level=2000, p0=0.1,
                            seed=3)
    probs = [p for _, p in res.levels]
    assert res.pf_hat == pytest.approx(float(np.prod(probs)), rel=1e-12)
    assert all(0.0 < p <= 1.0 for p in probs)
    thresholds = [t for t, _ in res.levels]
    assert all(t2 < t1 for t1, t2 in zip(thresholds, thresholds[1:]))
    assert res.last_level_samples.shape == (2000, 4)
    g = evaluate(ex1_lsf, res.last_level_samples)
    assert np.all(g <= 0.0)


def test_subset_failure_samples_are_step_major_chains(ex1_joint, ex1_lsf):
    # a chain's next state lies n_chains rows later: it repeats the current
    # state exactly when the move was rejected; adjacent rows belong to
    # different chains and coincide only where two chains share a seed
    res = subset_simulation(ex1_joint, ex1_lsf, n_per_level=2000, p0=0.1,
                            seed=3)
    x = res.last_level_samples
    k = res.n_chains
    assert 1 < k < len(x)
    repeat = np.mean(np.all(x[k:] == x[:-k], axis=1))
    assert 0.2 < repeat < 0.9
    assert np.mean(np.all(x[1:] == x[:-1], axis=1)) < 0.01


def test_subset_reproducible(ex1_joint, ex1_lsf):
    a = subset_simulation(ex1_joint, ex1_lsf, n_per_level=1000, p0=0.1, seed=9)
    b = subset_simulation(ex1_joint, ex1_lsf, n_per_level=1000, p0=0.1, seed=9)
    assert a.pf_hat == b.pf_hat
    assert np.array_equal(a.last_level_samples, b.last_level_samples)


def test_subset_within_three_cov_of_analytic(ex1_joint, ex1_lsf):
    est = np.array([
        subset_simulation(ex1_joint, ex1_lsf, n_per_level=2000, p0=0.1,
                          seed=100 + k).pf_hat
        for k in range(20)])
    cov = est.std(ddof=1) / est.mean()
    assert np.all(np.abs(est / PF_IND - 1.0) <= 3.0 * cov)


def test_subset_mean_and_cov_at_rare_level(ex1_joint, ex1_design_lsf,
                                           ex1_problem):
    pf_true = _pf_design(ex1_problem, A_RARE)
    assert pf_true == pytest.approx(3.7e-4, rel=2e-2)
    est = np.array([
        subset_simulation(ex1_joint, ex1_design_lsf, n_per_level=10_000,
                          p0=0.1, seed=5000 + k, a=A_RARE).pf_hat
        for k in range(100)])
    assert abs(est.mean() / pf_true - 1.0) < 0.10
    assert est.std(ddof=1) / est.mean() <= 0.15


def test_subset_unbiased_at_component_level(ex1_joint, ex1_lsf):
    est = np.array([
        subset_simulation(ex1_joint, ex1_lsf, n_per_level=2000, p0=0.1,
                          seed=7000 + k).pf_hat
        for k in range(100)])
    assert abs(est.mean() / PF_IND - 1.0) < 0.10


def test_subset_parameter_validation(ex1_joint, ex1_lsf):
    with pytest.raises(DomainError):
        subset_simulation(ex1_joint, ex1_lsf, n_per_level=50, p0=0.1, seed=0)
    with pytest.raises(DomainError):
        subset_simulation(ex1_joint, ex1_lsf, n_per_level=1000, p0=1.2, seed=0)


def test_subset_stagnation_detected(ex1_joint):
    # the message names the cause and the settings, as the no-failure-level
    # message does
    stuck = LimitState.from_expression("0*R + 1", ("R", "S", "XR", "XS"))
    with pytest.raises(StagnationError) as info:
        subset_simulation(ex1_joint, stuck, n_per_level=500, p0=0.1, seed=0)
    assert str(info.value) == (
        "threshold stagnated at g = 1, where g is flat, over three levels "
        "at p0 = 0.1, n_per_level = 500")


def test_subset_without_a_failure_level_names_its_settings_and_reach():
    # pf = Phi(-12) ~ 1.8e-33 lies below p0^30 = 1e-30
    joint = GaussianCopulaJoint.fit([Marginal("normal", (0.0, 1.0))])
    far = LimitState.from_expression("12 - Z", ("Z",))
    with pytest.raises(StagnationError) as info:
        subset_simulation(joint, far, n_per_level=500, p0=0.1, seed=3)
    message = str(info.value)
    assert message.startswith("no failure level within 30 levels at "
                              "p0 = 0.1, n_per_level = 500: the last "
                              "threshold reached was g = ")
    assert message.endswith(", so pf is below about p0^30 = 1e-30")
    last = float(message.split("g = ")[1].split(",")[0])
    assert 0.0 < last < 1.0


def _np_selection(g, p0, ns, ties=None):
    """The selection subset simulation made with np.quantile and a full
    np.argsort; ``ties`` collects the number of adjacent equal pairs among
    the selected ns g values."""
    order = np.argsort(g)[:ns]
    if ties is not None:
        low = g[order]
        ties.append(int(np.count_nonzero(np.diff(low) == 0.0)))
    return float(np.quantile(g, p0)), order


def _assert_same_run(got, want):
    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    assert bits(got.levels) == bits(want.levels)
    assert bits(got.pf_hat) == bits(want.pf_hat)
    assert bits(got.accept_rate) == bits(want.accept_rate)
    assert (got.g_evals, got.n_chains) == (want.g_evals, want.n_chains)
    assert bits(got.last_level_samples) == bits(want.last_level_samples)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=samples(), p0=st.sampled_from([0.05, 0.1, 0.2, 0.5, 0.9]))
def test_subset_selection_is_np_quantile_and_argsort(g, p0):
    ns = int(np.floor(p0 * len(g)))
    t, seeds = sample._threshold_and_seeds(g, p0, ns)
    want_t, want_seeds = _np_selection(g, p0, ns)
    assert type(t) is float
    # a zero threshold's sign may differ where 0.0 and -0.0 tie; subset
    # simulation takes any zero threshold as the failure level
    assert np.float64(t).tobytes() == np.float64(want_t).tobytes() or (
        t == want_t == 0.0)
    assert len(set(seeds.tolist())) == ns
    assert np.array_equal(g[seeds], g[want_seeds])


@pytest.mark.parametrize("n_per_level", [500, 2000])
@pytest.mark.parametrize("name", ["example1_safety_dependent.json",
                                  "example2_safety.json"])
def test_subset_runs_as_with_np_quantile_and_argsort(monkeypatch, name,
                                                     n_per_level):
    cfg = load_config(CONFIG_DIR / name)
    for seed in (1, 2, 3):
        args = (cfg.joint, cfg.limit_state, n_per_level, cfg.p0, seed)
        got = subset_simulation(*args)
        with monkeypatch.context() as m:
            m.setattr(sample, "_threshold_and_seeds", _np_selection)
            want = subset_simulation(*args)
        _assert_same_run(got, want)


@pytest.mark.parametrize("n_per_level", [500, 2000])
def test_subset_design_rows_run_as_with_np_quantile_and_argsort(
        monkeypatch, n_per_level):
    # the rare designs reach 3 or more levels, whose g hold the exact ties
    # that rejected moves leave among the selected seeds
    cfg = load_config(CONFIG_DIR / "example1_design.json")
    levels, ties = [], []
    for a in np.linspace(0.5, 1.5, 11):
        args = (cfg.joint, cfg.limit_state, n_per_level, cfg.p0, 4, a)
        got = subset_simulation(*args)
        with monkeypatch.context() as m:
            m.setattr(sample, "_threshold_and_seeds",
                      lambda g, p0, ns: _np_selection(g, p0, ns, ties))
            want = subset_simulation(*args)
        _assert_same_run(got, want)
        levels.append(len(got.levels))
    assert max(levels) >= 3 and min(levels) == 1
    assert sum(ties) > 0


def test_subset_keeps_one_level_of_chains_in_memory(ex1_joint_dep, ex1_lsf):
    # each pass writes its chains into one preallocated array of u and one
    # of g, and a level is dropped once the next one's seeds are taken:
    # the traced peak is one level plus the first level's copula map
    # (parent 3.35-3.40 MiB on this run, list-appended steps and two
    # levels alive)
    subset_simulation(ex1_joint_dep, ex1_lsf, 2000, 0.1, 1)   # warm imports
    tracemalloc.start()
    try:
        res = subset_simulation(ex1_joint_dep, ex1_lsf, 20_000, 0.1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.levels) == 2
    assert res.last_level_samples.shape == (20_000, 4)
    assert peak < 3.0 * 2**20


def test_crude_mc_over_designs_matches_single_design_runs(ex1_joint,
                                                          ex1_design_lsf):
    # 11 designs span two bytes of the packed failure bits
    designs = np.linspace(0.8, 1.8, 11)
    sweep = crude_mc(ex1_joint, ex1_design_lsf, 30_000, 9, a=designs)
    assert sweep.pf_hat.shape == (11,)
    for j, a in enumerate(designs):
        one = crude_mc(ex1_joint, ex1_design_lsf, 30_000, 9, a=[a])
        assert sweep.pf_hat[j] == one.pf_hat[0]
        assert sweep.n_fail[j] == one.n_fail[0] == len(one.failure_samples)
        assert (sweep.ci95[0][j], sweep.ci95[1][j]) == (one.ci95[0][0],
                                                        one.ci95[1][0])
        assert np.array_equal(sweep.failures(j), one.failure_samples)
    # g rises with a, so a row failing at some design fails at the smallest
    assert len(sweep.failure_samples) == sweep.n_fail.max()


# -- crude MC chunks and worker threads ------------------------------------------

def _mc_bytes(res):
    """Everything a crude-MC result reports, as bytes."""
    return (res.pf_hat.tobytes(), np.asarray(res.ci95).tobytes(),
            res.n_fail.tobytes(), res.failure_samples.tobytes(),
            res.failed_at.tobytes())


def _mc_at(monkeypatch, cpus, joint, limit_state, n, seed, a=None):
    monkeypatch.setattr(sample, "_available_cpus", lambda: cpus)
    return crude_mc(joint, limit_state, n, seed, a=a)


@pytest.mark.parametrize("case", ["column", "designs"])
def test_crude_mc_does_not_depend_on_worker_count(monkeypatch, case, ex2_joint,
                                                  ex2_lsf, ex1_joint,
                                                  ex1_design_lsf):
    # three full chunks and a ragged tail
    n = 3 * sample.MC_BATCH + 1234
    args = ((ex2_joint, ex2_lsf, n, 31) if case == "column" else
            (ex1_joint, ex1_design_lsf, n, 32, np.linspace(0.5, 1.5, 11)))
    # switch threads often, with more workers than this machine may have CPUs
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = {cpus: _mc_at(monkeypatch, cpus, *args) for cpus in (1, 2, 4)}
    finally:
        sys.setswitchinterval(interval)
    assert {cpus: r.workers for cpus, r in runs.items()} == {1: 1, 2: 2, 4: 4}
    assert len(runs[1].failure_samples) > 0
    for cpus in (2, 4):
        assert _mc_bytes(runs[cpus]) == _mc_bytes(runs[1])


def test_crude_mc_worker_count_is_capped_at_the_chunk_count(monkeypatch,
                                                            ex1_joint, ex1_lsf):
    for n, chunks in ((1000, 1), (sample.MC_BATCH + 1, 1),
                      (sample.MC_BATCH + 2, 2), (5 * sample.MC_BATCH, 5)):
        assert _mc_at(monkeypatch, 8, ex1_joint, ex1_lsf, n, 3).workers == chunks


@pytest.mark.parametrize("case", ["column", "designs"])
def test_crude_mc_does_not_depend_on_chunk_size(monkeypatch, case, ex2_joint,
                                                ex2_lsf, ex1_joint,
                                                ex1_design_lsf):
    n = 430_017
    args = ((ex2_joint, ex2_lsf, n, 33) if case == "column" else
            (ex1_joint, ex1_design_lsf, n, 34, np.linspace(0.5, 1.5, 11)))
    runs = {}
    for batch in (7_919, 25_000, 50_000, 200_000):
        monkeypatch.setattr(sample, "MC_BATCH", batch)
        runs[batch] = _mc_bytes(crude_mc(*args))
    for batch in (25_000, 50_000, 200_000):
        assert runs[batch] == runs[7_919], batch


@pytest.mark.parametrize("cpus,budget_mib", [(2, 10), (4, 14)])
def test_crude_mc_keeps_few_chunks_in_memory(monkeypatch, cpus, budget_mib,
                                             ex2_joint, ex2_lsf):
    # eight chunks of the short column; a worker hands back only the
    # failure rows (about 1%) of its chunk, so the traced peak is a few
    # chunks of draws and maps, however long the run
    n = 8 * sample.MC_BATCH
    _mc_at(monkeypatch, cpus, ex2_joint, ex2_lsf, 1000, 1)    # warm imports
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    tracemalloc.start()
    try:
        res = _mc_at(monkeypatch, cpus, ex2_joint, ex2_lsf, n, 36)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.setswitchinterval(interval)
    assert res.workers == cpus
    assert 0 < len(res.failure_samples) < n // 50
    assert peak < budget_mib << 20


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_crude_mc_reuses_the_buffers_of_collected_chunks(monkeypatch, cpus,
                                                         ex2_joint, ex2_lsf):
    # ten chunks and a ragged tail map into exactly one buffer per working
    # thread, which that thread reuses for every chunk it takes
    class RecordingJoint:
        dim = ex2_joint.dim

        def __init__(self):
            self.owners = {}

        def to_physical(self, u, out=None):
            self.owners.setdefault(id(out.base), set()).add(
                threading.get_ident())
            time.sleep(0.002)     # the other threads take the next chunks
            return ex2_joint.to_physical(u, out=out)

    monkeypatch.setattr(sample, "MC_BATCH", 1000)
    joint = RecordingJoint()
    res = _mc_at(monkeypatch, cpus, joint, ex2_lsf, 10_123, 37)
    assert res.workers == cpus
    assert len(joint.owners) == res.workers
    threads = set.union(*joint.owners.values())
    assert len(threads) == res.workers
    assert all(len(owner) == 1 for owner in joint.owners.values())


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_crude_mc_starts_one_thread_fewer_than_its_workers(monkeypatch, cpus,
                                                           ex1_joint, ex1_lsf):
    # the calling thread works too: at one CPU no thread is started
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    res = _mc_at(monkeypatch, cpus, ex1_joint, ex1_lsf,
                 4 * sample.MC_BATCH, 38)
    assert res.workers == cpus
    assert len(started) == cpus - 1
    assert not any(thread.is_alive() for thread in started)


def test_crude_mc_sample_equals_one_draw_mapped_at_once(monkeypatch,
                                                        ex2_joint):
    # every row fails, so failure_samples is the whole physical sample; at
    # seed 44 the last row, mapped alone, got other bits than in its batch
    # on the BLAS this was written on, so there the 3 * batch + 1 case shows
    # that a lone last row joins the chunk before it (where a BLAS maps a
    # lone row as it maps a batch, that case adds nothing)
    always = LimitState.from_expression("0*M1 - 1", ("M1", "M2", "P", "Y"))
    batch, seed = 1000, 44
    monkeypatch.setattr(sample, "MC_BATCH", batch)
    for n in (3 * batch, 3 * batch + 1, 3 * batch + 2):
        u = sample.make_rng(seed).standard_normal((n, 4))
        x = ex2_joint.to_physical(u)
        for cpus in (1, 2):
            res = _mc_at(monkeypatch, cpus, ex2_joint, always, n, seed)
            assert res.failure_samples.tobytes() == x.tobytes()


def _first_rows(joint, batch, n, seed):
    """The first physical row of each chunk, which tells the chunks apart."""
    rng = sample.make_rng(seed)
    return [joint.to_physical(rng.standard_normal((batch, joint.dim)))[0]
            for _ in range(n // batch)]


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_crude_mc_raises_the_earliest_worker_error(monkeypatch, cpus,
                                                   ex1_joint, ex1_lsf):
    batch, n, seed = 1000, 8000, 35
    monkeypatch.setattr(sample, "MC_BATCH", batch)
    first_rows = _first_rows(ex1_joint, batch, n, seed)
    evaluate_g = sample.lsf_mod.evaluate

    def failing(limit_state, x, a=None):
        for k in (2, 4):
            if np.array_equal(x[0], first_rows[k]):
                if k == 2:
                    time.sleep(0.05)      # let the later chunk fail first
                raise EvalError(f"chunk {k}")
        return evaluate_g(limit_state, x, a)

    monkeypatch.setattr(sample.lsf_mod, "evaluate", failing)
    before = threading.active_count()
    with pytest.raises(EvalError, match="chunk 2"):
        _mc_at(monkeypatch, cpus, ex1_joint, ex1_lsf, n, seed)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_crude_mc_takes_no_chunk_after_an_error(monkeypatch, cpus, ex1_joint,
                                                ex1_lsf):
    # chunk 1 fails at once while the others take 50 ms: chunks 0 and 1
    # and those taken before the failure (at most one per other worker) are
    # evaluated, and none after it
    batch, n, seed = 1000, 8000, 39
    monkeypatch.setattr(sample, "MC_BATCH", batch)
    first_rows = _first_rows(ex1_joint, batch, n, seed)
    evaluate_g = sample.lsf_mod.evaluate
    seen = []

    def failing(limit_state, x, a=None):
        k = next(k for k, row in enumerate(first_rows)
                 if np.array_equal(x[0], row))
        seen.append(k)
        if k == 1:
            raise EvalError("chunk 1")
        time.sleep(0.05)
        return evaluate_g(limit_state, x, a)

    monkeypatch.setattr(sample.lsf_mod, "evaluate", failing)
    with pytest.raises(EvalError, match="chunk 1"):
        _mc_at(monkeypatch, cpus, ex1_joint, ex1_lsf, n, seed)
    assert sorted(seen) == list(range(len(seen)))
    assert 2 <= len(seen) <= max(cpus, 2)


@pytest.mark.parametrize("cpus", [1, 2])
def test_crude_mc_reports_a_non_finite_g_at_its_draw_index(monkeypatch, cpus,
                                                          ex1_joint):
    batch, n, seed = 1000, 5000, 37
    monkeypatch.setattr(sample, "MC_BATCH", batch)
    x = ex1_joint.to_physical(sample.make_rng(seed).standard_normal((n, 4)))
    row = int(np.argmin(x[:, 0]))
    assert row >= batch                       # not in the first chunk
    # ln(0) at the smallest R, a finite g at every other row
    only_row = LimitState.from_expression(f"ln(R - {float(x[row, 0])!r})",
                                          ("R", "S", "XR", "XS"))
    with pytest.raises(EvalError, match=f"non-finite g at sample {row};"):
        _mc_at(monkeypatch, cpus, ex1_joint, only_row, n, seed)
