"""The one CPU rule: how many CPUs a process uses, and no process of its own
inside a process forked here or a ``multiprocessing`` child; and the forked
partner of a split."""

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from biphoton import pipeline
from biphoton.cpus import MonteCarloWorkers, Partner, partner_ok, workers


def _in_a_child(monkeypatch):
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())


@pytest.mark.parametrize("limit, count", [(0, 0), (1, 1), (2, 2), (3, 3), (8, 3)])
def test_workers_take_the_affinity_mask_up_to_the_limit(monkeypatch, limit, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert workers(limit) == count


def test_workers_without_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert workers(1024) == (os.cpu_count() or 1)
    assert workers(1) == 1


@pytest.mark.parametrize("limit, count", [(0, 0), (1, 1), (2, 1), (8, 1)])
def test_workers_in_a_multiprocessing_child_use_one_cpu(monkeypatch, limit, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    _in_a_child(monkeypatch)
    assert workers(limit) == count


def _seed_and_start(seeds, start):
    return [(float(seed), start()) for seed in seeds]


def test_monte_carlo_workers_in_a_multiprocessing_child_start_no_process(monkeypatch, no_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError, match="^no fork$"):  # in the main process the pool forks
        MonteCarloWorkers(_seed_and_start, 4, 0)
    _in_a_child(monkeypatch)
    with MonteCarloWorkers(_seed_and_start, 4, 0) as pool:
        pool.send("the start")
        assert pool.collect() == [(float(seed), "the start") for seed in pool.seeds]


def _cpus_seen(seeds, start):
    return [(workers(8), partner_ok())] * len(seeds)


def test_a_forked_monte_carlo_worker_uses_one_cpu(monkeypatch, forked):
    # a worker forked here is marked as one: it splits nothing over a partner
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with MonteCarloWorkers(_cpus_seen, 4, 0) as pool:
        pool.send("the start")
        assert pool.collect() == [(1, False)] * 4
    assert len(forked) == 2
    assert workers(8) == 2  # this process is not marked


def _interrupted(seeds, start):
    os.kill(os.getpid(), signal.SIGINT)  # as a terminal's Ctrl-C reaches every process of its group
    return [start()] * len(seeds)


def test_a_forked_monte_carlo_worker_leaves_sigint_to_its_caller(monkeypatch, forked):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with MonteCarloWorkers(_interrupted, 2, 0) as pool:
        pool.send("the start")
        assert pool.collect() == ["the start"] * 2
    assert len(forked) == 2


MC_MANIFEST = {"seed": 1, "state": {"n": 32, "rho": -0.9, "chirp_s": -10000, "chirp_i": -12000},
               "gating": {"ideal": True}, "retrieval": {"iterations": 20},
               "analysis": {"monte_carlo": {"trials": 4, "peak_counts": 1e5}}}


def _monte_carlo_and_forks():
    """``run_pipeline``'s Monte Carlo spread on ``MC_MANIFEST``, and how many
    processes the process that runs it has forked while the trials run."""
    pids, forks, fork = [], [], os.fork

    def recorded():
        pids.append(fork())
        return pids[-1]

    os.fork = recorded
    try:
        out = pipeline.run_pipeline(pipeline.PipelineConfig.from_manifest(MC_MANIFEST),
                                    meanwhile=lambda nominal: forks.append(len(pids)))
    finally:
        os.fork = fork
    return out.monte_carlo, forks


@pytest.mark.parametrize("pool", ["pool", "process_pool_executor"])
def test_run_pipeline_in_a_pool_worker_runs_its_trials_there(monkeypatch, forked, pool):
    # a caller's pool already runs one process per CPU: inside its worker the
    # trials run in that process, with the main process's spread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    want, forks = _monte_carlo_and_forks()
    assert forks == [2]  # here the trials run in two forked workers
    context = multiprocessing.get_context("fork")
    if pool == "pool":
        with context.Pool(1) as workers_pool:
            got = workers_pool.apply(_monte_carlo_and_forks)
    else:
        with ProcessPoolExecutor(1, mp_context=context) as executor:
            got = executor.submit(_monte_carlo_and_forks).result()
    assert got == (want, [0])
    assert len(forked) == 3  # the two workers and the pool's worker, all reaped


def test_partner_sync_is_a_barrier_on_shared_arrays(forked):
    # each side writes its slot at every step: after a sync the other's write
    # of that step is seen, and a second sync keeps the next write from
    # landing before the other side has read
    pair = Partner(((2,), np.int64))
    (slots,) = pair.arrays
    assert slots.tolist() == [0, 0]

    def program(side):
        for step in range(1, 2001):
            slots[side] = step
            pair.sync()
            if slots[1 - side] != step:
                raise AssertionError(f"side {side} saw {slots[1 - side]} at step {step}")
            pair.sync()

    with pair.running(partial(program, 0)):
        program(1)
    assert slots.tolist() == [2000, 2000]
    assert len(forked) == 1


def test_partner_names_an_exception_that_does_not_pickle(forked):
    class Local(Exception):
        pass

    def there():
        raise Local("in the partner")

    with pytest.raises(ChildProcessError) as exc:
        with Partner().running(there):
            pass
    (pid,) = forked
    assert str(exc.value) == f"partner process {pid} raised Local: in the partner"


@pytest.mark.parametrize("steps", [1, 0])
def test_partner_that_ends_while_the_caller_waits(monkeypatch, forked, steps):
    # the partner ends while the caller yields in its spin: after its step,
    # which is not an error, or before it, which is
    monkeypatch.setattr(os, "sched_yield", lambda: time.sleep(0.05))
    pair = Partner()

    def there():
        time.sleep(0.01)
        for _ in range(steps):
            pair.sync()

    if steps:
        with pair.running(there):
            pair.sync()
    else:
        with pytest.raises(ChildProcessError) as exc:
            with pair.running(there):
                pair.sync()
        (pid,) = forked
        assert str(exc.value) == f"partner process {pid} ended before its step 1"
