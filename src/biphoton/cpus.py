"""Where work runs: :func:`workers`, the one rule for the CPUs this process
may use; :func:`helper`, a second thread for one half of a split; and
:class:`MonteCarloWorkers`, the Monte Carlo trials in forked processes.  In
a ``multiprocessing`` child none of them starts a thread or a process."""

import contextvars
import functools
import os
import signal
import sys
from contextlib import contextmanager

import numpy as np


def workers(limit):
    """The CPUs this process may use, at most ``limit``: those in its affinity
    mask, else ``os.cpu_count()``.  A ``multiprocessing`` child, such as a
    forked Monte Carlo worker or a caller's pool worker, uses one, as its
    pool already runs one process per CPU."""
    multiprocessing = sys.modules.get("multiprocessing")  # a child has it loaded
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return min(1, limit)
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        count = os.cpu_count() or 1
    return min(count, limit)


@contextmanager
def helper(active):
    """Yields ``both(there, here)``, which calls ``there()`` on a helper
    thread while ``here()`` runs on this one and returns once both have
    ended; without ``active`` it calls them in that order on this thread and
    no thread starts.  The helper runs in a copy of this thread's context,
    so the caller's ``np.errstate`` holds there too; an exception of either
    call is raised here, and leaving the block joins the helper, so no
    caller forks beside it.  Each hand-off is one put and one get on a pair
    of queues, which took 0.91 of the time of a thread pool's submit and
    result at n = 256."""
    if not active:
        yield lambda there, here: (there(), here())
        return
    # imported here so that importing biphoton starts no thread machinery
    import queue
    import threading

    jobs, outcomes = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        while (there := jobs.get()) is not None:
            try:
                there()
            except BaseException as exc:  # noqa: BLE001 - raised again on the calling thread
                outcomes.put(exc)
            else:
                outcomes.put(None)

    def both(there, here):
        jobs.put(there)
        try:
            here()
        finally:
            exc = outcomes.get()  # there() has ended
        if exc is not None:
            raise exc

    thread = threading.Thread(target=contextvars.copy_context().run, args=(serve,), name="biphoton-helper")
    thread.start()
    try:
        yield both
    finally:
        jobs.put(None)
        thread.join()


def _run_chunk(trial, seeds, conn, parent_ends):
    """A forked worker's body: run ``trial`` on its chunk of seeds and send
    the outcomes back on ``conn``.  The warm start is received the first
    time ``trial`` asks for it; a closed pipe there, or when sending, means
    the caller has stopped the run, and the worker exits quietly."""
    # a terminal's Ctrl-C reaches the whole process group; the caller handles it and stops the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:  # held open here, they would outlive the caller and keep a worker waiting for its start
        end.close()

    @functools.cache
    def start():
        try:
            return conn.recv()
        except EOFError:
            sys.exit()  # SystemExit: not caught by a trial's ``except Exception``

    try:
        conn.send(trial(seeds, start))
    except ConnectionError:
        pass


def _exchange(process, action, *args):
    """``action(*args)`` on a worker's pipe.  A pipe the worker closed by
    ending raises ``ChildProcessError`` instead of a hang or a pipe error."""
    try:
        return action(*args)
    except (EOFError, ConnectionError):
        # raised below, not as this error's context: kept as a context, a failed send's frames and
        # the pickle buffer they export were left to the cycle collector, which raised BufferError
        pass
    process.join()
    raise ChildProcessError(f"Monte Carlo worker {process.pid} ended with exit code {process.exitcode} "
                            "before it returned its trials")


class MonteCarloWorkers:
    """Monte Carlo trials started before their warm start is known.

    Trial k's noise seed is entry 2k of ``generate_state(2 * trials)`` of
    one ``SeedSequence`` of ``seed``.  ``trial(noise_seeds, start)`` runs
    the trials of a list of seeds and returns one outcome per seed:
    (chirp_s, chirp_i), or a string naming the exception a failed trial
    raised.  ``start()`` returns the warm start; a trial can prepare its
    first trials before it calls it.

    The seeds are split into one contiguous chunk per worker (chunk sizes
    differ by at most one), ``workers(trials)`` of them.  With more than one
    worker and fork available, each chunk runs at once in a forked process,
    which inherits ``trial``, and waits in ``start()`` until ``send`` sends
    the start.  With one worker (as in a ``multiprocessing`` child) or no
    fork, the whole list runs in this process inside ``collect``; zero
    trials, an empty pool, import no ``multiprocessing``.  Used as a context
    manager, the workers still running when the block exits (on an
    exception) are terminated and joined.
    """

    def __init__(self, trial, trials: int, seed: int):
        if trials == 1 or trials < 0:
            raise ValueError(f"need 0 or at least 2 trials, not {trials}")
        self._trial = trial
        # entry 2k: the stride keeps trial k's noise draw stable across versions
        self.seeds = np.random.SeedSequence(seed).generate_state(2 * trials)[::2].tolist()
        self._workers = []  # (process, this process's end of its pipe)
        count = workers(trials)
        if count < 2:
            return
        # imported here: importing biphoton, or a pool of one worker or none, loads no process machinery
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return
        # a Process and Pipe per worker, started now, not a pool at the call:
        # the workers prepare their first stack while the caller retrieves the
        # nominal state, and run the trials while it writes its files.  Fork,
        # not spawn: the workers inherit ``trial`` and the data it holds
        # without a pickle or a fresh import of numpy.
        context = multiprocessing.get_context("fork")
        bounds = [trials * w // count for w in range(count + 1)]
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                parent_end, child_end = context.Pipe()
                parent_ends = [end for _, end in self._workers] + [parent_end]
                process = context.Process(target=_run_chunk, daemon=True,
                                          args=(trial, self.seeds[lo:hi], child_end, parent_ends))
                process.start()
                child_end.close()  # the worker's end lives in the worker alone, so its exit closes the pipe
                self._workers.append((process, parent_end))
        except BaseException:
            self.stop()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def send(self, start):
        """Hand the trials their warm start ``start``: send it to each worker,
        or keep it for ``collect`` when the trials run in this process."""
        self._start = start
        for process, conn in self._workers:
            _exchange(process, conn.send, start)

    def collect(self) -> list:
        """Every trial's outcome, in trial order: the workers', or those of
        the trials run here from the start ``send`` kept.  A worker that ends
        without returning its outcomes raises ``ChildProcessError``."""
        if not self._workers:
            return self._trial(self.seeds, lambda: self._start)
        outcomes = []
        for process, conn in self._workers:
            outcomes += _exchange(process, conn.recv)
        for process, conn in self._workers:
            conn.close()
            process.join()
        self._workers = []
        return outcomes

    def stop(self):
        """Terminate and join the workers that are still running."""
        for process, conn in self._workers:
            conn.close()
            process.terminate()
        for process, _ in self._workers:
            process.join()
        self._workers = []
