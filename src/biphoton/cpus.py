"""Where work runs: :func:`workers`, the one rule for the CPUs this process
may use; :class:`Partner`, a forked process for one half of a split, where
:func:`partner_ok` allows it; and :class:`MonteCarloWorkers`, the Monte Carlo
trials in forked processes.  In a ``multiprocessing`` child none of them
starts a process."""

import functools
import math
import os
import platform
import signal
import sys
import threading
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


# the partner runs on x86-64 alone: the sync counts need each side's stores to
# reach the other in program order (total store order), which this hardware keeps
_STORE_ORDERED = ("x86_64", "amd64")
# the mapping's first page holds the two sides' sync counts, a cache line
# apart, and the length of the partner's pickled exception (int64 slots),
# whose bytes follow up to _HEADER; the arrays start on the next page
_CALLER, _PARTNER, _ERROR_LENGTH = 0, 8, 16
_ERROR_AT, _HEADER = 192, 4096
_ALIGN = 64
# spins between two sched_yield calls, and checks that the other side lives
_SPINS = 128


def partner_ok() -> bool:
    """Whether a block may run one half in a forked :class:`Partner`: two CPUs
    by :func:`workers`, ``os.fork`` exists, this process runs one thread
    (forking beside another can deadlock the child), and the hardware keeps
    stores in order (x86-64)."""
    return (workers(2) == 2 and hasattr(os, "fork") and threading.active_count() == 1
            and platform.machine() in _STORE_ORDERED)


class Partner:
    """One half of a block in a forked process, beside the calling one.

    ``Partner(*specs)`` maps ``arrays``, one zeroed array per (shape, dtype)
    spec, in one anonymous shared mapping.  The arrays are ordinary numpy
    arrays that both processes see, and the mapping is freed with the last
    of them.  ``with partner.running(there):`` forks the partner, which runs
    ``there()`` on its copy of this process while the block's body runs here.
    Each side calls ``sync()`` after each step, as a barrier: it counts the
    step done in its slot of the mapping and spins until the other side has
    done as many.  There is no queue and no interpreter lock between the
    sides.  Leaving the block normally waits for the partner to end; an
    exception the partner raises, with its type and message, is raised here
    then, or from the ``sync()`` that waits for it.  Either way, and when the
    body raises, the partner is reaped before the block is left, killed
    first when it still runs.  A partner whose caller has ended exits at its
    next spin.
    """

    def __init__(self, *specs):
        import mmap  # here: importing biphoton, or a run on one CPU, maps nothing

        offsets, size = [], _HEADER
        for shape, dtype in specs:
            offsets.append(size)
            size += -(-math.prod(shape) * np.dtype(dtype).itemsize // _ALIGN) * _ALIGN
        self._map = mmap.mmap(-1, size)  # anonymous and MAP_SHARED: written on both sides of the fork
        self.arrays = [np.frombuffer(self._map, dtype, math.prod(shape), offset).reshape(shape)
                       for (shape, dtype), offset in zip(specs, offsets)]
        self._slots = memoryview(self._map)[:_ERROR_AT].cast("q")
        self._side, self._other = _CALLER, _PARTNER
        self._steps = 0
        self._pid = self._caller = None  # the partner's pid here, the caller's pid there
        self._alive = False  # here: the partner is forked and not yet reaped

    @contextmanager
    def running(self, there):
        """Fork the partner, which runs ``there()`` while the block runs here."""
        caller = os.getpid()
        # blocked across the fork, so that neither signal runs the caller's handlers in the partner
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
        try:
            pid = os.fork()
            if pid == 0:
                self._serve(there, caller, blocked)
            self._pid, self._alive = pid, True
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        try:
            yield
            if self._alive:
                self._ended(os.waitpid(self._pid, 0)[1])
        finally:
            if self._alive:
                os.kill(self._pid, signal.SIGKILL)
                os.waitpid(self._pid, 0)
                self._alive = False

    def sync(self):
        """Count one more step done on this side, then wait until the other
        side has done as many.  Every ``_SPINS`` spins the wait yields the
        CPU, so that a third runnable process slows it only gradually, and
        checks that the other side still runs."""
        self._steps += 1
        slots, other, steps = self._slots, self._other, self._steps
        slots[self._side] = steps
        spins = 0
        while slots[other] < steps:
            spins += 1
            if spins % _SPINS == 0:
                os.sched_yield()
                self._check(steps)

    def _check(self, steps):
        if self._caller is not None:  # in the partner, which is reparented when the caller ends
            if os.getppid() != self._caller:
                raise ChildProcessError(f"the caller of partner process {os.getpid()} ended")
            return
        if self._alive:
            pid, status = os.waitpid(self._pid, os.WNOHANG)
            if not pid:
                return
            self._ended(status)
        # the partner returned: from its last step, or before this one
        if self._slots[self._other] < steps:
            raise ChildProcessError(f"partner process {self._pid} ended before its step {steps}")

    def _ended(self, status):
        """The partner has ended with wait status ``status`` and is reaped:
        raise its exception, or ``ChildProcessError`` when it did not end by
        returning."""
        self._alive = False
        code = os.waitstatus_to_exitcode(status)
        if code == 0:
            return
        length = self._slots[_ERROR_LENGTH]
        if length:
            import pickle

            raise pickle.loads(self._map[_ERROR_AT:_ERROR_AT + length])
        raise ChildProcessError(f"partner process {self._pid} ended with exit code {code} before its half was done")

    def _serve(self, there, caller, blocked):
        """The partner's body: run ``there()``, and leave only through
        ``os._exit``, so that none of the caller's ``finally`` blocks, atexit
        handlers or buffered output runs here.  An exception is pickled into
        the mapping for the caller."""
        code = 1
        try:
            # a terminal's Ctrl-C reaches the whole process group; the caller handles it and stops the partner
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
            self._side, self._other, self._caller = _PARTNER, _CALLER, caller
            there()
            code = 0
        except BaseException as exc:  # noqa: BLE001 - raised again in the caller
            import pickle

            try:
                data = pickle.dumps(exc)
                pickle.loads(data)
            except Exception:  # noqa: BLE001 - an exception that does not round-trip is named instead
                data = b""
            if not 0 < len(data) <= _HEADER - _ERROR_AT:
                named = f"partner process {os.getpid()} raised {type(exc).__name__}: {exc}"
                data = pickle.dumps(ChildProcessError(named[:_HEADER // 2]))
            self._map[_ERROR_AT:_ERROR_AT + len(data)] = data
            self._slots[_ERROR_LENGTH] = len(data)
        finally:
            os._exit(code)


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
