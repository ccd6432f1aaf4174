"""Where work runs: :func:`workers`, the one rule for the CPUs this process
may use; :class:`Partner`, a forked process for one half of a split, where
:func:`partner_ok` allows it; and :class:`MonteCarloWorkers`, the Monte Carlo
trials in forked processes, both started by :func:`_fork`.  In a process it
started, or in a ``multiprocessing`` child, none of them starts a process."""

import functools
import math
import os
import pickle
import platform
import signal
import sys
import threading
from contextlib import AbstractContextManager, contextmanager

import numpy as np

_forked = False  # set in a process that _fork started


def workers(limit):
    """The CPUs this process may use, at most ``limit``: those in its affinity
    mask, else ``os.cpu_count()``.  A process that :func:`_fork` started, or
    a ``multiprocessing`` child such as a caller's pool worker, uses one, as
    its pool already runs one process per CPU."""
    multiprocessing = sys.modules.get("multiprocessing")  # a child has it loaded
    if _forked or multiprocessing is not None and multiprocessing.parent_process() is not None:
        return min(1, limit)
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        count = os.cpu_count() or 1
    return min(count, limit)


def _fork(body, close=()):
    """Fork a child that closes the sockets ``close`` and runs ``body()``; its
    pid.  The child ignores SIGINT (a terminal's Ctrl-C reaches the whole
    process group, and the caller stops the child), leaves SIGTERM at its
    default and exits only through ``os._exit``, 1 when ``body`` raises: no
    ``finally`` block, atexit handler or traceback of the caller runs there."""
    global _forked
    # blocked across the fork, so that neither signal runs the caller's handlers in the child
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
    try:
        pid = os.fork()
        if pid == 0:
            try:
                _forked = True
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
                for end in close:
                    end.close()
                body()
                os._exit(0)
            finally:  # reached when a step above raised
                os._exit(1)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
    return pid


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
        self._pid, self._alive = _fork(functools.partial(self._serve, there, os.getpid())), True
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
            raise pickle.loads(self._map[_ERROR_AT:_ERROR_AT + length])
        raise ChildProcessError(f"partner process {self._pid} ended with exit code {code} before its half was done")

    def _serve(self, there, caller):
        """The partner's body: ``there()``, whose exception is pickled for the caller."""
        self._side, self._other, self._caller = _PARTNER, _CALLER, caller
        try:
            there()
        except BaseException as exc:
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
            raise


def _run_chunk(trial, seeds, conn):
    """A forked worker's body: run ``trial`` on its chunk of seeds and send
    the outcomes back on ``conn``.  The start is read when ``trial`` first
    asks for it, or after it, so that the worker's exit reads as end-of-file
    to the caller, not as a reset; end-of-file there stops the worker."""

    @functools.cache
    def start():
        with conn.makefile("rb") as reader:
            try:
                return pickle.load(reader)
            except EOFError:
                raise SystemExit from None  # not caught by a trial's ``except Exception``

    outcomes = trial(seeds, start)
    start()
    conn.sendall(pickle.dumps(outcomes))


class MonteCarloWorkers(AbstractContextManager):
    """Monte Carlo trials started before their warm start is known.

    Trial k's noise seed is entry 2k of ``generate_state(2 * trials)`` of
    one ``SeedSequence`` of ``seed``.  ``trial(noise_seeds, start)`` runs
    the trials of a list of seeds and returns one outcome per seed:
    (chirp_s, chirp_i), or a string naming the exception a failed trial
    raised.  ``start()`` returns the warm start; a trial can prepare its
    first trials before it calls it.

    The seeds are split into one contiguous chunk per worker (chunk sizes
    differ by at most one), ``workers(trials)`` of them.  With two or more
    and ``os.fork``, each chunk runs at once in a forked process, which
    inherits ``trial`` and waits in ``start()`` until ``send`` sends the
    start; otherwise (zero trials make an empty pool) the whole list runs in
    this process inside ``collect``.  Used as a context manager, the workers
    still running when the block exits (on an exception) are killed.
    """

    def __init__(self, trial, trials: int, seed: int):
        if trials == 1 or trials < 0:
            raise ValueError(f"need 0 or at least 2 trials, not {trials}")
        self._trial = trial
        # entry 2k: the stride keeps trial k's noise draw stable across versions
        self.seeds = np.random.SeedSequence(seed).generate_state(2 * trials)[::2].tolist()
        self._workers = []  # [pid, this process's end of its socket pair]
        count = workers(trials)
        if count < 2 or not hasattr(os, "fork"):
            return
        import socket  # here: importing biphoton, or a pool of one worker or none, loads no socket

        # started now: the workers prepare their first stack while the caller
        # retrieves the nominal state.  Fork, not spawn: they inherit ``trial``
        # and its data.  A socket pair buffers a pickled n = 64 start; a pipe does not.
        bounds = [trials * w // count for w in range(count + 1)]
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                here, there = socket.socketpair()
                self._workers.append(worker := [None, here])  # its pid once forked
                with there:  # each end in one process alone, so that either side sees the other's exit
                    worker[0] = _fork(functools.partial(_run_chunk, trial, self.seeds[lo:hi], there),
                                      close=[end for _, end in self._workers])
        except BaseException:
            self.stop()
            raise

    def __exit__(self, *exc_info):
        self.stop()

    def send(self, start):
        """Hand the trials their warm start ``start``: send it to each worker,
        or keep it for ``collect`` when the trials run in this process."""
        self._start = start
        data = pickle.dumps(start) if self._workers else b""
        for worker in list(self._workers):
            try:
                worker[1].sendall(data)
            except ConnectionError:  # the worker has ended
                self._reap(worker)

    def collect(self) -> list:
        """Every trial's outcome, in trial order: the workers', or those of
        the trials run here from the start ``send`` kept.  A worker that ends
        without returning its outcomes raises ``ChildProcessError``."""
        if not self._workers:
            return self._trial(self.seeds, lambda: self._start)
        outcomes = []
        for worker in list(self._workers):
            try:
                with worker[1].makefile("rb") as reader:
                    data = reader.read()  # up to the worker's exit
            except ConnectionError:  # reset: the worker ended without reading its start
                data = b""
            self._reap(worker)
            outcomes += pickle.loads(data)
        return outcomes

    def _reap(self, worker):
        """Reap ``worker``, which has closed its socket; ``ChildProcessError`` unless it exited 0."""
        self._workers.remove(worker)
        worker[1].close()
        if code := os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1]):
            raise ChildProcessError(f"Monte Carlo worker {worker[0]} ended with exit code {code} "
                                    "before it returned its trials")

    def stop(self):
        """Kill and reap the workers that are still running."""
        for pid, conn in self._workers:
            conn.close()
            if pid is not None:  # None: its fork failed
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        self._workers = []
