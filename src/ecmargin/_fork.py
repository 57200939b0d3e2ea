"""The one fork policy: share(mine, theirs) is a fork-join that returns
(mine(), theirs()), running theirs() in a forked child while this process
runs mine().

The child pickles what theirs() returns onto a pipe, and this process loads it
straight off the pipe.  A child starts only when ``available()``: a fork
exists, no other Python thread is alive (``threading.active_count()``) and a
second CPU can run it.  That count misses OpenBLAS's worker pool, started by
``import numpy``, which is still safe: OpenBLAS's fork handler stops the pool
before the fork, and each process restarts it at its next large product.
When no child started, or the child failed (raised, was killed, or sent a
truncated pickle), theirs() runs here after mine(), so the results never
depend on the fork.  When mine() raises, the child is killed; it is reaped
and its pipe closed on every path.

``metrics.load_scores`` parses the second half of a long plain scores file,
``metrics --pr-curve`` formats the second half of a long curve, ``verify.run``
runs the units after its cut (the later bounds sandwich blocks and the suites
after them, about half the estimated cost), and ``sandbox.train`` trains the
second class block of a linear head in such a child.

The one cut rule: the scores parse and the curve writer cut their rows in two
only when ``available()``, and otherwise do all of them in one piece, so one
CPU never pays for a cut, nor parses a tail after the head has failed.
``verify.run`` and ``sandbox.train`` cut always: their shares are independent
units, and the train blocks fix the loss curve's bits.
"""

from __future__ import annotations

import io
import os
import pickle
import signal
import threading


def usable_cpus() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    return 1 if getaffinity is None else len(getaffinity(0))


def available() -> bool:
    """Whether share would run theirs() in a forked child."""
    return hasattr(os, "fork") and threading.active_count() == 1 and usable_cpus() >= 2


def share(mine, theirs):
    """(mine(), theirs()), theirs() run in a forked child when one is
    available; (mine(), None) when theirs is None."""
    child = _fork(theirs) if theirs is not None and available() else None
    if child is None:
        return mine(), None if theirs is None else theirs()
    pid, pipe = child
    try:
        result = mine()
        pipe.readline()  # the child's pid
        try:
            return result, pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):  # the child failed before its pickle ended
            pass
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        pipe.close()
        os.waitpid(pid, 0)
    return result, theirs()


def _fork(produce) -> tuple[int, io.BufferedReader] | None:
    """Fork a child that sends its pid, a newline and the pickle of what
    produce() returns through a pipe: (pid, the pipe's read end), or None
    when no child could be started."""
    read_fd, write_fd = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except BaseException as error:
        if os.getpid() != parent:  # an interrupt reached the child before pid was bound
            pid = 0
        else:
            # The child may exist already: an interrupt can land after forking,
            # before pid is bound.  (CPython clears its own fork warning, even
            # when a filter makes it an error, so that never raises here.)
            # Its pid comes first on the pipe; reap it.
            os.close(write_fd)
            with open(read_fd, "rb") as pipe:
                header = pipe.readline()
            if header:
                os.waitpid(int(header), 0)
            if isinstance(error, OSError):
                return None
            raise
    if pid == 0:
        # the child leaves only through os._exit, so no inherited buffer is flushed twice
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(b"%d\n" % os.getpid())
                pickle.dump(produce(), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
