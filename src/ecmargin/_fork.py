"""The one fork policy: share(mine, theirs) runs mine() here while a forked
child runs theirs(), and hands back the child's bytes.

``metrics.load_scores`` parses the second half of a long plain scores file,
``metrics --pr-curve`` formats the second half of a long curve, ``verify.run``
runs the units after its cut (the later bounds sandwich blocks and the suites
after them, about half the estimated cost), and ``sandbox.train`` trains the
second class block of a linear head in such a child.  A child starts only
when a fork is available, safe (no other thread is alive) and has a second
CPU to run on.  Each caller does the child's share itself when share returns
None, so the result never depends on the fork.
"""

from __future__ import annotations

import io
import os
import threading


def usable_cpus() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    return 1 if getaffinity is None else len(getaffinity(0))


def share(mine, theirs) -> tuple[object, bytes | None]:
    """(mine(), the bytes theirs() returned in a forked child), or None for
    the bytes when theirs is None, no child could start or the child failed.
    The child is collected and reaped on every path, mine() raising too."""
    can_fork = hasattr(os, "fork") and threading.active_count() == 1 and usable_cpus() >= 2
    child = _fork(theirs) if theirs is not None and can_fork else None
    try:
        result = mine()
    finally:
        data = _collect(child)
    return result, data


def _fork(produce) -> tuple[int, io.BufferedReader] | None:
    """Fork a child that sends its pid, a newline and the bytes produce()
    returns through a pipe: (pid, the pipe's read end), or None when no child
    could be started."""
    read_fd, write_fd = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except BaseException as error:
        if os.getpid() != parent:  # an interrupt reached the child before pid was bound
            pid = 0
        else:
            # The child may exist already: Python 3.12 raises its fork warning,
            # when made an error, after forking, and an interrupt can land
            # before pid is bound.  Its pid comes first on the pipe; reap it.
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
                pipe.write(produce())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _collect(child) -> bytes | None:
    """The bytes a child from _fork sent, or None when there was no child or
    it failed.  The pipe is closed and the child reaped on every path."""
    if child is None:
        return None
    pid, pipe = child
    data = io.BytesIO()  # filled block by block: one read of it all holds it twice
    try:
        pipe.readline()  # the child's pid
        while block := pipe.read(1 << 16):
            data.write(block)
    finally:
        pipe.close()
        _, status = os.waitpid(pid, 0)
    return data.getvalue() if os.waitstatus_to_exitcode(status) == 0 else None
