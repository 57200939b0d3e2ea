"""The fork-join contract of ``_fork.share``, tested on share alone:
share(mine, theirs) returns (mine(), theirs()), with theirs() run in a forked
child when one is available and in this process when no child started or
the child failed."""

import os
import signal
import threading
import time

import numpy as np
import pytest

from ecmargin import _fork


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds() -> set[str]:
    return set(os.listdir("/dev/fd"))


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)


@pytest.fixture
def here():
    """The calls of theirs() made in this process, recorded by counted."""
    return []


def counted(here, produce):
    """produce, with each call made in this process appended to here."""
    parent = os.getpid()

    def theirs():
        if os.getpid() == parent:
            here.append(1)
        return produce()

    return theirs


def in_child(action):
    """A theirs() that calls action() in a forked child and returns "here"
    when run in this process."""
    parent = os.getpid()

    def theirs():
        if os.getpid() != parent:
            action()
        return "here"

    return theirs


class ExitWhenPickled:
    """Ends the child with exit code 3 while its result is being pickled."""

    def __reduce__(self):
        os._exit(3)


@pytest.mark.parametrize(
    "value",
    [
        np.arange(300_000, dtype=np.float64) / 7,
        np.arange(10, dtype=np.int32)[::3],
        np.array([True, False, True]),
        b"\x00\xff" * 200_000,
        [{"name": "bounds", "checks": [{"passed": True, "slack": 0.25}]}, {"n": 2**70}],
    ],
    ids=["float-array", "strided-int-array", "bool-array", "bytes", "list-of-dicts"],
)
def test_a_picklable_result_comes_back_whole(forks, here, value):
    fds = open_fds()
    mine, theirs = _fork.share(os.getpid, counted(here, lambda: (os.getpid(), value)))
    pid, got = theirs
    assert mine == os.getpid() != pid  # mine() ran here, theirs() in the child
    assert len(forks) == 1 and here == []
    if isinstance(value, np.ndarray):
        assert got.dtype == value.dtype and np.array_equal(got, value)
    else:
        assert got == value
    assert_no_children()
    assert open_fds() == fds


def test_no_theirs_returns_none_and_forks_nothing(forks):
    assert _fork.share(lambda: 5, None) == (5, None)
    assert forks == []


def test_a_child_returning_none_hands_back_none(forks, here):
    assert _fork.share(lambda: 1, counted(here, lambda: None)) == (1, None)
    assert len(forks) == 1 and here == []
    assert_no_children()


class TestTheirsRunsHereWithNoFork:
    def test_on_one_cpu(self, monkeypatch, forks, here):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 1)
        assert not _fork.available()
        assert _fork.share(lambda: 1, counted(here, lambda: 2)) == (1, 2)
        assert forks == [] and here == [1]

    def test_while_another_thread_is_alive(self, forks, here):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not _fork.available()
            assert _fork.share(lambda: 1, counted(here, lambda: 2)) == (1, 2)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert forks == [] and here == [1]

    def test_when_the_fork_fails(self, monkeypatch, here):
        def failing_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        fds = open_fds()
        assert _fork.share(lambda: 1, counted(here, lambda: 2)) == (1, 2)
        assert here == [1]
        assert open_fds() == fds


@pytest.mark.parametrize(
    "action",
    [
        lambda: 1 / 0,
        lambda: os.kill(os.getpid(), signal.SIGKILL),
        lambda: os._exit(0),
    ],
    ids=["raises", "sigkill", "exits-0-with-no-pickle"],
)
def test_theirs_runs_here_when_the_child_fails(forks, action):
    fds = open_fds()
    assert _fork.share(lambda: 1, in_child(action)) == (1, "here")
    assert len(forks) == 1
    assert_no_children()
    assert open_fds() == fds


def test_theirs_runs_here_after_a_truncated_pickle(forks, here):
    """The child writes a megabyte of its pickle, then exits 3."""
    payload = b"x" * 2**20
    fds = open_fds()
    mine, theirs = _fork.share(lambda: 1, counted(here, lambda: [payload, ExitWhenPickled()]))
    assert mine == 1 and theirs[0] == payload
    assert len(forks) == 1 and here == [1]
    assert_no_children()
    assert open_fds() == fds


@pytest.mark.parametrize("error", [ZeroDivisionError, KeyboardInterrupt])
def test_the_child_is_killed_when_mine_raises(forks, error):
    def mine():
        raise error("mine failed")

    fds = open_fds()
    start = time.monotonic()
    with pytest.raises(error):
        _fork.share(mine, lambda: time.sleep(10))
    assert time.monotonic() - start < 2
    assert len(forks) == 1
    assert_no_children()
    assert open_fds() == fds


@pytest.mark.parametrize("error", [DeprecationWarning, KeyboardInterrupt])
def test_a_fork_that_raises_after_forking_leaves_no_child(monkeypatch, error):
    """An interrupt can land in the parent after the child exists, before
    pid is bound; the DeprecationWarning stands for any other exception
    raised there, since CPython clears its own fork warning even when a
    filter makes it an error."""
    real_fork = os.fork

    def raising_fork():
        if real_fork() != 0:
            raise error("raised after forking")
        return 0

    monkeypatch.setattr(os, "fork", raising_fork)
    fds = open_fds()
    with pytest.raises(error):
        _fork.share(lambda: 1, lambda: 2)
    assert_no_children()
    assert open_fds() == fds
