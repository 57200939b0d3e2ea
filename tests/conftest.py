import os
import warnings

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def forks(monkeypatch):
    """The forks made from now on, counted in this process."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture(autouse=True)
def no_fork_with_threads():
    """Fail a test during which the process forked while another thread was
    alive.  Python 3.12 and later warn then with a DeprecationWarning that
    begins "This process"; CPython clears that warning even when a filter
    makes it an error, so -W error cannot catch it.  Here an "always" filter
    shows it, only it is recorded, and every other warning reaches the
    suite's own filters as before.  Before 3.12 there is no such warning."""
    forked = []
    with warnings.catch_warnings():
        warnings.filterwarnings("always", message="This process", category=DeprecationWarning)
        show = warnings.showwarning

        def record(message, category, *args, **kwargs):
            if issubclass(category, DeprecationWarning) and str(message).startswith("This process"):
                forked.append(str(message))
            else:
                show(message, category, *args, **kwargs)

        warnings.showwarning = record
        yield
    assert not forked, forked
