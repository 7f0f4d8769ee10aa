import pytest


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)`` wraps ``owner.name`` for the test and returns its call log.

    The wrapper still runs the real function; the log holds each call's
    positional arguments, as a tuple, in call order.
    """

    def watch(owner, name):
        real = getattr(owner, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return watch
