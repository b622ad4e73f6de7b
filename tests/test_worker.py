"""The worker's contract (``worker.job``), driven with small jobs.

Its callers, ``ingest.load_pair`` and ``labeling.labeling_job``, test only
what they add: their size gates and results equal with the worker on and
off (``test_pair_loading``, ``test_pair_labeling``).  Tests that need a
fork report two usable CPUs and record every child forked
(``conftest.forced_worker``).  Every test runs under an alarm and ends by
checking that this process has no child left, reaped or not
(``conftest.deadline``).
"""

import contextlib
import io
import os
import pickle
import re
import signal
import threading
import weakref

import pytest

from roadmatch import worker
from roadmatch.errors import InputError, InternalError

from conftest import forced_worker, no_fork, no_worker

pytestmark = pytest.mark.usefixtures("deadline")


def adding(total):
    """Replies with its running total, adding each command to it."""
    while True:
        total += yield total


def failing(error):
    """Replies once, then raises ``error``."""
    yield "first"
    raise error


def exiting(message):
    """Writes ``message`` to stderr and ends its process before replying."""
    os.write(2, message)
    os._exit(3)
    yield


def pausing():
    """Never replies."""
    signal.pause()
    yield


# The replies of adding(1) to the commands 5, -2 and 40.
ADDED = [1, 6, 4, 44]


def added(in_worker):
    with worker.job(adding, 1, in_worker=in_worker) as peer:
        got = [peer.receive()]
        for command in (5, -2, 40):
            peer.send(command)
            got.append(peer.receive())
    return got


def test_same_replies_with_and_without_a_fork():
    with forced_worker() as started:
        got = added(True)
    assert len(started) == 1 and started[0].returncode is not None
    assert got == added(False) == ADDED


class TestInProcess:
    """Each condition of the fork, failed alone, runs the job here."""

    def test_not_asked(self, monkeypatch):
        monkeypatch.setattr(worker, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_worker)
        assert added(False) == ADDED

    def test_fork_fails(self, monkeypatch):
        monkeypatch.setattr(worker, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert added(True) == ADDED

    def test_second_thread_running(self, monkeypatch):
        # A fork copies only the forking thread, so the child could
        # inherit a lock that the other one holds.
        monkeypatch.setattr(worker, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_worker)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert added(True) == ADDED
        finally:
            release.set()
            other.join()

    def test_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "fork", no_worker)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert added(True) == ADDED


@pytest.mark.parametrize(
    "error",
    [InputError("no graph here"), FileNotFoundError(2, "No such file", "g.erg")],
    ids=["input", "os"],
)
def test_job_error_raised_as_in_process(error):
    for in_worker in (False, True):
        with forced_worker() as started:
            with worker.job(failing, error, in_worker=in_worker) as peer:
                assert peer.receive() == "first"
                peer.send(None)
                with pytest.raises(type(error)) as info:
                    peer.receive()
        assert len(started) == in_worker
        assert str(info.value) == str(error)


@pytest.mark.parametrize("error", [RuntimeError, SystemExit])
def test_other_exception_is_internal(error):
    # A job that fails otherwise exits 1 with a traceback: that is a dead
    # worker, never bad input.
    with forced_worker() as started:
        with worker.job(failing, error("no reply here"), in_worker=True) as peer:
            peer.receive()
            peer.send(None)
            with pytest.raises(InternalError) as info:
                peer.receive()
    # The tail of its traceback ends with the exception's line.
    pattern = rf"(?s).*\(exit status 1\); stderr: .*\n{error.__name__}: no reply here"
    assert re.fullmatch(pattern, str(info.value))
    assert started[0].returncode == 1


def test_exit_without_reply_names_status_and_stderr_tail():
    message = b"x" * 3000 + b" no reply either"
    tail = message[-worker._STDERR_TAIL :].decode()
    with forced_worker() as started:
        with worker.job(exiting, message, in_worker=True) as peer:
            with pytest.raises(InternalError) as info:
                peer.receive()
    assert str(info.value) == (
        f"worker running test_worker.exiting ended without its reply (exit status 3); "
        f"stderr: {tail}"
    )
    assert started[0].returncode == 3


def test_killed_before_its_reply():
    with forced_worker() as started:
        with worker.job(pausing, in_worker=True) as peer:
            started[0].kill()
            with pytest.raises(InternalError, match=r"\(exit status -9\); stderr: \(empty\)$"):
                peer.receive()
    assert started[0].returncode == -signal.SIGKILL


class CallerError(Exception):
    """Raised by the caller inside ``job``'s block."""


@pytest.mark.parametrize(
    "error",
    [None, InputError, CallerError, KeyboardInterrupt],
    ids=["normal", "job-error", "caller-error", "interrupt"],
)
def test_every_way_out_kills_and_reaps(error):
    # The child is left waiting for a command, or has sent the job's error.
    with forced_worker() as started, pytest.raises(error) if error else contextlib.nullcontext():
        with worker.job(failing, InputError("bad"), in_worker=True) as peer:
            peer.receive()
            if error is InputError:
                peer.send(None)
                peer.receive()
            elif error is not None:
                raise error
    assert len(started) == 1 and started[0].returncode is not None


class Sent:
    """A reply that can tell whether anything still holds it."""


def forgetting_job():
    """Replies with a ``Sent``, drops it, then replies whether it is gone."""
    sent = Sent()
    gone = weakref.ref(sent)
    yield sent
    del sent
    yield gone() is None


def test_main_holds_no_sent_reply():
    # A tuning worker drops each label count it sent while it grows the
    # next depth; that frees the count only if ``main`` holds no reference
    # to it either.
    stdout = io.BytesIO()
    worker.main(forgetting_job(), io.BytesIO(pickle.dumps(None)), stdout)
    stdout.seek(0)
    ok, reply = pickle.load(stdout)
    assert ok and isinstance(reply, Sent)
    assert pickle.load(stdout) == (True, True)
