"""One job, run in a worker process while this one does its own share.

A job is a generator function and its arguments: its first reply is
``next(job(*args))``, and every later one answers a command sent into it.
A pair command runs at most two such jobs on the second snapshot, one
after the other, each in a worker of its own: one parses it
(``ingest.load_pair``) and one labels it (``labeling.labeling_job``).
``main`` keeps no reply once it is sent, so what the job drops is freed.

The worker is a child forked from this process, so the job and its
arguments are already in its memory; only commands and replies cross
its two pipes, as pickles.  A child is forked only when all of these
hold, and otherwise, or when the fork fails, the job runs in this
process, a reply at a time, as its replies are received:

- the caller asks for it (``in_worker``, its own size gate);
- this process has two usable CPUs at least;
- ``os.fork`` exists;
- this process runs no other thread, whose locks the child could
  inherit held.

The child runs only the job, with its collector off, and leaves through
``os._exit``: no exit handler, no flush of inherited buffers.

A ``RoadmatchError`` or ``OSError`` that the job raises in the worker is
sent in place of its reply and raised again by ``receive``, as it would
be in process.  A worker that ends without its reply raises
``InternalError`` with its exit status and the tail of its stderr.
Leaving ``job``'s block, normally or by any exception, kills the worker
and reaps it.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import signal
import tempfile
import threading
import traceback
from collections.abc import Callable, Iterator
from typing import BinaryIO

from .errors import InternalError, RoadmatchError

_STDERR_TAIL = 2000


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _InProcess:
    """Runs the job in this process, a reply at a time, when it is asked."""

    forked = False

    def __init__(self, replies: Iterator):
        self._replies = replies
        self._command = None

    def send(self, command) -> None:
        self._command = command

    def receive(self):
        return self._replies.send(self._command)

    def close(self) -> None:
        self._replies.close()


class _Worker:
    """The job in a forked child, spoken to through pickles on two pipes.
    ``close`` kills and reaps the child: by then it has sent all it was
    asked for, or it is not wanted any more."""

    forked = True

    def __init__(self, func: Callable[..., Iterator], args: tuple):
        self._name = f"{func.__module__}.{func.__qualname__}"
        self._status = None  # the exit status, once reaped
        self._stderr = tempfile.TemporaryFile()
        fds: list[int] = []
        try:
            fds += os.pipe()  # commands: the child reads, this process writes
            fds += os.pipe()  # replies: this process reads, the child writes
            self._pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            self._stderr.close()
            raise
        if self._pid == 0:
            _serve(func, args, fds, self._stderr.fileno())
        os.close(fds[0])
        os.close(fds[3])
        self._commands = os.fdopen(fds[1], "wb")
        self._replies = os.fdopen(fds[2], "rb")

    def send(self, command) -> None:
        try:
            pickle.dump(command, self._commands, pickle.HIGHEST_PROTOCOL)
            self._commands.flush()
        except BrokenPipeError:
            raise self._died() from None

    def receive(self):
        try:
            ok, reply = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            raise self._died() from None
        if not ok:
            raise reply  # the job's own error, raised in the worker
        return reply

    def _reap(self) -> None:
        _, status = os.waitpid(self._pid, 0)
        self._status = os.waitstatus_to_exitcode(status)

    def _died(self) -> InternalError:
        # Its pipe closed, so the child is exiting: only it held that end.
        self._reap()
        size = self._stderr.seek(0, os.SEEK_END)
        self._stderr.seek(max(0, size - _STDERR_TAIL))
        tail = self._stderr.read().decode(errors="replace").strip()
        return InternalError(
            f"worker running {self._name} ended without its reply "
            f"(exit status {self._status}); stderr: {tail or '(empty)'}"
        )

    def close(self) -> None:
        if self._status is None:
            os.kill(self._pid, signal.SIGKILL)
            self._reap()
        with contextlib.suppress(BrokenPipeError):
            self._commands.close()  # flushes whatever a failed send left
        self._replies.close()
        self._stderr.close()


def _serve(func, args, fds: list[int], stderr: int):
    """The forked child: ``main`` on the pipes ``fds``, then exit 0, or 1
    with a traceback on stderr; it never returns into the caller's frames."""
    code = 1
    try:
        gc.disable()
        os.dup2(stderr, 2)
        os.close(fds[1])
        os.close(fds[2])
        main(func(*args), os.fdopen(fds[0], "rb"), os.fdopen(fds[3], "wb"))
        code = 0
    except BaseException:  # the child's last frame: report, then exit
        with contextlib.suppress(BaseException):
            os.write(2, traceback.format_exc().encode(errors="replace"))
    finally:
        os._exit(code)


def main(replies: Iterator, commands: BinaryIO, out: BinaryIO) -> None:
    """The worker's loop: the job's replies to ``out``, ``commands`` into it.

    Each reply goes out as (True, reply); an input or OS error raised by
    the job goes out as (False, error) and ends the loop, as does the end
    of the commands.
    """
    command = None  # the first send starts the job
    while True:
        try:
            reply = (True, replies.send(command))
        except (RoadmatchError, OSError) as e:
            reply = (False, e)
        pickle.dump(reply, out, pickle.HIGHEST_PROTOCOL)
        out.flush()
        if not reply[0]:
            return
        reply = None  # the job may drop what it sent while it makes the next
        try:
            command = pickle.load(commands)
        except EOFError:
            return


@contextlib.contextmanager
def job(func: Callable[..., Iterator], *args, in_worker: bool):
    """Run ``func(*args)``, in a worker process when ``in_worker`` and the
    other conditions above hold; yields its peer.

    ``peer.receive()`` returns the job's next reply and ``peer.send(command)``
    passes the command the job gets back from its next ``yield``;
    ``peer.forked`` tells whether a child runs the job, so that every
    reply is a copy unpickled here.  Start the job, do this process's own
    work, then receive: the two run at the same time.  Without a worker, or when no child can be forked, the job runs in
    this process as its replies are received, with the same results.
    """
    peer = None
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    if in_worker and usable_cpus() >= 2 and forkable:
        try:
            peer = _Worker(func, args)
        except OSError:
            pass  # no child to fork: run in process
    if peer is None:
        peer = _InProcess(func(*args))
    try:
        yield peer
    finally:
        peer.close()
