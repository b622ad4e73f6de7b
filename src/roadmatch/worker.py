"""One job, run in a worker process while this one does its own share.

A job is a generator function and its arguments: its first reply is
``next(job(*args))``, and every later one answers a command sent into it.
The pair commands start one worker: ``ingest.open_pair`` has it parse the
second snapshot's file while this process parses the first, and the same
worker, still holding that graph, then labels it while this process
labels the first (``labeling.labeling_job``).  The graph it sends back
carries coordinates only for the command that reads them (``validate``),
and it labels a copy without them; once a reply is sent, ``main`` keeps
no reference to it, so what the job drops is freed.  A graph already in
memory is labeled by a worker started for the labeling alone.

The worker is a fresh interpreter that imports this package from the same
location.  It gets the job as a pickle on stdin and answers on stdout; the
function pickles by its qualified name, so it must be a module-level
generator function of this package.  Each caller decides whether a worker
pays (two usable CPUs at least, and its own size gate); otherwise, or when
the interpreter cannot be started, the same job runs in this process, a
reply at a time, when its replies are received.  A ``RoadmatchError`` or
``OSError`` that the job raises in the worker is sent in place of its
reply and raised again by ``receive``, as it would be in process.  A
worker that ends without its reply raises ``InternalError`` with its exit
status and the tail of its stderr.  Leaving ``job``'s block, normally or
by any exception, kills the worker and reaps it.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import subprocess
import sys
import tempfile
import threading
from collections.abc import Callable, Iterator

from .errors import InternalError, RoadmatchError

# Runs in the worker: the package root is its only argument, ahead of
# everything else on the path; -I -S keeps the environment and site
# packages out.
_WORKER_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from roadmatch.worker import main; main()"
)
_STDERR_TAIL = 2000


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _InProcess:
    """Runs the job in this process, a reply at a time, when it is asked."""

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
    """The job in a worker process, spoken to through pickles on its pipes.

    A thread writes the job to the worker's stdin, so that this process can
    go on while the worker starts.  ``close`` kills the worker and waits for
    it: by then it has sent everything it was asked for, or it is not
    wanted any more.
    """

    def __init__(self, func: Callable[..., Iterator], args: tuple):
        self._name = f"{func.__module__}.{func.__qualname__}"
        payload = pickle.dumps((func, args), pickle.HIGHEST_PROTOCOL)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self._feeder = threading.Thread(target=self._feed, args=(payload,), daemon=True)
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", _WORKER_CODE, root],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
            )
        except BaseException:
            self._stderr.close()
            raise
        try:
            self._feeder.start()
        except BaseException:
            self.close()
            raise

    def _feed(self, payload: bytes) -> None:
        try:
            self._proc.stdin.write(payload)
            self._proc.stdin.flush()
        except BrokenPipeError:
            pass  # the worker is gone; receive() reports it

    def send(self, command) -> None:
        self._feeder.join()
        try:
            pickle.dump(command, self._proc.stdin, pickle.HIGHEST_PROTOCOL)
            self._proc.stdin.flush()
        except BrokenPipeError:
            raise self._died() from None

    def receive(self):
        try:
            ok, reply = pickle.load(self._proc.stdout)
        except (EOFError, pickle.UnpicklingError):
            raise self._died() from None
        if not ok:
            raise reply  # the job's own error, raised in the worker
        return reply

    def _died(self) -> InternalError:
        try:
            status = self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            status = self._proc.wait()
        size = self._stderr.seek(0, os.SEEK_END)
        self._stderr.seek(max(0, size - _STDERR_TAIL))
        tail = self._stderr.read().decode(errors="replace").strip()
        return InternalError(
            f"worker running {self._name} ended without its reply "
            f"(exit status {status}); stderr: {tail or '(empty)'}"
        )

    def close(self) -> None:
        proc = self._proc
        proc.kill()
        proc.wait()
        if self._feeder.is_alive():
            self._feeder.join()  # its write fails now that the worker is gone
        with contextlib.suppress(BrokenPipeError):
            proc.stdin.close()  # flushes whatever a failed write left
        proc.stdout.close()
        self._stderr.close()


def main() -> None:
    """Entry point of the worker: one job from stdin, its replies to stdout.

    Each reply goes out as (True, reply); an input or OS error raised by
    the job goes out as (False, error) and ends the worker.
    """
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    func, args = pickle.load(stdin)
    replies = func(*args)
    command = None  # the first send starts the job
    while True:
        try:
            reply = (True, replies.send(command))
        except (RoadmatchError, OSError) as e:
            reply = (False, e)
        pickle.dump(reply, stdout, pickle.HIGHEST_PROTOCOL)
        stdout.flush()
        if not reply[0]:
            return
        reply = None  # the job may drop what it sent while it makes the next
        try:
            command = pickle.load(stdin)
        except EOFError:
            return


@contextlib.contextmanager
def job(func: Callable[..., Iterator], *args, in_worker: bool):
    """Run ``func(*args)``, in a worker process if ``in_worker``; yields its peer.

    ``peer.receive()`` returns the job's next reply and ``peer.send(command)``
    passes the command the job gets back from its next ``yield``.  Start the
    job, do this process's own work, then receive: the two run at the same
    time.  Without a worker, or when its interpreter cannot be started, the
    job runs in this process as its replies are received, with the same
    results.
    """
    peer = None
    if in_worker and sys.executable:
        try:
            peer = _Worker(func, args)
        except OSError:
            pass  # no interpreter to start: run in process
    if peer is None:
        peer = _InProcess(func(*args))
    try:
        yield peer
    finally:
        peer.close()
