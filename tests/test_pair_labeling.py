"""Labeling the second snapshot in a worker process (``labeling_job``).

Two workers can label it: the one the pair commands start to parse the
second file (``ingest.open_pair``), which then labels what it parsed at
any k, and, for graphs in memory, a worker started for the labeling
alone.  Graphs here are far below both size gates, so the tests that need
a worker lower ``WORKER_MIN_VERTICES`` and ``PARSE_WORKER_MIN_BYTES`` to 0
(and report two usable CPUs) and record every worker started
(``conftest.forced_worker``).  Every test
runs under an alarm, so a worker that never answers fails the test instead
of hanging it, and ends by checking that this process has no child left,
reaped or not (``conftest.deadline``).
"""

import contextlib
import io
import os
import pickle
import re
import signal
import subprocess
import sys
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmatch import cli, ingest, labeling, matcher, seed_index, worker
from roadmatch.cli import dispatch
from roadmatch.errors import ConfigurationError, InputError, InternalError
from roadmatch.generator import gen_irregular_grid, perturb
from roadmatch.graph import EmbeddedGraph
from roadmatch.ingest import emit_erg, load_graph, open_pair
from roadmatch.labeling import label_nodes, labels_by_depth
from roadmatch.matcher import match
from roadmatch.seed_index import auto_tune_k, label_pair

from conftest import assert_no_children, forced_worker
from test_labeling import scattered_graphs
from test_seed_index import relabeling_tune

pytestmark = pytest.mark.usefixtures("deadline")


def with_stray_edges(g, count):
    """g plus ``count`` disjoint edges, whose label product never falls."""
    n = g.vertex_count
    extra = []
    for i in range(count):
        a = n + 2 * i
        extra += [(a + 1,), (a,)]
    return EmbeddedGraph(g.rotation + tuple(extra))


def tables(g1, g2, k):
    """What ``label_pair(g1, g2, k)`` returns: the two master tables."""
    return label_nodes(g1, k)[0], label_nodes(g2, k)[0]


def snapshot_pair(seed, rows=6, cols=6):
    g1 = gen_irregular_grid(rows, cols, 0.2, seed)
    g2, _ = perturb(g1, 0.05, 0.0, 0.02, seed + 1)
    return g1, g2


class TestSameResults:
    @given(scattered_graphs(), scattered_graphs(), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_label_pair_equals_label_nodes(self, g1, g2, k):
        with forced_worker() as started:
            got = label_pair(g1, g2, k)
        assert len(started) == 1 and started[0].returncode is not None
        assert got == tables(g1, g2, k)

    def test_label_pair_on_snapshots(self):
        g1, g2 = snapshot_pair(3, 10, 12)
        for k in (2, 4):
            with forced_worker() as started:
                got = label_pair(g1, g2, k)
            assert len(started) == 1
            assert got == tables(g1, g2, k)

    @given(scattered_graphs(), scattered_graphs(), st.integers(1, 30), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_tune_equals_relabeling(self, g1, g2, bound, k_max):
        with forced_worker() as started:
            report = auto_tune_k(g1, g2, bound, k_max)
        assert started
        assert report == relabeling_tune(g1, g2, bound, k_max)

    def test_tune_bounded(self):
        g1, g2 = snapshot_pair(0)
        with forced_worker() as started:
            report = auto_tune_k(g1, g2, 1, 6)
        assert report.bounded and report.k == 3 and len(started) == 1
        assert report == relabeling_tune(g1, g2, 1, 6)

    def test_tune_unbounded(self):
        # Two stray edges on each side, four vertices labeled (1, 1), hold
        # the product at 16 from k = 2 on, so k = 2 is chosen after k = 4
        # was tried; it is not labeled again, so one worker is started.
        g1, g2 = (with_stray_edges(g, 2) for g in snapshot_pair(0))
        with forced_worker() as started:
            report = auto_tune_k(g1, g2, 1, 4)
        assert not report.bounded and report.k == 2
        assert [p for _, p in report.per_k] == [36, 16, 16, 16]
        assert len(started) == 1
        assert report == relabeling_tune(g1, g2, 1, 4)

    def test_match_when_unbounded(self, tmp_path, capsys):
        # The same pair under match --auto-k: no index is built, and the
        # error names the bound, the smallest product and its k.
        g1, g2 = (with_stray_edges(g, 2) for g in snapshot_pair(0))
        with pytest.raises(ConfigurationError, match=r"bound 1: .* product is 16, at k=2;"):
            match(g1, g2, auto_k=True, max_product=1, k_max=4)
        paths = [tmp_path / "g1.erg", tmp_path / "g2.erg"]
        for path, g in zip(paths, (g1, g2)):
            path.write_text(emit_erg(g))
        argv = ["match", *map(str, paths), "--auto-k", "--max-product", "1", "--k-max", "4"]
        assert dispatch(argv) == 2
        assert "product is 16, at k=2" in capsys.readouterr().err


class TestWorkerEnds:
    def test_killed_at_fixed_k(self, monkeypatch):
        g1, g2 = snapshot_pair(1)
        with forced_worker() as started:

            def label_after_kill(g, k):
                started[0].kill()
                return label_nodes(g, k)

            monkeypatch.setattr(seed_index, "label_nodes", label_after_kill)
            with pytest.raises(InternalError, match="exit status -9"):
                label_pair(g1, g2, 3)
        assert started[0].returncode == -signal.SIGKILL

    def test_killed_while_tuning(self, monkeypatch):
        g1, g2 = (with_stray_edges(g, 2) for g in snapshot_pair(0))
        with forced_worker() as started:

            def depths(g):
                # Kill the worker while this process grows its own labels
                # to k = 2.
                inner = labels_by_depth(g)
                keep = yield next(inner)
                started[0].kill()
                while True:
                    keep = yield inner.send(keep)

            monkeypatch.setattr(labeling, "labels_by_depth", depths)
            with pytest.raises(InternalError, match="exit status -9"):
                auto_tune_k(g1, g2, 1, 4)
        assert len(started) == 1

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_side_exception(self, monkeypatch, error):
        def fail(g, k):
            raise error("labeling the first graph failed")

        g1, g2 = snapshot_pair(2)
        with forced_worker() as started:
            monkeypatch.setattr(seed_index, "label_nodes", fail)
            with pytest.raises(error):
                label_pair(g1, g2, 3)
        assert len(started) == 1 and started[0].returncode is not None

    @pytest.mark.parametrize(
        "call", [lambda g1, g2: label_pair(g1, g2, 2), auto_tune_k], ids=["label_pair", "tune"]
    )
    def test_job_input_error_raised_as_in_process(self, call):
        # g2's degree-300 vertex is beyond what labels hold: the job's own
        # InputError reaches the caller as it is, worker or not.
        g1 = snapshot_pair(2)[0]
        g2 = EmbeddedGraph((tuple(range(1, 301)),) + ((0,),) * 300, d_max=400)
        message = "vertex 0 has degree 300; labels hold degrees up to 255"
        with pytest.raises(InputError) as in_process:
            call(g1, g2)
        with forced_worker() as started:
            with pytest.raises(InputError) as in_worker:
                call(g1, g2)
        assert len(started) == 1
        assert str(in_worker.value) == str(in_process.value) == message

    def test_worker_error_is_internal(self, monkeypatch):
        # A worker that fails on its job exits 1 with a traceback: that is
        # still a dead worker, never bad input.
        g1, g2 = snapshot_pair(2)
        with forced_worker() as started:
            monkeypatch.setattr(worker, "_WORKER_CODE", "raise SystemExit('no labels here')")
            with pytest.raises(InternalError, match="exit status 1.*no labels here"):
                label_pair(g1, g2, 3)
        assert len(started) == 1


class TestInProcess:
    def test_popen_fails(self, monkeypatch):
        def no_interpreter(*args, **kwargs):
            raise OSError("cannot start an interpreter")

        g1, g2 = snapshot_pair(4)
        g1s, g2s = (with_stray_edges(g, 2) for g in (g1, g2))
        with forced_worker():
            monkeypatch.setattr(subprocess, "Popen", no_interpreter)
            assert label_pair(g1, g2, 3) == tables(g1, g2, 3)
            assert auto_tune_k(g1, g2, 1, 6) == relabeling_tune(g1, g2, 1, 6)
            assert auto_tune_k(g1s, g2s, 1, 4) == relabeling_tune(g1s, g2s, 1, 4)

    def test_one_cpu(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a worker was started with one usable CPU")

        g1, g2 = snapshot_pair(4)
        monkeypatch.setattr(labeling, "WORKER_MIN_VERTICES", 0)
        monkeypatch.setattr(subprocess, "Popen", unexpected)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert label_pair(g1, g2, 3) == tables(g1, g2, 3)
        assert auto_tune_k(g1, g2, 1, 6) == relabeling_tune(g1, g2, 1, 6)

    def test_small_graphs_and_shallow_k(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a worker was started below the gate")

        g1, g2 = snapshot_pair(4)
        monkeypatch.setattr(subprocess, "Popen", unexpected)
        assert label_pair(g1, g2, 3) == tables(g1, g2, 3)
        monkeypatch.setattr(labeling, "WORKER_MIN_VERTICES", 0)
        assert label_pair(g1, g2, 1) == tables(g1, g2, 1)
        assert auto_tune_k(g1, g2, 24, 1) == relabeling_tune(g1, g2, 24, 1)


@pytest.fixture
def snapshot_files(tmp_path):
    """(g1, g2, path of g1's ERG file, path of g2's)."""
    g1, g2 = snapshot_pair(3, 10, 12)
    paths = []
    for name, g in (("g1.erg", g1), ("g2.erg", g2)):
        path = tmp_path / name
        path.write_text(emit_erg(g), encoding="utf-8")
        paths.append(str(path))
    return g1, g2, *paths


def cli_output(capsys, argv, out=None):
    """Exit code and output of one command, without its ``_time_s`` lines:
    the matching file when ``out`` names it, else stdout."""
    code = dispatch(argv)
    text = capsys.readouterr().out
    if out is not None:
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
    return code, re.sub(r"(?m)^.*_time_s: .*\n", "", text)


class TestPairWorker:
    """The worker that parsed g2 labels it too (``ingest.open_pair``)."""

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_label_pair_equals_label_nodes(self, snapshot_files, k):
        g1, g2, p1, p2 = snapshot_files
        with forced_worker() as started:
            with open_pair(p1, p2) as (h1, h2, g2_job):
                assert g2_job is not None
                got = label_pair(h1, h2, k, g2_job)
                # Reaped as soon as g2's table is in, before the block ends.
                assert started[0].returncode is not None
        assert len(started) == 1
        assert got == tables(g1, g2, k)

    @pytest.mark.parametrize("bound, k_max", [(1, 6), (24, 4), (10**6, 1)])
    def test_tune_equals_relabeling(self, snapshot_files, bound, k_max):
        g1, g2, p1, p2 = snapshot_files
        with forced_worker() as started:
            with open_pair(p1, p2) as (h1, h2, g2_job):
                report = auto_tune_k(h1, h2, bound, k_max, g2_job)
                assert started[0].returncode is not None
        assert len(started) == 1
        assert report == relabeling_tune(g1, g2, bound, k_max)

    def test_one_worker_per_command(self, snapshot_files, tmp_path, capsys):
        _, _, p1, p2 = snapshot_files
        out = str(tmp_path / "m.txt")
        for argv in (
            ["tune-k", p1, p2],
            ["match", p1, p2, "--k", "3", "--max-product", "100000", "-o", out],
            ["match", p1, p2, "--auto-k", "-o", out],
            ["validate", out, p1, p2],
            ["oracle", p1, p2],
        ):
            with forced_worker() as started:
                # The oracle refuses graphs this large, after parsing them.
                assert dispatch(argv) == (1 if argv[0] == "oracle" else 0), argv
            assert len(started) == 1, argv
            assert_no_children()
        capsys.readouterr()

    def test_outputs_equal_in_process(self, snapshot_files, tmp_path, capsys, monkeypatch):
        _, _, p1, p2 = snapshot_files
        out = str(tmp_path / "m.txt")
        commands = (
            (["tune-k", p1, p2, "--max-product", "2"], None),
            (["match", p1, p2, "--k", "3", "--max-product", "100000", "-o", out], out),
            (["match", p1, p2, "--auto-k", "-o", out], out),
            (["validate", out, p1, p2, "--k", "2"], None),
        )
        with forced_worker() as started:
            in_worker = [cli_output(capsys, argv, path) for argv, path in commands]
        assert len(started) == len(commands)
        monkeypatch.setattr(subprocess, "Popen", no_worker)
        in_process = [cli_output(capsys, argv, path) for argv, path in commands]
        assert in_worker == in_process
        assert all(code == 0 for code, _ in in_process)

    @pytest.mark.parametrize("auto_k", [False, True])
    def test_reaped_before_the_flood(self, snapshot_files, monkeypatch, auto_k):
        g1, g2, p1, p2 = snapshot_files
        real = matcher.flood_match
        floods = []

        def flood(*args):
            floods.append([proc.returncode for proc in started])
            return real(*args)

        monkeypatch.setattr(matcher, "flood_match", flood)
        with forced_worker() as started:
            with open_pair(p1, p2) as (h1, h2, g2_job):
                got = match(h1, h2, k=3, max_product=10**5, auto_k=auto_k, g2_job=g2_job)
        assert len(floods) == 1 and None not in floods[0] and len(floods[0]) == 1
        want = match(g1, g2, k=3, max_product=10**5, auto_k=auto_k)
        assert (got.pairs, got.stats.k) == (want.pairs, want.stats.k)

    def test_labeling_input_error_as_in_process(self, snapshot_files, monkeypatch):
        # k = -1 fails g2's labeling, in whichever process labels it; this
        # process's own labeling of g1 is stubbed so that g2's error is the
        # one raised.
        g1, g2, p1, p2 = snapshot_files
        monkeypatch.setattr(seed_index, "label_nodes", lambda g, k: ({}, []))
        with pytest.raises(InputError) as in_process:
            label_pair(g1, g2, -1)
        with forced_worker() as started:
            with open_pair(p1, p2) as (h1, h2, g2_job):
                with pytest.raises(InputError) as in_worker:
                    label_pair(h1, h2, -1, g2_job)
        assert len(started) == 1
        assert str(in_worker.value) == str(in_process.value) == "label depth k must be >= 0, got -1"

    def test_popen_fails(self, snapshot_files):
        # The pair's job then runs in this process and still labels g2.
        def no_interpreter(*args, **kwargs):
            raise OSError("cannot start an interpreter")

        g1, g2, p1, p2 = snapshot_files
        with forced_worker(), pytest.MonkeyPatch.context() as mp:
            mp.setattr(subprocess, "Popen", no_interpreter)
            for k in (1, 3):
                with open_pair(p1, p2) as (h1, h2, g2_job):
                    assert g2_job is not None
                    assert label_pair(h1, h2, k, g2_job) == tables(g1, g2, k)
            with open_pair(p1, p2) as (h1, h2, g2_job):
                report = auto_tune_k(h1, h2, 1, 6, g2_job)
        assert report == relabeling_tune(g1, g2, 1, 6)

    @pytest.mark.parametrize("tune", [False, True], ids=["label_pair", "tune"])
    def test_killed(self, snapshot_files, tune):
        _, _, p1, p2 = snapshot_files
        with forced_worker() as started:
            with open_pair(p1, p2) as (h1, h2, g2_job):
                started[0].kill()
                with pytest.raises(InternalError, match="exit status -9"):
                    if tune:
                        auto_tune_k(h1, h2, 1, 6, g2_job)
                    else:
                        label_pair(h1, h2, 3, g2_job)
        assert started[0].returncode == -signal.SIGKILL


def no_worker(*args, **kwargs):
    raise AssertionError("a worker was started")


class Sent:
    """A reply that can tell whether anything still holds it."""


def forgetting_job():
    """Replies with a ``Sent``, drops it, then replies whether it is gone."""
    sent = Sent()
    gone = weakref.ref(sent)
    yield sent
    del sent
    yield gone() is None


def test_worker_main_holds_no_sent_reply(monkeypatch):
    # The pair worker labels after it has dropped the graph it sent; that
    # frees the graph only if ``main`` holds no reference to it either.
    stdin = io.BytesIO(pickle.dumps((forgetting_job, ())) + pickle.dumps(None))
    stdout = io.BytesIO()
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=stdin))
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(buffer=stdout))
    worker.main()
    stdout.seek(0)
    ok, reply = pickle.load(stdout)
    assert ok and isinstance(reply, Sent)
    assert pickle.load(stdout) == (True, True)


@pytest.fixture(params=[True, False], ids=["worker", "no-worker"])
def pair_worker(request, monkeypatch):
    """The pair worker forced on (the list of workers started) or off."""
    if request.param:
        with forced_worker() as started:
            yield started
    else:
        monkeypatch.setattr(subprocess, "Popen", no_worker)
        yield None


class TestCoordinates:
    """Only ``validate`` reads coordinates, so only its graphs carry them."""

    @staticmethod
    def commands(snapshot_files, tmp_path):
        """(argv, matching file or None) of each pair command that reads no
        coordinates, and ``label``."""
        _, _, p1, p2 = snapshot_files
        small = tmp_path / "small.erg"
        small.write_text(emit_erg(gen_irregular_grid(2, 3, 0.2, 1)), encoding="utf-8")
        out = str(tmp_path / "m.txt")
        return (
            (["tune-k", p1, p2, "--max-product", "2"], None),
            (["match", p1, p2, "--k", "3", "--max-product", "100000", "-o", out], out),
            (["match", p1, p2, "--auto-k", "-o", out], out),
            (["oracle", str(small), str(small)], None),
            (["label", p2, "--k", "2"], None),
        )

    def test_only_validate_gets_coords(self, snapshot_files, tmp_path, capsys, monkeypatch,
                                       pair_worker):
        seen = []
        real = cli.open_pair

        @contextlib.contextmanager
        def recorded(*args, **kwargs):
            with real(*args, **kwargs) as (g1, g2, g2_job):
                seen.append((g1.coords is not None, g2.coords is not None))
                yield g1, g2, g2_job

        monkeypatch.setattr(cli, "open_pair", recorded)
        commands = self.commands(snapshot_files, tmp_path)[:-1]
        for argv, _ in commands:
            assert dispatch(argv) == 0, argv
        # g2 came from the worker when there was one.
        assert seen == [(False, False)] * len(commands)
        if pair_worker is not None:
            assert len(pair_worker) == len(commands)
        _, _, p1, p2 = snapshot_files
        code, out = cli_output(capsys, ["validate", str(tmp_path / "m.txt"), p1, p2])
        assert code == 0
        assert seen[-1] == (True, True)
        assert re.search(r"(?m)^threshold_ratio: \d\.\d{4}$", out)

    def test_outputs_as_with_coords(self, snapshot_files, tmp_path, capsys, monkeypatch,
                                    pair_worker):
        commands = self.commands(snapshot_files, tmp_path)
        without = [cli_output(capsys, argv, path) for argv, path in commands]
        monkeypatch.setattr(cli, "open_pair", lambda *args, coords: open_pair(*args))
        monkeypatch.setattr(cli, "load_graph", lambda *args, coords: load_graph(*args))
        kept = [cli_output(capsys, argv, path) for argv, path in commands]
        assert without == kept
        assert all(code == 0 for code, _ in kept)

    def test_job_labels_a_copy_without_coords(self, snapshot_files, monkeypatch):
        # Run in process, the job hands the caller its graph and must leave
        # it whole, while what it labels has no coordinates.
        _, g2, _, p2 = snapshot_files
        labeled = []
        real = labeling.label_replies

        def recorded(g, k):
            labeled.append(g)
            yield from real(g, k)

        monkeypatch.setattr(labeling, "label_replies", recorded)
        job = ingest._snapshot_job(p2, "erg")
        g = next(job)
        table = job.send(2)
        job.close()
        assert g == load_graph(p2) and g.coords is not None
        assert labeled == [g.without_coords()] and labeled[0].rotation is g.rotation
        assert table == label_nodes(g2, 2)[0]


def _malformed(side):
    def setup(paths, tmp_path, monkeypatch, started):
        path = tmp_path / "bad.erg"
        path.write_text("ERG 1\nn 2\na 0 1\n", encoding="utf-8")
        paths[side] = str(path)

    return setup


def _bad_k(paths, tmp_path, monkeypatch, started):
    # Only g2's labeling fails: see test_labeling_input_error_as_in_process.
    monkeypatch.setattr(seed_index, "label_nodes", lambda g, k: ({}, []))
    paths.extend(["--k", "-1"])


def _killed(paths, tmp_path, monkeypatch, started):
    def label_after_kill(g, k):
        started[0].kill()
        return label_nodes(g, k)

    monkeypatch.setattr(seed_index, "label_nodes", label_after_kill)


def _interrupted(module, name):
    def patch(paths, tmp_path, monkeypatch, started):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(module, name, interrupt)

    return patch


@pytest.mark.parametrize(
    "setup, outcome",
    [
        (None, 0),
        (_malformed(0), 1),
        (_malformed(1), 1),
        (_bad_k, 1),
        (_killed, InternalError),
        (_interrupted(ingest, "load_graph"), KeyboardInterrupt),
        (_interrupted(seed_index, "label_nodes"), KeyboardInterrupt),
    ],
    ids=["normal", "first-malformed", "second-malformed", "second-labeling-error",
         "killed", "interrupt-first-parse", "interrupt-first-labeling"],
)
def test_every_exit_reaps_the_worker(snapshot_files, tmp_path, capsys, monkeypatch, setup, outcome):
    _, _, p1, p2 = snapshot_files
    argv = [p1, p2]
    with forced_worker() as started:
        if setup is not None:
            setup(argv, tmp_path, monkeypatch, started)
        argv = ["match", *argv, "--max-product", "100000", "-o", str(tmp_path / "m.txt")]
        if isinstance(outcome, int):
            assert dispatch(argv) == outcome
        else:
            with pytest.raises(outcome):
                dispatch(argv)
    capsys.readouterr()
    assert len(started) == 1
    assert_no_children()
