"""Labeling the second snapshot in a worker process (``labeling_job``).

Only what ``labeling_job`` adds to the worker is tested here: results
equal with the worker on and off, its vertex gate and the tuner's
lockstep with it, and, at the level of the pair commands, one worker at a
time, each reaped.  The worker's own contract is tested in
``test_worker``.  The pair commands first read the pair
(``ingest.load_pair``), whose worker, if any, only parses the second file
and is reaped once its graph is in; a worker of its own then labels the
second snapshot.  Graphs here are far below both size gates, so the tests
that need a worker lower ``WORKER_MIN_VERTICES`` and
``PARSE_WORKER_MIN_BYTES`` to 0 (and report two usable CPUs) and record
every worker started (``conftest.forced_worker``).  Every test runs under
an alarm, so a worker that never answers fails the test instead of
hanging it, and ends by checking that this process has no child left,
reaped or not (``conftest.deadline``).
"""

import os
import re
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmatch import cli, ingest, labeling, matcher, seed_index
from roadmatch.cli import dispatch
from roadmatch.errors import ConfigurationError, InputError, InternalError
from roadmatch.generator import gen_irregular_grid, perturb
from roadmatch.graph import EmbeddedGraph
from roadmatch.ingest import emit_erg, load_graph, load_pair
from roadmatch.labeling import labels_by_depth
from roadmatch.matcher import match
from roadmatch.seed_index import auto_tune_k, label_pair

from conftest import assert_no_children, forced_worker, no_fork, no_worker
from test_labeling import scattered_graphs
from test_seed_index import cut, labels_for, relabeling_tune

pytestmark = pytest.mark.usefixtures("deadline")


def with_stray_edges(g, count):
    """g plus ``count`` disjoint edges, whose label product never falls."""
    n = g.vertex_count
    extra = []
    for i in range(count):
        a = n + 2 * i
        extra += [(a + 1,), (a,)]
    return EmbeddedGraph(g.rotation + tuple(extra))


def until_killed(*args):
    """A labeling job that never replies: a forked worker's labels could
    otherwise be sent before the worker is killed."""
    signal.pause()
    yield


def in_worker(monkeypatch, job):
    """Have a labeling worker run the generator function ``job`` in place
    of ``labels_by_depth``; this process still runs the real one."""
    real, parent = labeling.labels_by_depth, os.getpid()

    def depths(*args, **kwargs):
        return (real if os.getpid() == parent else job)(*args, **kwargs)

    monkeypatch.setattr(labeling, "labels_by_depth", depths)


def kill_first(started):
    """A stand-in for ``seed_index.labels_by_depth`` that kills the last
    worker started, then labels as the real one does."""
    real = seed_index.labels_by_depth

    def labels_after_kill(*args, **kwargs):
        started[-1].kill()
        yield from real(*args, **kwargs)

    return labels_after_kill


def snapshot_pair(seed, rows=6, cols=6):
    g1 = gen_irregular_grid(rows, cols, 0.2, seed)
    g2, _ = perturb(g1, 0.05, 0.0, 0.02, seed + 1)
    return g1, g2


class TestSameResults:
    @given(scattered_graphs(), scattered_graphs(), st.integers(0, 5), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_label_pair_equals_label_nodes(self, g1, g2, k, in_worker):
        with forced_worker() as started, pytest.MonkeyPatch.context() as mp:
            if not in_worker:
                mp.setattr(os, "fork", no_fork)
            got = label_pair(g1, g2, k)
        assert len(started) == in_worker
        assert all(child.returncode is not None for child in started)
        assert got == labels_for(g1, g2, k)

    def test_label_pair_on_snapshots(self):
        g1, g2 = snapshot_pair(3, 10, 12)
        for k in (2, 4):
            with forced_worker() as started:
                got = label_pair(g1, g2, k)
            assert len(started) == 1
            assert got == labels_for(g1, g2, k)

    @given(scattered_graphs(), scattered_graphs(), st.integers(1, 30), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_tune_equals_relabeling(self, g1, g2, bound, k_max):
        with forced_worker() as started:
            report = auto_tune_k(g1, g2, bound, k_max)
        assert started
        assert cut(report) == relabeling_tune(g1, g2, bound, k_max)

    def test_tune_bounded(self):
        g1, g2 = snapshot_pair(0)
        with forced_worker() as started:
            report = auto_tune_k(g1, g2, 1, 6)
        assert report.bounded and report.k == 3 and len(started) == 1
        assert cut(report) == relabeling_tune(g1, g2, 1, 6)

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
        assert cut(report) == relabeling_tune(g1, g2, 1, 4)

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
    def test_killed_while_tuning(self, monkeypatch):
        g1, g2 = (with_stray_edges(g, 2) for g in snapshot_pair(0))
        with forced_worker() as started:

            def depths(*args, **kwargs):
                # Kill the worker while this process grows its own labels
                # to k = 2.
                inner = labels_by_depth(*args, **kwargs)
                keep = yield next(inner)
                for child in started:
                    child.kill()
                while True:
                    keep = yield inner.send(keep)

            monkeypatch.setattr(seed_index, "labels_by_depth", depths)
            with pytest.raises(InternalError, match="exit status -9"):
                auto_tune_k(g1, g2, 1, 4)
        assert len(started) == 1


class TestInProcess:
    def test_small_graphs_and_shallow_k(self, monkeypatch):
        # The gate is the vertex count alone: a graph below it is labeled
        # in process at any k, and one above it in a worker at any k,
        # shallow ones included.
        g1, g2 = snapshot_pair(4)
        with monkeypatch.context() as mp:
            mp.setattr(os, "fork", no_worker)
            for k in (0, 1, 3):
                assert label_pair(g1, g2, k) == labels_for(g1, g2, k)
            assert cut(auto_tune_k(g1, g2, 24, 1)) == relabeling_tune(g1, g2, 24, 1)
        with forced_worker() as started:
            for k in (0, 1):
                assert label_pair(g1, g2, k) == labels_for(g1, g2, k)
            assert cut(auto_tune_k(g1, g2, 24, 1)) == relabeling_tune(g1, g2, 24, 1)
        assert len(started) == 3

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


def assert_one_at_a_time(started, count):
    """``count`` workers were forked, each once every earlier one was
    reaped, and all of them are reaped."""
    assert len(started) == count
    assert [child.alive for child in started] == [0] * count
    assert None not in [child.returncode for child in started]


class TestPairWorker:
    """A pair read by ``ingest.load_pair`` and then labeled: the parse
    worker is reaped before the labeling worker is forked."""

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_label_pair_equals_label_nodes(self, snapshot_files, k):
        g1, g2, p1, p2 = snapshot_files
        with forced_worker() as started:
            h1, h2 = load_pair(p1, p2)
            assert_one_at_a_time(started, 1)
            got = label_pair(h1, h2, k)
        assert_one_at_a_time(started, 2)
        assert got == labels_for(g1, g2, k)

    @pytest.mark.parametrize("bound, k_max", [(1, 6), (24, 4), (10**6, 1)])
    def test_tune_equals_relabeling(self, snapshot_files, bound, k_max):
        g1, g2, p1, p2 = snapshot_files
        with forced_worker() as started:
            report = auto_tune_k(*load_pair(p1, p2), bound, k_max)
        assert_one_at_a_time(started, 2)
        assert cut(report) == relabeling_tune(g1, g2, bound, k_max)

    def test_one_worker_at_a_time(self, snapshot_files, tmp_path, capsys):
        # Each command that labels forks the parse worker, then the
        # labeling worker; the oracle forks none.
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
            assert_one_at_a_time(started, 0 if argv[0] == "oracle" else 2)
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
        assert_one_at_a_time(started, 2 * len(commands))
        monkeypatch.setattr(os, "fork", no_worker)
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
            got = match(*load_pair(p1, p2), k=3, max_product=10**5, auto_k=auto_k)
        assert len(floods) == 1 and None not in floods[0] and len(floods[0]) == 2
        want = match(g1, g2, k=3, max_product=10**5, auto_k=auto_k)
        assert (got.pairs, got.stats.k) == (want.pairs, want.stats.k)

    def test_labeling_input_error_as_in_process(self, snapshot_files, monkeypatch):
        # k = -1 fails g2's labeling, in whichever process labels it; this
        # process's own labeling of g1 is stubbed so that g2's error is the
        # one raised.
        g1, g2, p1, p2 = snapshot_files

        def depths(g, k, last=None):
            yield []

        monkeypatch.setattr(seed_index, "labels_by_depth", depths)
        with pytest.raises(InputError) as in_process:
            label_pair(g1, g2, -1)
        with forced_worker() as started:
            h1, h2 = load_pair(p1, p2)
            with pytest.raises(InputError) as in_worker:
                label_pair(h1, h2, -1)
        assert_one_at_a_time(started, 2)
        assert str(in_worker.value) == str(in_process.value) == "label depth k must be >= 0, got -1"

    def test_fork_fails(self, snapshot_files):
        # Both jobs then run in this process, with the same results.
        g1, g2, p1, p2 = snapshot_files
        with forced_worker() as started, pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "fork", no_fork)
            for k in (1, 3):
                assert label_pair(*load_pair(p1, p2), k) == labels_for(g1, g2, k)
            report = auto_tune_k(*load_pair(p1, p2), 1, 6)
        assert started == []
        assert cut(report) == relabeling_tune(g1, g2, 1, 6)

    @pytest.mark.parametrize("tune", [False, True], ids=["label_pair", "tune"])
    def test_killed(self, snapshot_files, monkeypatch, tune):
        # The labeling worker, forked once the parse worker is reaped, is
        # killed while this process labels g1; it never replies.
        _, _, p1, p2 = snapshot_files
        with forced_worker() as started:
            h1, h2 = load_pair(p1, p2)
            in_worker(monkeypatch, until_killed)
            monkeypatch.setattr(seed_index, "labels_by_depth", kill_first(started))
            with pytest.raises(InternalError, match="exit status -9"):
                if tune:
                    auto_tune_k(h1, h2, 1, 6)
                else:
                    label_pair(h1, h2, 3)
        assert_one_at_a_time(started, 2)
        assert started[1].returncode == -signal.SIGKILL


@pytest.fixture(params=[True, False], ids=["worker", "no-worker"])
def pair_worker(request, monkeypatch):
    """The pair worker forced on (the list of workers started) or off."""
    if request.param:
        with forced_worker() as started:
            yield started
    else:
        monkeypatch.setattr(os, "fork", no_worker)
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
        seen = []  # whether each graph loaded has coordinates
        real_pair, real_graph = cli.load_pair, cli.load_graph

        def pair(*args, **kwargs):
            graphs = real_pair(*args, **kwargs)
            seen.extend(g.coords is not None for g in graphs)
            return graphs

        def graph(*args, **kwargs):
            g = real_graph(*args, **kwargs)
            seen.append(g.coords is not None)
            return g

        monkeypatch.setattr(cli, "load_pair", pair)
        monkeypatch.setattr(cli, "load_graph", graph)
        commands = self.commands(snapshot_files, tmp_path)[:-1]
        for argv, _ in commands:
            assert dispatch(argv) == 0, argv
        # g2 came from the worker when there was one.
        assert seen == [False] * 2 * len(commands)
        if pair_worker is not None:
            # A parse worker and a labeling worker for each but the oracle.
            assert_one_at_a_time(pair_worker, 2 * len(commands) - 2)
        _, _, p1, p2 = snapshot_files
        code, out = cli_output(capsys, ["validate", str(tmp_path / "m.txt"), p1, p2])
        assert code == 0
        assert seen[-2:] == [True, True]
        assert re.search(r"(?m)^threshold_ratio: \d\.\d{4}$", out)

    def test_outputs_as_with_coords(self, snapshot_files, tmp_path, capsys, monkeypatch,
                                    pair_worker):
        commands = self.commands(snapshot_files, tmp_path)
        without = [cli_output(capsys, argv, path) for argv, path in commands]
        monkeypatch.setattr(cli, "load_pair", lambda *args, coords: load_pair(*args))
        monkeypatch.setattr(cli, "load_graph", lambda *args, coords: load_graph(*args))
        kept = [cli_output(capsys, argv, path) for argv, path in commands]
        assert without == kept
        assert all(code == 0 for code, _ in kept)


def _malformed(side):
    def setup(paths, tmp_path, monkeypatch, started):
        path = tmp_path / "bad.erg"
        path.write_text("ERG 1\nn 2\na 0 1\n", encoding="utf-8")
        paths[side] = str(path)

    return setup


def _second_labeling_error(paths, tmp_path, monkeypatch, started):
    # Only g2's labeling fails, in the worker.  (A bad --k is refused
    # before any file is read, so it cannot reach the worker.)
    def refuse(*args):
        # A generator, so the error comes at its first reply, as it would
        # from the real job.
        raise InputError("g2 cannot be labeled")
        yield

    in_worker(monkeypatch, refuse)


def _killed(paths, tmp_path, monkeypatch, started):
    # The last worker started is the labeling worker.
    monkeypatch.setattr(seed_index, "labels_by_depth", kill_first(started))
    in_worker(monkeypatch, until_killed)


def _interrupted(module, name):
    def patch(paths, tmp_path, monkeypatch, started):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(module, name, interrupt)

    return patch


@pytest.mark.parametrize(
    "setup, outcome, workers",
    [
        (None, 0, 2),
        (_malformed(0), 1, 1),
        (_malformed(1), 1, 1),
        (_second_labeling_error, 1, 2),
        (_killed, InternalError, 2),
        (_interrupted(ingest, "load_graph"), KeyboardInterrupt, 1),
        (_interrupted(seed_index, "labels_by_depth"), KeyboardInterrupt, 2),
    ],
    ids=["normal", "first-malformed", "second-malformed", "second-labeling-error",
         "killed", "interrupt-first-parse", "interrupt-first-labeling"],
)
def test_every_exit_reaps_the_worker(
    snapshot_files, tmp_path, capsys, monkeypatch, setup, outcome, workers
):
    # A parse error ends the command before anything is labeled.
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
    assert_one_at_a_time(started, workers)
    assert_no_children()
