"""Parsing the second snapshot's file in a worker process (``ingest.load_pair``).

Only what ``load_pair`` adds to the worker is tested here: its results
with the worker on and off, its size gate and its error order.  The
worker's own contract (when it forks, how it fails, that it is always
reaped) is tested in ``test_worker``, and labeling the second snapshot in
a worker of its own in ``test_pair_labeling``.  Files here are far below
the size gate, so the tests that need the worker lower
``PARSE_WORKER_MIN_BYTES`` to 0 (and report two usable CPUs) and record
every worker started (``conftest.forced_worker``).  Every test runs under
an alarm and ends by checking that this process has no child left, reaped
or not (``conftest.deadline``).
"""

import contextlib
import os

import pytest

from roadmatch import cli, ingest, worker
from roadmatch.cli import dispatch
from roadmatch.errors import InputError
from roadmatch.generator import gen_irregular_grid, perturb
from roadmatch.ingest import emit_erg, load_graph, load_pair

from conftest import forced_worker, no_worker, segments_text

pytestmark = pytest.mark.usefixtures("deadline")

FORMATS = ("erg", "segments")
NOT_UTF8 = b"ERG 1\nn 2\n\xff\n"


@pytest.fixture
def pair_files(tmp_path):
    """fmt -> (path of the first snapshot, path of the second)."""
    g1 = gen_irregular_grid(6, 7, 0.2, 3)
    g2, _ = perturb(g1, 0.05, 0.0, 0.03, 4)
    files = {}
    for fmt, emit in (("erg", emit_erg), ("segments", segments_text)):
        paths = (tmp_path / f"g1.{fmt}", tmp_path / f"g2.{fmt}")
        for path, g in zip(paths, (g1, g2)):
            path.write_text(emit(g), encoding="utf-8")
        files[fmt] = tuple(map(str, paths))
    return files


def write(tmp_path, name, content) -> str:
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def error_of(call, *args):
    with pytest.raises((InputError, OSError)) as info:
        call(*args)
    return type(info.value), str(info.value)


class TestSameResults:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_worker_on(self, pair_files, fmt):
        p1, p2 = pair_files[fmt]
        with forced_worker() as started:
            got = load_pair(p1, p2, fmt)
        assert len(started) == 1 and started[0].returncode is not None
        want = (load_graph(p1, fmt), load_graph(p2, fmt))
        for g, h in zip(got, want):
            assert g.rotation == h.rotation
            assert g.coords == h.coords and g.coords is not None
            assert g.d_max == h.d_max
        assert got == want

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_worker_off(self, pair_files, fmt, monkeypatch):
        p1, p2 = pair_files[fmt]
        monkeypatch.setattr(os, "fork", no_worker)
        got = load_pair(p1, p2, fmt)
        want = (load_graph(p1, fmt), load_graph(p2, fmt))
        for g, h in zip(got, want):
            assert g.rotation == h.rotation
            assert g.coords == h.coords and g.coords is not None
            assert g.d_max == h.d_max
        assert got == want

    def test_pair_commands_use_it(self, pair_files, tmp_path, capsys, monkeypatch):
        calls = []

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return load_pair(*args, **kwargs)

        monkeypatch.setattr(cli, "load_pair", recorded)
        p1, p2 = pair_files["erg"]
        out = str(tmp_path / "m.txt")
        small1 = write(tmp_path, "s1.erg", "ERG 1\nn 2\na 0 1\na 1 0\n")
        for argv in (
            ["tune-k", p1, p2],
            ["match", p1, p2, "--k", "2", "--max-product", "100000", "-o", out],
            ["validate", out, p1, p2, "--k", "2"],
            ["oracle", small1, small1],
        ):
            assert dispatch(argv) == 0, argv
        capsys.readouterr()
        # Only validate reads coordinates; the oracle reads in process.
        without = {"coords": False}
        assert calls == [((p1, p2, "erg"), without)] * 2 + [((p1, p2, "erg"), {})]

    def test_oracle_forks_no_worker(self, pair_files, tmp_path, capsys):
        # Both gates are at 0, so the other pair commands would fork.  The
        # oracle refuses graphs above its size cap once they are read.
        p1, p2 = pair_files["erg"]
        small = write(tmp_path, "small.erg", "ERG 1\nn 2\na 0 1\na 1 0\n")
        with forced_worker() as started:
            assert dispatch(["oracle", p1, p2]) == 1
            assert "exceed size cap 10 (42, " in capsys.readouterr().err
            assert dispatch(["oracle", small, small]) == 0
        assert started == []


class TestErrors:
    @pytest.mark.parametrize("forced", [True, False])
    def test_malformed_second(self, pair_files, tmp_path, capsys, forced):
        p1, _ = pair_files["erg"]
        bad = write(tmp_path, "bad.erg", "ERG 1\nn 2\na 0 1\n")
        want = error_of(load_graph, bad)
        with forced_worker() if forced else contextlib.nullcontext([]) as started:
            assert error_of(load_pair, p1, bad) == want
            assert dispatch(["match", p1, bad]) == 1
        assert capsys.readouterr().err == f"error: {want[1]}\n"
        assert len(started) == (2 if forced else 0)

    def test_both_malformed_first_wins(self, tmp_path, capsys):
        bad1 = write(tmp_path, "bad1.erg", "ERG 1\nn 2\na 0 1\na 1 zero\n")
        bad2 = write(tmp_path, "bad2.erg", "ERG 1\nn 1\na 0 0\n")
        want = error_of(load_graph, bad1)
        assert want != error_of(load_graph, bad2)
        with forced_worker() as started:
            assert error_of(load_pair, bad1, bad2) == want
            assert dispatch(["tune-k", bad1, bad2]) == 1
            assert dispatch(["oracle", bad1, bad2]) == 1
        assert capsys.readouterr().err == f"error: {want[1]}\n" * 2
        assert len(started) == 2

    @pytest.mark.parametrize("forced", [True, False])
    def test_second_error_after_first_parsed(self, pair_files, tmp_path, monkeypatch, forced):
        # This process records each file it has parsed; with the worker,
        # the second is parsed there, and its error must still wait for
        # the first file.
        p1, _ = pair_files["erg"]
        bad = write(tmp_path, "bad.erg", "ERG 1\nn 2\na 0 1\n")
        parsed = []
        real = ingest.load_graph

        def recorded(path, fmt="erg", coords=True):
            g = real(path, fmt, coords)
            parsed.append(path)
            return g

        with forced_worker() if forced else contextlib.nullcontext([]) as started:
            monkeypatch.setattr(ingest, "load_graph", recorded)
            with pytest.raises(InputError, match="asymmetric"):
                load_pair(p1, bad)
        assert parsed == [p1]
        assert len(started) == (1 if forced else 0)

    def test_missing_second(self, pair_files, tmp_path, capsys):
        p1, _ = pair_files["erg"]
        missing = str(tmp_path / "missing.erg")
        want = error_of(load_graph, missing)
        assert want[0] is FileNotFoundError
        with forced_worker():
            assert error_of(load_pair, p1, missing) == want
            assert dispatch(["match", p1, missing]) == 1
        assert capsys.readouterr().err == f"error: {want[1]}\n"

    def test_unreadable_second_read_in_worker(self, pair_files, tmp_path, capsys):
        # A directory has a size, so the worker starts and fails to read it.
        p1, _ = pair_files["erg"]
        want = error_of(load_graph, str(tmp_path))
        with forced_worker() as started:
            assert error_of(load_pair, p1, str(tmp_path)) == want
            assert dispatch(["tune-k", p1, str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {want[1]}\n"
        assert len(started) == 2

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("forced", [True, False])
    def test_not_utf8_either_position(self, pair_files, tmp_path, capsys, fmt, forced):
        good, _ = pair_files[fmt]
        bad = write(tmp_path, f"bad.{fmt}", NOT_UTF8)
        message = f"{bad}: not UTF-8 text at byte 10"
        assert error_of(load_graph, bad, fmt) == (InputError, message)
        with forced_worker() if forced else contextlib.nullcontext():
            for pair in ((bad, good), (good, bad), (bad, bad)):
                assert error_of(load_pair, *pair, fmt) == (InputError, message)
                assert dispatch(["match", *pair, "--format", fmt]) == 1
                assert capsys.readouterr().err == f"error: {message}\n"


class TestInProcess:
    def test_file_under_the_gate(self, pair_files, monkeypatch):
        p1, p2 = pair_files["erg"]
        monkeypatch.setattr(worker, "usable_cpus", lambda: 2)
        monkeypatch.setattr(ingest, "PARSE_WORKER_MIN_BYTES", os.path.getsize(p2) + 1)
        monkeypatch.setattr(os, "fork", no_worker)
        assert load_pair(p1, p2) == (load_graph(p1), load_graph(p2))
