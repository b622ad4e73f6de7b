import tracemalloc

import pytest

from roadmatch import cli, generator
from roadmatch.cli import dispatch, format_matching, parse_matching
from roadmatch.errors import InputError
from roadmatch.generator import gen_irregular_grid, perturb
from roadmatch.graph import verify_conformal
from roadmatch.ingest import MAX_VERTICES, emit_erg, parse_erg
from roadmatch.matcher import match
from roadmatch.oracle import MAX_SIZE_CAP

from conftest import path_graph, segments_text
from test_ingest import MALFORMED


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_grid_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "grid", "--rows", "3", "--cols", "3",
                           "--irregularity", "0", "--rng-seed", "0")
        assert code == 0
        g = parse_erg(out)
        assert g.vertex_count == 9

    def test_grid_to_file(self, tmp_path, capsys):
        path = tmp_path / "g.erg"
        code, out, _ = run(capsys, "gen", "grid", "--rows", "4", "--cols", "5",
                           "-o", str(path))
        assert code == 0 and out == ""
        assert parse_erg(path.read_text()).vertex_count == 20

    def test_bad_rows_exit_one(self, capsys):
        code, _, err = run(capsys, "gen", "grid", "--rows", "1", "--cols", "5")
        assert code == 1
        assert "error" in err

    def test_vertex_count_above_limit_exit_one(self, tmp_path, capsys, monkeypatch):
        # 10,004,569 vertices: refused before the grid is built, and no
        # file is written.  A grid built past the check fails at once for
        # want of a random source, instead of taking gigabytes.
        monkeypatch.setattr(generator, "random", None)
        out = tmp_path / "g.erg"
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "gen", "grid", "--rows", "3163", "--cols", "3163",
                                    "-o", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = f"above the limit of {MAX_VERTICES} vertices"
        assert (code, stdout, err) == (1, "", f"error: rows x cols = 10004569 is {limit}\n")
        assert not out.exists()
        assert peak < 1 << 20


class TestPipeline:
    def test_gen_perturb_match_validate(self, tmp_path, capsys):
        g1 = tmp_path / "g1.erg"
        g2 = tmp_path / "g2.erg"
        truth = tmp_path / "truth.txt"
        m = tmp_path / "match.txt"
        hist = tmp_path / "hist.csv"

        assert dispatch(["gen", "grid", "--rows", "12", "--cols", "12",
                         "--irregularity", "0.2", "--rng-seed", "5",
                         "-o", str(g1)]) == 0
        assert dispatch(["perturb", str(g1), "--remove-vertices", "0.04",
                         "--rng-seed", "6", "-o", str(g2),
                         "--truth", str(truth)]) == 0
        assert dispatch(["match", str(g1), str(g2), "--k", "4",
                         "--max-product", "10000", "-o", str(m)]) == 0
        capsys.readouterr()

        pairs, u1, u2, stats = parse_matching(m.read_text())
        ga = parse_erg(g1.read_text())
        gb = parse_erg(g2.read_text())
        ok, why = verify_conformal(ga, gb, pairs)
        assert ok, why
        assert stats["matched"] == len(pairs)
        assert len(pairs) + len(u1) == ga.vertex_count
        assert len(pairs) + len(u2) == gb.vertex_count

        gt = {
            int(a): int(b)
            for a, b in (line.split()[1:] for line in truth.read_text().splitlines())
        }
        assert all(gt[v] == w for v, w in pairs)

        code, out, _ = run(capsys, "validate", str(m), str(g1), str(g2),
                           "--k", "4", "--hist", str(hist))
        assert code == 0
        assert "approximation_ratio:" in out
        assert "threshold_ratio: 1.0000" in out
        assert "label_time_s:" in out
        header, *rows = hist.read_text().splitlines()
        assert header == "bucket_km,count"
        # The histogram counts the matching's pairs with coordinates on both sides.
        with_coords = next(l for l in out.splitlines() if l.startswith("pairs_with_coords:"))
        assert sum(int(row.split(",")[1]) for row in rows) == int(with_coords.split()[1]) > 0

    def test_validate_reads_k_from_matching(self, tmp_path, capsys):
        g1, g2, m = tmp_path / "g1.erg", tmp_path / "g2.erg", tmp_path / "m.txt"
        dispatch(["gen", "grid", "--rows", "10", "--cols", "10", "--rng-seed", "2",
                  "-o", str(g1)])
        dispatch(["perturb", str(g1), "--remove-vertices", "0.05", "--add-edges", "0.02",
                  "--rng-seed", "3", "-o", str(g2)])
        assert dispatch(["match", str(g1), str(g2), "--k", "3", "--max-product", "10000",
                         "-o", str(m)]) == 0
        capsys.readouterr()
        ratios = {}
        for flags in ((), ("--k", "3"), ("--k", "7")):
            code, out, _ = run(capsys, "validate", str(m), str(g1), str(g2), *flags)
            assert code == 0
            ratios[flags] = next(l for l in out.splitlines() if l.startswith("approximation_ratio"))
        assert ratios[()] == ratios["--k", "3"] != ratios["--k", "7"]

    def test_validate_without_k_line_uses_default_k(self, tmp_path, capsys):
        g = tmp_path / "g.erg"
        dispatch(["gen", "grid", "--rows", "6", "--cols", "6", "--rng-seed", "4",
                  "-o", str(g)])
        m = tmp_path / "m.txt"
        m.write_text("# note: hand-written\nm 0 0\n")  # a comment that is not a number
        capsys.readouterr()
        outs = [run(capsys, "validate", str(m), str(g), str(g), *flags)[1]
                for flags in ((), ("--k", "7"))]
        assert outs[0] == outs[1]

    def test_match_determinism(self, tmp_path, capsys):
        g1 = tmp_path / "g1.erg"
        g2 = tmp_path / "g2.erg"
        dispatch(["gen", "grid", "--rows", "8", "--cols", "8",
                  "--irregularity", "0.25", "--rng-seed", "3", "-o", str(g1)])
        dispatch(["perturb", str(g1), "--remove-vertices", "0.05",
                  "--rng-seed", "4", "-o", str(g2)])
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "match", str(g1), str(g2), "--k", "3",
                               "--max-product", "10000", "--rng-seed", "9")
            assert code == 0
            outs.append([l for l in out.splitlines() if "_time_s" not in l])
        assert outs[0] == outs[1]


class TestNoSharedLabel:
    def test_fixed_k_with_no_shared_label_warns(self, tmp_path, capsys):
        # A 60x60 pair with 5% of the vertices removed shares no label at
        # the default k=7: the matching is empty, and the run says so.
        g1, g2, m = tmp_path / "g1.erg", tmp_path / "g2.erg", tmp_path / "m.txt"
        dispatch(["gen", "grid", "--rows", "60", "--cols", "60", "-o", str(g1)])
        dispatch(["perturb", str(g1), "--remove-vertices", "0.05", "--remove-edges", "0.02",
                  "--add-edges", "0.02", "--rng-seed", "1", "-o", str(g2)])
        capsys.readouterr()
        code, _, err = run(capsys, "match", str(g1), str(g2), "-o", str(m))
        assert code == 0
        pairs, _, _, stats = parse_matching(m.read_text())
        assert (pairs, stats["k"], stats["max_product"]) == ([], 7, 0)
        assert "warning: no label at k=7 is shared" in err
        code, _, err = run(capsys, "match", str(g1), str(g2), "--auto-k", "-o", str(m))
        pairs, _, _, stats = parse_matching(m.read_text())
        assert code == 0 and err == ""
        assert stats["k"] == 3 and pairs

    def test_tune_k_with_no_shared_label_warns(self, tmp_path, capsys):
        g1, g2 = tmp_path / "g1.erg", tmp_path / "g2.erg"
        g1.write_text(emit_erg(path_graph(3)))
        g2.write_text(emit_erg(path_graph(2)))
        code, out, err = run(capsys, "tune-k", str(g1), str(g2), "--k-max", "3")
        assert code == 0
        assert "achieved_max_product: 0" in out
        assert "no label at any k in [1, 3] is shared" in err

    def test_auto_k_with_no_shared_label_warns(self, tmp_path, capsys):
        # The tuner started at k=1, so the warning names the range it
        # scanned and suggests no smaller k.
        g1, g2, m = tmp_path / "g1.erg", tmp_path / "g2.erg", tmp_path / "m.txt"
        g1.write_text(emit_erg(path_graph(3)))
        g2.write_text(emit_erg(path_graph(2)))
        code, _, err = run(capsys, "match", str(g1), str(g2), "--auto-k", "--k-max", "3",
                           "-o", str(m))
        assert code == 0
        pairs, _, _, stats = parse_matching(m.read_text())
        assert (pairs, stats["k"], stats["max_product"]) == ([], 1, 0)
        assert "warning: no label at any k in [1, 3] is shared" in err
        assert "smaller k" not in err


class TestErrors:
    def test_malformed_erg_names_line(self, tmp_path, capsys):
        # label reads the file without coordinates, perturb with them.
        bad = tmp_path / "bad.erg"
        bad.write_text("ERG 1\nn 2\na 0 1\na 1 zero\n")
        code, _, err = run(capsys, "label", str(bad))
        assert code == 1
        assert "line 4" in err
        assert run(capsys, "perturb", str(bad)) == (1, "", err)

    @pytest.mark.parametrize("command", ["label", "perturb", "match", "tune-k", "validate", "oracle"])
    @pytest.mark.parametrize(
        "case", ["erg-nan", "erg-asymmetric-and-bad-coords", "erg-lowest-id-named", "segments-lat-95"]
    )
    def test_malformed_file_same_error_every_command(self, tmp_path, capsys, case, command):
        # validate and perturb read coordinates, the others do not.
        fmt, text, message = MALFORMED[case]
        good, bad, m = tmp_path / "good", tmp_path / "bad", tmp_path / "m.txt"
        g = gen_irregular_grid(2, 2, 0.0, 0)
        good.write_text(emit_erg(g) if fmt == "erg" else segments_text(g))
        bad.write_text(text)
        m.write_text("m 0 0\n")
        files = {"label": [bad], "perturb": [bad], "validate": [m, good, bad]}.get(command, [good, bad])
        code, out, err = run(capsys, command, *map(str, files), "--format", fmt)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_file_exit_one(self, capsys):
        code, _, err = run(capsys, "label", "/nonexistent/g.erg")
        assert code == 1

    def test_product_bound_exceeded_exit_two(self, tmp_path, capsys):
        # Two identical 3-vertex paths per graph: the leaf label repeats
        # forever, so its product never drops below 4 at any k.
        g = tmp_path / "g.erg"
        two = "ERG 1\nn 6\n" + "\n".join(
            f"a {v} {' '.join(str(u) for u in row)}"
            for v, row in enumerate(((1,), (0, 2), (1,), (4,), (3, 5), (4,)))
        ) + "\n"
        g.write_text(two)
        code, _, err = run(capsys, "match", str(g), str(g), "--k", "2",
                           "--max-product", "1")
        assert code == 2
        assert "tune-k" in err

    @pytest.mark.parametrize("command", ["label", "match", "validate"])
    def test_negative_k_exit_one(self, tmp_path, capsys, command):
        g = tmp_path / "g.erg"
        g.write_text(emit_erg(path_graph(3)))
        m = tmp_path / "match.txt"
        m.write_text("")
        files = {"label": [g], "match": [g, g], "validate": [m, g, g]}[command]
        code, out, err = run(capsys, command, *map(str, files), "--k", "-2")
        assert code == 1
        assert "k must be >= 0, got -2" in err
        assert "# k:" not in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["label", "{missing}", "--k", "-1"], "label depth k must be >= 0, got -1"),
            (["perturb", "{missing}", "--add-edges", "0.6"],
             "perturbation fractions must be in [0, 0.5]"),
            (["tune-k", "{g}", "{missing}", "--max-product", "0"],
             "max_product and k_max must be >= 1"),
            (["tune-k", "{g}", "{missing}", "--k-max", "0"], "max_product and k_max must be >= 1"),
            (["match", "{g}", "{missing}", "--max-product", "0"],
             "max_product must be >= 1, got 0"),
            (["match", "{g}", "{missing}", "--k", "-1", "--max-product", "0"],
             "label depth k must be >= 0, got -1"),
            (["match", "{g}", "{missing}", "--auto-k", "--k", "-1", "--max-product", "0"],
             "max_product and k_max must be >= 1"),
            (["validate", "{m}", "{g}", "{missing}", "--k", "-1"],
             "label depth k must be >= 0, got -1"),
        ],
        ids=["label-k", "perturb-fraction", "tune-k-product", "tune-k-k-max", "match-product",
             "match-k-first", "match-auto-k", "validate-k"],
    )
    def test_flag_refused_before_any_file_is_read(self, tmp_path, capsys, monkeypatch, argv,
                                                  message):
        g, m = tmp_path / "g.erg", tmp_path / "m.txt"
        g.write_text(emit_erg(path_graph(3)))
        m.write_text("m 0 0\n")
        paths = {"g": g, "m": m, "missing": tmp_path / "missing.erg"}

        def unread(*args, **kwargs):
            raise AssertionError("a file was read before the flags were checked")

        monkeypatch.setattr(cli, "load_graph", unread)
        monkeypatch.setattr(cli, "load_pair", unread)
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_auto_k_leaves_k_unchecked(self, tmp_path, capsys):
        # k is unused under --auto-k, so a negative one is no error there.
        g = tmp_path / "g.erg"
        g.write_text(emit_erg(gen_irregular_grid(6, 6, 0.2, 3)))
        code, out, _ = run(capsys, "match", str(g), str(g), "--auto-k", "--k", "-1")
        assert code == 0
        assert "# k: " in out

    @pytest.mark.parametrize("bad_side", [0, 1])
    @pytest.mark.parametrize("command", ["match", "tune-k", "validate", "oracle"])
    def test_vertex_count_above_limit_exit_one(self, tmp_path, capsys, command, bad_side):
        good, bad, m = tmp_path / "g.erg", tmp_path / "huge.erg", tmp_path / "m.txt"
        good.write_text(emit_erg(path_graph(3)))
        bad.write_text("ERG 1\nn 10000000000\n")
        m.write_text("m 0 0\n")
        pair = [good, good]
        pair[bad_side] = bad
        files = [m, *pair] if command == "validate" else pair
        code, _, err = run(capsys, command, *map(str, files))
        assert code == 1
        assert "line 2: n = 10000000000 is above the limit" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "2.5", "three"])
    def test_validate_rejects_non_integer_k_line(self, tmp_path, capsys, value):
        g, m = tmp_path / "g.erg", tmp_path / "m.txt"
        g.write_text(emit_erg(path_graph(3)))
        m.write_text(f"# k: {value}\nm 0 0\n")
        code, out, err = run(capsys, "validate", str(m), str(g), str(g))
        assert code == 1
        assert f"matching file's k must be a non-negative integer, got {value}" in err
        assert "Traceback" not in err and out == ""

    def test_validate_refuses_a_matching_file_not_utf8(self, tmp_path, capsys):
        g, m = tmp_path / "g.erg", tmp_path / "m.txt"
        g.write_text(emit_erg(path_graph(3)))
        m.write_bytes(b"m 0 0\n\xff\n")
        code, out, err = run(capsys, "validate", str(m), str(g), str(g))
        assert (code, out, err) == (1, "", f"error: {m}: not UTF-8 text at byte 6\n")

    def test_validate_reads_a_matching_file_with_a_byte_order_mark(self, tmp_path, capsys):
        g, plain, marked = tmp_path / "g.erg", tmp_path / "m.txt", tmp_path / "bom.txt"
        g.write_text(emit_erg(gen_irregular_grid(5, 5, 0.2, 1)))
        assert dispatch(["match", str(g), str(g), "--k", "2", "--max-product", "1000",
                         "-o", str(plain)]) == 0
        marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
        capsys.readouterr()
        outputs = [run(capsys, "validate", str(m), str(g), str(g)) for m in (plain, marked)]
        assert outputs[0][0] == 0 and "approximation_ratio: " in outputs[0][1]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize(
        "records,message",
        [
            ("m 99 3\n", "graph1 has no vertex 99 (25 vertices)"),
            ("m 0 0\nm 1 -1\n", "graph2 has no vertex -1 (25 vertices)"),
            ("m 0 0\nm 0 3\n", "vertex 0 of graph1 is matched twice"),
            ("m 0 3\nm 1 3\n", "vertex 3 of graph2 is matched twice"),
        ],
        ids=["absent-in-graph1", "negative-in-graph2", "twice-in-graph1", "twice-in-graph2"],
    )
    def test_validate_rejects_bad_pairs(self, tmp_path, capsys, records, message):
        g, m = tmp_path / "g.erg", tmp_path / "m.txt"
        dispatch(["gen", "grid", "--rows", "5", "--cols", "5", "--rng-seed", "1",
                  "-o", str(g)])
        m.write_text(records)
        code, out, err = run(capsys, "validate", str(m), str(g), str(g))
        assert code == 1
        assert message in err
        assert out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--bucket-km", "nan", "bucket width must be finite and > 0 km, got nan"),
            ("--bucket-km", "inf", "bucket width must be finite and > 0 km, got inf"),
            ("--bucket-km", "0", "bucket width must be finite and > 0 km, got 0.0"),
            ("--threshold-miles", "-1", "threshold must be finite and >= 0 miles, got -1.0"),
            ("--threshold-miles", "nan", "threshold must be finite and >= 0 miles, got nan"),
            ("--threshold-miles", "inf", "threshold must be finite and >= 0 miles, got inf"),
        ],
    )
    def test_validate_rejects_flag_values(self, tmp_path, capsys, flag, value, message):
        # Refused before anything is read or printed, on a 12 x 12 pair
        # with coordinates, so every metric would otherwise run.
        g1, g2, m = tmp_path / "g1.erg", tmp_path / "g2.erg", tmp_path / "m.txt"
        g = gen_irregular_grid(12, 12, 0.2, 5)
        g1.write_text(emit_erg(g))
        g2.write_text(emit_erg(perturb(g, 0.04, 0.0, 0.0, 6)[0]))
        assert dispatch(["match", str(g1), str(g2), "--k", "4", "--max-product", "10000",
                         "-o", str(m)]) == 0
        capsys.readouterr()
        hist = tmp_path / "hist.csv"
        code, out, err = run(capsys, "validate", str(m), str(g1), str(g2),
                             "--hist", str(hist), flag, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not hist.exists()

    def test_validate_hist_needs_coordinates(self, tmp_path, capsys):
        # ERG files without 'v' lines: refused once the pair is loaded,
        # before anything is labeled or printed.
        g1, g2, m = tmp_path / "g1.erg", tmp_path / "g2.erg", tmp_path / "m.txt"
        g = gen_irregular_grid(12, 12, 0.2, 5)
        g1.write_text(emit_erg(g.without_coords()))
        g2.write_text(emit_erg(perturb(g, 0.04, 0.0, 0.0, 6)[0].without_coords()))
        assert dispatch(["match", str(g1), str(g2), "--k", "4", "--max-product", "10000",
                         "-o", str(m)]) == 0
        capsys.readouterr()
        hist = tmp_path / "hist.csv"
        code, out, err = run(capsys, "validate", str(m), str(g1), str(g2), "--hist", str(hist))
        assert (code, out, err) == (1, "", "error: histogram requires coordinates on both graphs\n")
        assert not hist.exists()

    def test_zero_k_labels_degrees(self, tmp_path, capsys):
        g = tmp_path / "g.erg"
        g.write_text(emit_erg(path_graph(3)))
        code, out, _ = run(capsys, "label", str(g), "--k", "0")
        assert code == 0
        assert out.splitlines()[:3] == ["label 0 1", "label 1 2", "label 2 1"]

    def test_unknown_subcommand_exit_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_no_subcommand_exit_one(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_help_exit_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


class TestLabelTuneOracle:
    def test_label_output_format(self, tmp_path, capsys):
        g = tmp_path / "g.erg"
        g.write_text(emit_erg(path_graph(3)))
        code, out, _ = run(capsys, "label", str(g), "--k", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "label 0 1,2"
        assert lines[1] == "label 1 2,1,1"
        assert "# labels: 2" in lines

    def test_tune_k_output(self, tmp_path, capsys):
        g = tmp_path / "g.erg"
        dispatch(["gen", "grid", "--rows", "8", "--cols", "8",
                  "--irregularity", "0.2", "--rng-seed", "2", "-o", str(g)])
        capsys.readouterr()
        code, out, err = run(capsys, "tune-k", str(g), str(g),
                             "--max-product", "24", "--k-max", "8")
        assert code == 0
        assert "chosen_k:" in out
        assert "achieved_max_product:" in out

    def test_tune_k_warns_when_unbounded(self, tmp_path, capsys):
        g = tmp_path / "g.erg"
        g.write_text(emit_erg(path_graph(3)))
        code, out, err = run(capsys, "tune-k", str(g), str(g),
                             "--max-product", "1", "--k-max", "3")
        assert code == 0
        assert "warning" in err

    def test_oracle_command(self, tmp_path, capsys):
        g = tmp_path / "g.erg"
        g.write_text(emit_erg(path_graph(4)))
        code, out, _ = run(capsys, "oracle", str(g), str(g))
        assert code == 0
        assert out.splitlines()[0] == "max_conformal_cardinality: 4"

    def test_oracle_size_cap_exit_one(self, tmp_path, capsys):
        g = tmp_path / "g.erg"
        dispatch(["gen", "grid", "--rows", "5", "--cols", "5", "-o", str(g)])
        capsys.readouterr()
        code, _, err = run(capsys, "oracle", str(g), str(g))
        assert code == 1
        assert "size cap" in err

    def test_oracle_size_cap_checked_before_reading(self, tmp_path, capsys, monkeypatch):
        # A cap above the maximum wins over files that are not there.
        def unread(*args, **kwargs):
            raise AssertionError("oracle opened its files")

        monkeypatch.setattr(cli, "load_graph", unread)
        missing = str(tmp_path / "missing.erg")
        code, out, err = run(capsys, "oracle", missing, missing, "--size-cap", str(MAX_SIZE_CAP + 1))
        assert (code, out) == (1, "")
        assert err == f"error: size cap {MAX_SIZE_CAP + 1} is above the maximum of {MAX_SIZE_CAP}\n"

    def test_oracle_size_cap_above_the_maximum_exit_one(self, tmp_path, capsys):
        g = tmp_path / "g.erg"
        g.write_text(emit_erg(path_graph(4)))
        code, _, err = run(capsys, "oracle", str(g), str(g), "--size-cap", str(MAX_SIZE_CAP + 1))
        assert code == 1
        assert err == f"error: size cap {MAX_SIZE_CAP + 1} is above the maximum of {MAX_SIZE_CAP}\n"


class TestMatchingFormat:
    def test_round_trip(self):
        g1 = gen_irregular_grid(6, 6, 0.2, 1)
        g2, _ = perturb(g1, 0.05, 0.0, 0.0, 2)
        res = match(g1, g2, k=3, max_product=10**4)
        pairs, u1, u2, stats = parse_matching(format_matching(res))
        assert pairs == res.pairs
        assert u1 == res.unmatched1
        assert u2 == res.unmatched2
        assert stats["k"] == res.stats.k
        assert stats["matched"] == res.stats.matched
        assert 0 <= stats["label_time_s"] <= stats["seed_time_s"]

    def test_stats_without_label_time_still_parse(self):
        _, _, _, stats = parse_matching("m 0 0\n# stats\n# note: a\n# seed_time_s: 0.5\n")
        assert stats == {"seed_time_s": 0.5}

    def test_malformed_record_names_line(self):
        # Extra fields are as malformed as missing or unknown ones.
        for record in ("x 1 1", "m 1 2 3", "u1 4 5", "u2", "m 1 x"):
            with pytest.raises(InputError, match=f"line 2: malformed matching record: '{record}'"):
                parse_matching(f"m 0 0\n{record}\n")
