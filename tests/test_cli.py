"""Command line front end: flags, formats, exit codes."""

import argparse
import json
import multiprocessing
import os

import pytest

from braidhooks.cli import (EXIT_CAP, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, VERIFIERS, main,
                            parse_shape)
from braidhooks.errors import ShapeConditionError
from braidhooks.tableaux import Shape


@pytest.fixture
def inline_pool(monkeypatch):
    """A two-CPU machine whose process pool maps in this process; the list
    records the size of each pool made."""
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return sizes


class TestParsing:
    def test_shape_specs(self):
        assert parse_shape("right:4,3,2,1") == Shape.right((4, 3, 2, 1))
        assert parse_shape("half:5,3,1") == Shape.half_right((5, 3, 1))
        assert parse_shape("skew:4,3,2,1/1") == Shape.skew_right((4, 3, 2, 1), (1,))

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_shape("4,3,2,1")


class TestEnumerate:
    def test_shape_count(self, capsys):
        assert main(["enumerate", "--shape", "right:4,3,2,1"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert out.strip().endswith("count: 12")

    def test_single_cell(self, capsys):
        assert main(["enumerate", "--shape", "right:1"]) == EXIT_PASS
        assert "count: 1" in capsys.readouterr().out

    def test_class_of_word(self, capsys):
        code = main(
            ["enumerate", "--class-of-word", "1,2,3,4,1,2,3,1,2,1", "--rank", "5",
             "--format", "json"]
        )
        assert code == EXIT_PASS
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 12

    def test_missing_rank_is_usage_error(self, capsys):
        assert main(["enumerate", "--class-of-word", "1,2,1"]) == EXIT_USAGE


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "reiner", "--n", "4"],
            ["verify", "commutation-class", "--n", "5"],
            ["verify", "braid-hooks", "--shape", "right:5,2,1"],
            ["verify", "half-right", "--shape", "5,3,1"],
            ["verify", "skew-balance", "--shape", "skew:4,3,2,1/1"],
            ["verify", "homomesy", "--shape", "right:4,3,2,1"],
            ["verify", "poset-edges", "--count", "5", "--seed", "1"],
        ],
    )
    def test_passing(self, argv, capsys):
        assert main(argv) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("spec", ["right:5,3,1", "skew:4,3,2,1/1"])
    def test_half_right_refuses_other_modes(self, spec, capsys):
        with pytest.raises(ShapeConditionError):
            VERIFIERS["half-right"][0](argparse.Namespace(shape=spec, cap=None))
        assert main(["verify", "half-right", "--shape", spec]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: verify half-right needs a half-right shape,"
                                f" not {spec!r}\n")

    def test_failing_exit_code(self, capsys):
        assert main(["verify", "homomesy", "--shape", "right:2,2"]) == EXIT_FAIL
        assert json.loads(capsys.readouterr().out)["pass"] is False

    def test_unknown_theorem(self, capsys):
        assert main(["verify", "middle-out"]) == EXIT_USAGE

    def test_missing_shape_is_usage_error(self, capsys):
        assert main(["verify", "braid-hooks"]) == EXIT_USAGE

    def test_cap_exit_code(self, capsys):
        code = main(["--cap", "3", "verify", "commutation-class", "--n", "6"])
        assert code == EXIT_CAP

    def test_zero_cap_is_usage_error(self, capsys):
        assert main(["--cap", "0", "verify", "commutation-class", "--n", "4"]) == EXIT_USAGE
        assert "--cap" in capsys.readouterr().err

    def test_cap_leaves_environment_alone(self, monkeypatch, capsys):
        monkeypatch.setenv("BRAIDHOOKS_CAP", "5")
        before = dict(os.environ)
        assert main(["--cap", "100", "verify", "commutation-class", "--n", "5"]) == EXIT_PASS
        assert dict(os.environ) == before
        monkeypatch.delenv("BRAIDHOOKS_CAP")
        assert main(["--cap", "3", "verify", "commutation-class", "--n", "6"]) == EXIT_CAP
        assert "BRAIDHOOKS_CAP" not in os.environ

    def test_cap_reaches_order_ideals(self, capsys):
        # a bounded poset of 3 or more elements has at least 3 order ideals
        code = main(["--cap", "2", "verify", "poset-edges", "--count", "1", "--seed", "1"])
        assert code == EXIT_CAP

    def test_poset_without_ideal_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "diamond.txt"
        path.write_text("bot < left\nbot < right\nleft < top\nright < top\n")
        assert main(["verify", "poset-edges", "--poset", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--ideal" in captured.err
        assert captured.out == ""

    def test_poset_file(self, tmp_path, capsys):
        path = tmp_path / "diamond.txt"
        path.write_text("bot < left\nbot < right\nleft < top\nright < top\n")
        code = main(
            ["verify", "poset-edges", "--poset", str(path), "--ideal", "bot"]
        )
        assert code == EXIT_PASS
        data = json.loads(capsys.readouterr().out)
        assert data["lhs"] == data["rhs"] == 2


class TestOrbits:
    def test_dihedral_braid_hooks(self, capsys):
        code = main(
            ["orbits", "--shape", "right:4,3,2,1", "--group", "dihedral",
             "--stat", "braid-hooks"]
        )
        assert code == EXIT_PASS
        data = json.loads(capsys.readouterr().out)
        assert data["homomesic"] is True
        assert [o["size"] for o in data["orbits"]] == [10, 2]

    def test_word_statistic(self, capsys):
        code = main(
            ["orbits", "--shape", "right:5,2,1", "--stat", "braid-moves"]
        )
        assert code == EXIT_PASS
        data = json.loads(capsys.readouterr().out)
        assert all(o["average"] == "1" for o in data["orbits"])

    def test_sampled_search_finds_28_cell_anomaly(self, capsys):
        code = main(
            ["orbits", "--shape", "right:7,6,5,4,3,2,1", "--group", "gyration",
             "--stat", "braid-hooks", "--sample", "20", "--seed", "0"]
        )
        assert code == EXIT_PASS
        data = json.loads(capsys.readouterr().out)
        assert data["found"] is True
        assert data["orbit"]["average"] != "1"

    def test_sampled_search_miss_is_fail(self, capsys):
        # the 21-cell staircase is gyration-homomesic, so nothing is found
        code = main(
            ["orbits", "--shape", "right:6,5,4,3,2,1", "--group", "gyration",
             "--stat", "braid-hooks", "--sample", "5", "--seed", "0"]
        )
        assert code == EXIT_FAIL

    def test_sample_rejects_other_statistics(self, capsys):
        code = main(
            ["orbits", "--shape", "right:7,6,5,4,3,2,1", "--group", "gyration",
             "--stat", "braid-moves", "--sample", "5"]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--stat" in captured.err
        assert captured.out == ""

    def test_threads_below_one_is_usage_error(self, capsys):
        code = main(["orbits", "--shape", "right:4,3,2,1", "--threads", "0"])
        assert code == EXIT_USAGE

    def test_threads_clamped_to_cpu_count(self, inline_pool, capsys):
        code = main(
            ["orbits", "--shape", "right:7,6,5,4,3,2,1", "--group", "gyration",
             "--sample", "20", "--seed", "0", "--threads", "64"]
        )
        assert code == EXIT_PASS
        assert inline_pool == [2]
        assert json.loads(capsys.readouterr().out)["found"] is True

    def test_pool_prints_the_start_line_and_the_serial_result(self, inline_pool, capsys):
        argv = ["orbits", "--shape", "right:7,6,5,4,3,2,1", "--group", "gyration",
                "--sample", "20", "--long-running"]
        outputs = []
        for threads in ("1", "2"):
            assert main(argv + ["--threads", threads]) == EXIT_PASS
            outputs.append(capsys.readouterr())
        assert inline_pool == [2]  # one worker maps in this process, with no pool
        assert [out.err for out in outputs] == ["scanning up to 20 seeds\n"] * 2
        assert outputs[0].out == outputs[1].out

    def test_no_more_workers_than_seeds(self, inline_pool, capsys):
        code = main(["orbits", "--shape", "right:7,6,5,4,3,2,1", "--group", "gyration",
                     "--sample", "1", "--threads", "2"])
        assert code == EXIT_FAIL  # seed 0 draws an orbit on average
        assert inline_pool == []

    def test_large_sample_needs_long_running(self, capsys):
        code = main(
            ["orbits", "--shape", "right:7,6,5,4,3,2,1", "--group", "gyration",
             "--sample", "5000"]
        )
        assert code == EXIT_USAGE

    def test_huge_full_enumeration_needs_long_running(self, capsys):
        code = main(
            ["orbits", "--shape", "right:7,6,5,4,3,2,1", "--group", "gyration"]
        )
        assert code == EXIT_USAGE

    def test_long_running_full_enumeration_prints_its_start_line(self, capsys):
        code = main(["orbits", "--shape", "right:3,2,1", "--long-running"])
        assert code == EXIT_PASS
        captured = capsys.readouterr()
        assert captured.err == "enumerating all fillings of 6 cells\n"
        assert json.loads(captured.out)["homomesic"] is True

    @pytest.mark.parametrize("argv", [["orbits"], ["verify", "poset-edges"]],
                             ids=["orbits", "verify"])
    def test_poset_without_ideal_is_refused_before_the_file_is_read(self, argv, tmp_path,
                                                                    capsys):
        # the file does not exist, so reading it first would report that instead
        missing = tmp_path / "missing.txt"
        assert main([*argv, "--poset", str(missing)]) == EXIT_USAGE
        captured = capsys.readouterr()
        command = "verify poset-edges " if argv[0] == "verify" else ""
        assert captured.err == f"{command}--poset needs --ideal\n"
        assert captured.out == ""

    def test_poset_descents(self, tmp_path, capsys):
        path = tmp_path / "diamond.txt"
        path.write_text("bot < left\nbot < right\nleft < top\nright < top\n")
        code = main(
            ["orbits", "--poset", str(path), "--ideal", "bot",
             "--group", "dihedral", "--stat", "descents"]
        )
        assert code == EXIT_PASS
        data = json.loads(capsys.readouterr().out)
        assert all(o["average"] == "1" for o in data["orbits"])

    @pytest.mark.parametrize("ideal", ["", "bot,left,right,top"], ids=["empty", "everything"])
    def test_poset_trivial_ideal_is_rejected_like_verify(self, ideal, tmp_path, capsys):
        path = tmp_path / "diamond.txt"
        path.write_text("bot < left\nbot < right\nleft < top\nright < top\n")
        for argv in (["orbits"], ["verify", "poset-edges"]):
            code = main([*argv, "--poset", str(path), "--ideal", ideal])
            assert code == EXIT_USAGE, argv
            captured = capsys.readouterr()
            assert captured.err == "error: ideal must be proper and nonempty\n", argv
            assert captured.out == "", argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["--shape", "right:3,2,1", "--stat", "descents"],
            ["--class-of-word", "1,2,1", "--rank", "3", "--stat", "descents"],
            ["--class-of-word", "1,2,1", "--rank", "3", "--stat", "braid-hooks"],
        ],
    )
    def test_unsupported_statistic_is_usage_error(self, argv, capsys):
        assert main(["orbits", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "--stat" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("stat", ["braid-hooks", "braid-moves"])
    def test_poset_rejects_other_statistics(self, stat, tmp_path, capsys):
        path = tmp_path / "chain.txt"
        path.write_text("a < b\n")
        code = main(["orbits", "--poset", str(path), "--ideal", "a", "--stat", stat])
        assert code == EXIT_USAGE
        assert "--stat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, stat",
        [
            (["--shape", "right:3,2,1"], "braid-hooks"),
            (["--class-of-word", "1,2,3,1,2,1", "--rank", "4"], "braid-moves"),
            (["--class-of-word", "1,2,3,1,2,1", "--rank", "4", "--stat", "braid-moves"],
             "braid-moves"),
        ],
    )
    def test_statistic_reported_is_the_one_counted(self, argv, stat, capsys):
        assert main(["orbits", *argv]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["statistic"] == stat

    def test_poset_default_statistic_is_descents(self, tmp_path, capsys):
        path = tmp_path / "chain.txt"
        path.write_text("a < b\n")
        main(["orbits", "--poset", str(path), "--ideal", "a"])
        assert json.loads(capsys.readouterr().out)["statistic"] == "descents"

    def test_csv_format(self, capsys):
        code = main(
            ["orbits", "--shape", "right:5,2,1", "--format", "csv"]
        )
        assert code == EXIT_PASS
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "orbit,size,average,representative"


class TestWindow:
    def test_golden_row(self, capsys):
        code = main(["window", "--word", "1,2,3,1,4,2,3,1,2,1", "--rank", "5",
                     "--format", "json"])
        assert code == EXIT_PASS
        data = json.loads(capsys.readouterr().out)
        row5 = next(r for r in data["rows"] if r["i"] == 5)
        assert (row5["word"], row5["a"], row5["c"]) == ("1231214321", 1, 1)

    def test_json_round_trip_schema(self, capsys):
        main(["orbits", "--shape", "right:4,3,2,1", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"mode", "statistic", "orbits", "homomesic"}
        assert set(data["orbits"][0]) == {"size", "average", "representative"}


class TestCapOnFillings:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--shape", "right:4,3,2,1"],
            ["verify", "braid-hooks", "--shape", "right:4,3,2,1"],
            ["verify", "half-right", "--shape", "5,3,1"],
            ["verify", "skew-balance", "--shape", "skew:4,3,2,1/1"],
            ["verify", "homomesy", "--shape", "right:4,3,2,1"],
            ["orbits", "--shape", "right:4,3,2,1"],
            ["orbits", "--shape", "right:4,3,2,1", "--stat", "braid-moves"],
        ],
    )
    def test_cap_covers_fillings(self, argv, capsys):
        # every shape here has more than 3 standard fillings
        assert main(["--cap", "3"] + argv) == EXIT_CAP
        assert "state cap of 3" in capsys.readouterr().err

    def test_cap_error_names_fillings(self, capsys):
        assert main(["--cap", "3", "enumerate", "--shape", "right:4,3,2,1"]) == EXIT_CAP
        err = capsys.readouterr().err
        assert err == "error: enumeration of fillings exceeded the state cap of 3\n"

    def test_cap_equal_to_the_count_passes(self, capsys):
        assert main(["--cap", "12", "enumerate", "--shape", "right:4,3,2,1"]) == EXIT_PASS
        assert capsys.readouterr().out.strip().endswith("count: 12")


class TestFlagRanges:
    def usage_error(self, argv, flag, capsys):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""

    def test_sample_zero(self, capsys):
        self.usage_error(
            ["orbits", "--shape", "right:3,2,1", "--sample", "0", "--group", "gyration"],
            "--sample", capsys,
        )

    def test_sample_negative(self, capsys):
        self.usage_error(
            ["orbits", "--shape", "right:3,2,1", "--sample", "-5", "--group", "gyration"],
            "--sample", capsys,
        )

    def test_poset_count_zero(self, capsys):
        self.usage_error(["verify", "poset-edges", "--count", "0"], "--count", capsys)

    def test_poset_max_size_below_three(self, capsys):
        self.usage_error(["verify", "poset-edges", "--max-size", "2"], "--max-size", capsys)

    def test_reiner_n_below_three(self, capsys):
        self.usage_error(["verify", "reiner", "--n", "2"], "--n", capsys)

    def test_commutation_class_n_below_three(self, capsys):
        self.usage_error(["verify", "commutation-class", "--n", "-3"], "--n", capsys)

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--class-of-word", "1", "--rank", "0"],
        ["enumerate", "--class-of-word", "1", "--rank", "-3"],
        ["orbits", "--class-of-word", "1", "--rank", "1"],
        ["window", "--word", "1", "--rank", "1"],
    ])
    def test_rank_below_two(self, argv, capsys):
        # no letter fits below rank 2: the floor speaks, not "outside 1..-1"
        self.usage_error(argv, "--rank must be at least 2", capsys)

    def test_least_values_pass(self, capsys):
        assert main(["verify", "reiner", "--n", "3"]) == EXIT_PASS
        assert main(["verify", "commutation-class", "--n", "3"]) == EXIT_PASS
        assert main(["verify", "poset-edges", "--count", "1", "--max-size", "3"]) == EXIT_PASS
        assert main(["orbits", "--shape", "right:3,2,1", "--sample", "1",
                     "--group", "gyration"]) in (EXIT_PASS, EXIT_FAIL)


class TestCapVariable:
    """``BRAIDHOOKS_CAP`` has the floor of ``--cap``; a bad value is a usage error."""

    @pytest.mark.parametrize("value", ["-1", "0", "abc"])
    def test_bad_value_is_usage_error(self, value, monkeypatch, capsys):
        monkeypatch.setenv("BRAIDHOOKS_CAP", value)
        assert main(["verify", "reiner", "--n", "3"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "BRAIDHOOKS_CAP" in captured.err and repr(value) in captured.err
        assert "state cap" not in captured.err
        assert captured.out == ""

    def test_bad_value_reaches_poset_walks(self, monkeypatch, capsys):
        monkeypatch.setenv("BRAIDHOOKS_CAP", "-1")
        assert main(["verify", "poset-edges", "--count", "1"]) == EXIT_USAGE
        assert "BRAIDHOOKS_CAP" in capsys.readouterr().err

    def test_poset_walks_read_it_once(self, monkeypatch, capsys):
        from braidhooks import cli, errors, posets

        reads = []

        def counted():
            reads.append(1)
            return errors.default_cap()

        monkeypatch.setattr(cli, "default_cap", counted)
        monkeypatch.setattr(posets, "default_cap", counted)
        assert main(["verify", "poset-edges", "--count", "5"]) == EXIT_PASS
        assert len(reads) == 1

    def test_explicit_cap_does_not_read_it(self, monkeypatch, capsys):
        monkeypatch.setenv("BRAIDHOOKS_CAP", "abc")
        assert main(["--cap", "100", "verify", "reiner", "--n", "3"]) == EXIT_PASS

    def test_library_error_is_typed(self, monkeypatch):
        from braidhooks.errors import CapSettingError, ExplosionGuardError, default_cap
        from braidhooks.posets import chain_poset, linear_extensions

        monkeypatch.setenv("BRAIDHOOKS_CAP", "0")
        with pytest.raises(CapSettingError, match="BRAIDHOOKS_CAP.*'0'"):
            default_cap()
        with pytest.raises(ExplosionGuardError):  # an explicit cap=0 is still honoured
            linear_extensions(chain_poset(2), cap=0)
        monkeypatch.setenv("BRAIDHOOKS_CAP", "7")
        assert default_cap() == 7

    def test_least_value_passes(self, monkeypatch, capsys):
        monkeypatch.setenv("BRAIDHOOKS_CAP", "2")
        assert main(["verify", "reiner", "--n", "3"]) == EXIT_PASS
        monkeypatch.setenv("BRAIDHOOKS_CAP", "1")
        assert main(["verify", "reiner", "--n", "3"]) == EXIT_CAP
