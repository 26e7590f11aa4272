"""Command-line front end: subcommands, formats, validation, generator, bench."""

from __future__ import annotations

import io
import json
import mmap
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import tempobf
import tempobf.cli
import tempobf.count as count_module
from tempobf import compute_vertex_priority, count_extreme, gen_random_graph, load_edge_list, main, run_bench
from conftest import F1, F2, Alarm, alarm

F1_TSV = "T0\t0\nT1\t1\nT2\t0\nT3\t0\nT4\t0\nT5\t0\n"


@pytest.fixture
def f1_file(tmp_path):
    path = tmp_path / "f1.txt"
    path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in F1))
    return str(path)


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.txt"
    path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in F2))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_default_engine_tsv(self, capsys, f1_file):
        code, out, err = run_cli(capsys, "count", "--input", f1_file, "--delta", "3")
        assert (code, err) == (0, "")
        assert out == F1_TSV

    @pytest.mark.parametrize("algo", ["tbc", "tbc+", "tbc++", "oracle"])
    def test_every_engine_prints_the_same_counts(self, capsys, f1_file, algo):
        code, out, _ = run_cli(capsys, "count", "--input", f1_file, "--delta", "3", "--algo", algo)
        assert code == 0 and out == F1_TSV

    @pytest.mark.parametrize("algo", ["tbc", "tbc+", "tbc++", "oracle"])
    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_every_engine_takes_workers(self, capsys, f1_file, algo, workers):
        code, out, _ = run_cli(capsys, "count", "--input", f1_file, "--delta", "3", "--algo", algo, "--workers", workers)
        assert code == 0 and out == F1_TSV

    def test_json_format(self, capsys, f2_file):
        code, out, _ = run_cli(capsys, "count", "--input", f2_file, "--delta", "10", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"T0": 0, "T1": 1, "T2": 0, "T3": 0, "T4": 1, "T5": 0}

    def test_degenerate_sampling_matches_exact_bytes(self, capsys, f1_file):
        _, exact, _ = run_cli(capsys, "count", "--input", f1_file, "--delta", "3")
        code, sampled, _ = run_cli(
            capsys, "count", "--input", f1_file, "--delta", "3", "--sample-p", "1.0"
        )
        assert code == 0 and sampled == exact

    def test_sampled_estimates_are_scaled(self, capsys, f1_file):
        code, out, _ = run_cli(
            capsys, "count", "--input", f1_file, "--delta", "3", "--sample-p", "0.5", "--seed", "4"
        )
        assert code == 0
        values = [line.split("\t")[1] for line in out.splitlines()]
        assert values == ["0", "16", "0", "0", "0", "0"]

    def test_a_probability_whose_scale_overflows_is_a_usage_error(self, capsys, f1_file):
        # 1e-80 ** -4 overflows a float; 1e-77 ** -4 does not
        with pytest.raises(SystemExit) as exc:
            main(["count", "--input", f1_file, "--delta", "3", "--sample-p", "1e-80"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tempobf count ")
        assert "tempobf count: error: argument --sample-p: must be in (0, 1] with p ** -4 finite, got 1e-80" in err
        assert "Traceback" not in err
        code, out, _ = run_cli(capsys, "count", "--input", f1_file, "--delta", "3", "--sample-p", "1e-77", "--seed", "1")
        assert code == 0 and out == "".join(f"T{i}\t0\n" for i in range(6))

    def test_output_file(self, capsys, f1_file, tmp_path):
        target = tmp_path / "counts.tsv"
        code, out, _ = run_cli(
            capsys, "count", "--input", f1_file, "--delta", "3", "--output", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text() == F1_TSV

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{u} {v} {t}\n" for u, v, t in F1)))
        code, out, _ = run_cli(capsys, "count", "--delta", "3")
        assert code == 0 and out == F1_TSV

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--input", "x", "--delta", "-1"),
            ("count", "--input", "x", "--delta", "3", "--sample-p", "0"),
            ("count", "--input", "x", "--delta", "3", "--sample-p", "1.5"),
            ("count", "--input", "x", "--delta", "3", "--sample-p", "nan"),
            ("count", "--input", "x", "--delta", "3", "--algo", "tbc", "--sample-p", "0.5"),
            ("count", "--input", "x", "--delta", "3", "--algo", "nope"),
            ("count", "--input", "x", "--delta", "3", "--workers", "0"),
            ("count", "--input", "x", "--delta", "3", "--workers", "-1"),
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_input_is_a_runtime_error(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "count", "--input", str(tmp_path / "absent.txt"), "--delta", "3"
        )
        assert code == 1 and out == ""
        assert err.startswith("tempobf: ")

    def test_malformed_input_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a x 1\na x\n")
        code, _, err = run_cli(capsys, "count", "--input", str(path), "--delta", "3")
        assert code == 1 and "line 2" in err


class TestEnumerate:
    def test_instance_line_then_tallies(self, capsys, f1_file):
        code, out, _ = run_cli(capsys, "enumerate", "--input", f1_file, "--delta", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1\tu1\tu2\tv1\tv2\t1\t3\t2\t4"
        assert "\n".join(lines[1:]) + "\n" == F1_TSV

    def test_limit_zero_keeps_only_tallies(self, capsys, f2_file):
        code, out, _ = run_cli(
            capsys, "enumerate", "--input", f2_file, "--delta", "10", "--limit", "0"
        )
        assert code == 0
        assert len(out.splitlines()) == 6

    def test_limit_truncates_instances(self, capsys, f2_file):
        code, out, _ = run_cli(
            capsys, "enumerate", "--input", f2_file, "--delta", "10", "--limit", "1"
        )
        assert code == 0
        assert len(out.splitlines()) == 7

    @pytest.mark.parametrize("algo", ["tbe", "tbe+", "oracle"])
    @pytest.mark.parametrize("limit", [0, 1, 2])
    def test_limit_prints_a_prefix_and_the_full_tallies(self, capsys, f2_file, algo, limit):
        argv = ("enumerate", "--input", f2_file, "--delta", "10", "--algo", algo)
        _, full, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--limit", str(limit))
        assert code == 0
        lines = full.splitlines()
        assert len(lines) == 8
        assert out.splitlines() == lines[:limit] + lines[-6:]

    @pytest.mark.parametrize("limit", [0, 1])
    def test_limit_stops_building_instances(self, capsys, f2_file, monkeypatch, limit):
        built = []

        def recording(g, priority, delta, sink, workers):
            def record(inst):
                built.append(inst)
                sink(inst)

            return tempobf.enumerate_optimized(g, priority, delta, record, workers)

        monkeypatch.setattr(tempobf.cli, "enumerate_optimized", recording)
        code, out, _ = run_cli(
            capsys, "enumerate", "--input", f2_file, "--delta", "10", "--limit", str(limit)
        )
        assert code == 0
        assert len(built) == limit
        assert out.splitlines()[limit:] == ["T0\t0", "T1\t1", "T2\t0", "T3\t0", "T4\t1", "T5\t0"]

    @pytest.mark.parametrize("algo", ["tbe", "tbe+", "oracle"])
    def test_engines_emit_the_same_instance_multiset(self, capsys, f2_file, algo):
        code, out, _ = run_cli(
            capsys, "enumerate", "--input", f2_file, "--delta", "10", "--algo", algo
        )
        assert code == 0
        lines = out.splitlines()
        assert Counter(lines[:-6]) == Counter(
            ["1\tu1\tu2\tv1\tv2\t1\t3\t2\t4", "4\tu1\tu2\tv1\tv2\t5\t3\t2\t4"]
        )

    @pytest.mark.parametrize("algo", ["tbe", "tbe+", "oracle"])
    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_every_engine_takes_workers(self, capsys, f2_file, algo, workers):
        argv = ("enumerate", "--input", f2_file, "--delta", "10", "--algo", algo)
        _, default, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--workers", workers)
        assert code == 0 and out == default

    def test_limit_inside_a_child_part_prints_a_prefix_at_the_same_workers(self, capsys, tmp_path, real_pool):
        # two processes; the cut falls in the part the child sends back
        path = tmp_path / "pool.txt"
        path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in gen_random_graph(12, 12, 150, 400, skew=True, seed=3)))
        argv = ("enumerate", "--input", str(path), "--delta", "60", "--workers", "2")
        _, full, _ = run_cli(capsys, *argv)
        lines = full.splitlines()
        limit = len(lines) - 6 - 2
        code, out, _ = run_cli(capsys, *argv, "--limit", str(limit))
        assert code == 0
        assert out.splitlines() == lines[:limit] + lines[-6:]
        # the unlimited run, the limited one and its tallies each fork once
        assert len(real_pool) == 3

    def test_limit_at_one_worker_prints_a_prefix_of_a_two_worker_run(self, capsys, tmp_path, real_pool):
        # the graph is cut into the same chunks at every --workers, so the lines come in one order
        path = tmp_path / "pool.txt"
        path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in gen_random_graph(12, 12, 150, 400, skew=True, seed=3)))
        argv = ("enumerate", "--input", str(path), "--delta", "60")
        _, two, _ = run_cli(capsys, *argv, "--workers", "2")
        lines = two.splitlines()
        assert len(lines) > 5 + 6
        code, one, _ = run_cli(capsys, *argv, "--workers", "1", "--limit", "5")
        assert code == 0
        assert one.splitlines() == lines[:5] + lines[-6:]
        assert run_cli(capsys, *argv, "--workers", "1")[1] == two
        # only the two-worker run forks
        assert len(real_pool) == 1

    def test_negative_limit_is_a_usage_error(self, capsys, f1_file):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--input", f1_file, "--delta", "3", "--limit", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_non_positive_workers_is_a_usage_error(self, capsys, workers):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--input", "x", "--delta", "3", "--workers", workers])
        assert exc.value.code == 2
        capsys.readouterr()


class TestStream:
    def test_emission_lines(self, capsys, f1_file):
        code, out, _ = run_cli(
            capsys, "stream", "--input", f1_file, "--delta", "3", "--window", "4", "--stride", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0] == "0\t1\t1\t0\t0\t0\t0\t0\t0"
        assert lines[3] == "3\t1\t4\t0\t1\t0\t0\t0\t0"

    @pytest.mark.parametrize("extra", [("--engine", "stbc"), ("--workers", "4")])
    def test_engine_and_worker_choices_do_not_change_output(self, capsys, f1_file, extra):
        base = ("stream", "--input", f1_file, "--delta", "3", "--window", "4", "--stride", "1")
        _, reference, _ = run_cli(capsys, *base)
        code, out, _ = run_cli(capsys, *base, *extra)
        assert code == 0 and out == reference

    def test_default_stride_is_a_twentieth_of_the_window(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("".join(f"a x{i} {i}\n" for i in range(8)))
        code, out, _ = run_cli(
            capsys, "stream", "--input", str(path), "--delta", "3", "--window", "40"
        )
        # stride rounds to 2, so 8 edges arrive over 4 steps
        assert code == 0 and len(out.splitlines()) == 4

    def test_unordered_stream_is_a_runtime_error(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("a x 5\na y 1\n")
        code, _, err = run_cli(
            capsys, "stream", "--input", str(path), "--delta", "3", "--window", "4"
        )
        assert code == 1 and "arrived after" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("stream", "--input", "x", "--delta", "3", "--window", "0"),
            ("stream", "--input", "x", "--delta", "3", "--window", "4", "--stride", "5"),
            ("stream", "--input", "x", "--delta", "3", "--window", "4", "--stride", "0"),
            ("stream", "--input", "x", "--delta", "3", "--window", "4", "--workers", "0"),
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        capsys.readouterr()


class TestBench:
    def test_table_reports_equal_counts_per_engine(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        triples = gen_random_graph(8, 8, 100, 200, seed=7)
        path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in triples))
        code, out, _ = run_cli(
            capsys, "bench", "--input", str(path), "--delta", "30",
            "--algos", "tbc,tbc+,tbc++,tbe,tbe+,oracle",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == ["algorithm", "seconds", "peak_bytes"] + [f"T{i}" for i in range(6)]
        rows = [line.split("\t") for line in lines[1:]]
        assert [r[0] for r in rows] == ["tbc", "tbc+", "tbc++", "tbe", "tbe+", "oracle"]
        counts = {tuple(r[3:]) for r in rows}
        assert len(counts) == 1

    def test_seconds_peak_and_counts_come_from_one_untraced_run_in_a_child(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        triples = gen_random_graph(8, 8, 100, 200, seed=7)
        path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in triples))
        runs = tmp_path / "runs.txt"
        engine = tempobf.cli.count_extreme

        def spy(*args):
            with runs.open("a") as log:
                log.write(f"{os.getpid()} {tracemalloc.is_tracing()}\n")
            # fresh pages, one byte written in each, so the run's RSS rises by 16 MiB
            with mmap.mmap(-1, 16 << 20) as ballast:
                for at in range(0, len(ballast), mmap.PAGESIZE):
                    ballast[at] = 1
                return engine(*args)

        monkeypatch.setattr(tempobf.cli, "count_extreme", spy)
        (report,) = run_bench(str(path), 30, ("tbc++",))
        (run,) = runs.read_text().splitlines()
        pid, tracing = run.split()
        assert int(pid) != os.getpid() and tracing == "False"
        g = load_edge_list(str(path))
        assert report.counts == count_extreme(g, compute_vertex_priority(g), 30)
        assert report.seconds > 0 and report.peak_bytes >= 8 << 20 and not report.timed_out
        code, out, _ = run_cli(capsys, "bench", "--input", str(path), "--delta", "30", "--algos", "tbc++")
        assert code == 0
        _, seconds, peak = out.splitlines()[1].split("\t")[:3]
        assert float(seconds) >= 0 and int(peak) >= 8 << 20

    @pytest.mark.parametrize("why", ["no fork in the os", "a second thread alive"])
    def test_without_a_fork_each_engine_runs_here_uncapped_with_no_peak(self, tmp_path, monkeypatch, why):
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in gen_random_graph(8, 8, 100, 200, seed=7)))
        algos = ("tbc", "tbc++", "tbe+", "oracle")
        forked = run_bench(str(path), 30, algos)
        assert all(r.counts is not None for r in forked)
        engine = tempobf.cli.count_extreme

        def slow(*args):
            time.sleep(0.5)
            return engine(*args)

        monkeypatch.setattr(tempobf.cli, "count_extreme", slow)
        # in a forked child the slowed tbc++ overruns a 0.05 s cap; in this process no cap applies
        assert run_bench(str(path), 30, ("tbc++",), 0.05)[0].timed_out
        if why == "no fork in the os":
            monkeypatch.delattr(os, "fork")
            reports = run_bench(str(path), 30, algos, 0.05)
        else:
            release = threading.Event()
            other = threading.Thread(target=release.wait)
            other.start()
            try:
                reports = run_bench(str(path), 30, algos, 0.05)
            finally:
                release.set()
                other.join(timeout=10)
            assert not other.is_alive()
        assert [r.counts for r in reports] == [r.counts for r in forked]
        assert all(r.peak_bytes == 0 and not r.timed_out for r in reports)

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc to read a process's state from")
    @pytest.mark.parametrize("stop", ["cap", "exception while waiting"])
    def test_a_stop_ends_the_bench_child_and_its_pool_child(self, tmp_path, monkeypatch, real_pool, stop):
        # real_pool's patches reach the bench child, which forks a pool child of its own
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in gen_random_graph(12, 12, 150, 400, skew=True, seed=3)))
        forked = tmp_path / "forked.txt"
        fork = os.fork

        def fork_recorded_in_a_file():
            pid = fork()
            if pid:
                with forked.open("a") as log:
                    log.write(f"{pid}\n")
            return pid

        def stuck(*args):
            time.sleep(60)

        monkeypatch.setattr(os, "fork", fork_recorded_in_a_file)
        monkeypatch.setattr(count_module, "_count_part", stuck)
        began = time.perf_counter()
        if stop == "cap":
            (report,) = run_bench(str(path), 60, ("tbc++",), 1.0)
            assert report.timed_out and report.counts is None
        else:
            with pytest.raises(Alarm), alarm(1.0):
                run_bench(str(path), 60, ("tbc++",))
        assert time.perf_counter() - began < 10
        pids = set(map(int, forked.read_text().split()))
        (bench_child,) = real_pool
        assert len(pids) == 2 and bench_child in pids

        def ended(pid):
            # an orphan killed with the group may wait a while for its reaper; a zombie has ended
            try:
                with open(f"/proc/{pid}/stat") as stat:
                    return stat.read().rpartition(")")[2].split()[0] == "Z"
            except FileNotFoundError:
                return True

        deadline = time.monotonic() + 5
        while not all(map(ended, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(ended, pids))

    def test_timeout_marks_the_row(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        triples = gen_random_graph(10, 10, 3000, 50, seed=3)
        path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in triples))
        (report,) = run_bench(str(path), 50, ("oracle",), 0.05)
        assert report.timed_out and report.counts is None
        code, out, _ = run_cli(
            capsys, "bench", "--input", str(path), "--delta", "50",
            "--algos", "oracle", "--timeout-secs", "0.05",
        )
        assert code == 0
        assert out.splitlines()[1].split("\t")[3:] == ["timeout"] * 6

    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--input", "x", "--delta", "3", "--algos", ""),
            ("bench", "--input", "x", "--delta", "3", "--algos", "tbc,warp"),
            ("bench", "--input", "x", "--delta", "3", "--timeout-secs", "abc"),
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("secs", ["-5", "nan", "inf", "1e300"])
    def test_bad_timeout_rejected(self, capsys, secs):
        # 1e300 is finite, but longer than any wait select takes
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--input", "x", "--delta", "3", "--timeout-secs", secs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tempobf bench ")
        rule = f"from 0 (no cap) to {threading.TIMEOUT_MAX:.0f} seconds"
        assert f"tempobf bench: error: argument --timeout-secs: must be {rule}, got {secs}\n" in err
        assert "Traceback" not in err

    @pytest.fixture
    def recorded(self, tmp_path, monkeypatch):
        """A small graph's path, with lists that record each load_edge_list call and each os.fork child."""
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v} {t}\n" for u, v, t in gen_random_graph(8, 8, 100, 200, seed=7)))
        loads, forks = [], []
        load, fork = tempobf.cli.load_edge_list, os.fork

        def load_recorded(*args):
            loads.append(args)
            return load(*args)

        def fork_recorded():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(tempobf.cli, "load_edge_list", load_recorded)
        monkeypatch.setattr(os, "fork", fork_recorded)
        return path, loads, forks

    @pytest.mark.parametrize("secs", [-1, float("nan"), float("inf"), 1e300, threading.TIMEOUT_MAX])
    def test_run_bench_checks_the_cap_before_reading_or_forking(self, recorded, secs):
        path, loads, forks = recorded
        if secs == threading.TIMEOUT_MAX:
            # the rule's own maximum still caps a child that replies at once
            (report,) = run_bench(str(path), 30, ("tbc",), secs)
            assert len(loads) == 1 and len(forks) == 1
            assert not report.timed_out and report.counts == run_bench(str(path), 30, ("tbc",))[0].counts
        else:
            with pytest.raises(ValueError, match=r"^timeout_secs must be from 0 \(no cap\) to \d+ seconds, got "):
                run_bench(str(path), 30, ("tbc",), secs)
            assert loads == [] and forks == []

    def test_run_bench_checks_every_engine_name_before_reading_or_forking(self, recorded):
        # an unknown name after a known one refuses the whole list, so tbc never runs
        path, loads, forks = recorded
        choices = ", ".join(tempobf.cli.BENCH_ALGOS)
        with pytest.raises(ValueError) as exc:
            run_bench(str(path), 100, ("tbc", "warp"))
        assert str(exc.value) == f"unknown engine 'warp'; choose from {choices}"
        assert loads == [] and forks == []


class TestSharedFlags:
    """Flags every input-reading subcommand takes: --input, --output and --delta."""

    @pytest.mark.parametrize("command", [("enumerate",), ("stream", "--window", "4"), ("bench",)])
    def test_negative_delta_is_a_usage_error(self, capsys, f1_file, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", f1_file, "--delta", "-1"])
        assert exc.value.code == 2
        assert "--delta" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("count",), ("enumerate",), ("stream", "--window", "4"), ("bench",)])
    @pytest.mark.parametrize("spelling", ["same", "dot"])
    def test_output_naming_the_input_is_refused(self, capsys, f2_file, command, spelling):
        before = Path(f2_file).read_bytes()
        output = f2_file if spelling == "same" else os.path.join(os.path.dirname(f2_file), ".", os.path.basename(f2_file))
        with pytest.raises(SystemExit) as exc:
            main([*command, "--input", f2_file, "--delta", "10", "--output", output])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tempobf {command[0]} ")
        assert "--output names the --input file" in err
        assert Path(f2_file).read_bytes() == before


class TestRulesSpanningFlags:
    """A rule between flags is a usage error of the chosen subcommand, as a flag's own rule is."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("count", "--input", "x", "--delta", "3", "--algo", "tbc", "--sample-p", "0.5"), "--sample-p applies to the tbc++ engine only"),
            (("stream", "--input", "x", "--delta", "3", "--window", "4", "--stride", "5"), "--stride (5) must not exceed --window (4)"),
        ],
    )
    def test_reported_through_the_subcommand(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tempobf {argv[0]} ")
        assert f"tempobf {argv[0]}: error: {message}" in err


class TestUnknownFlags:
    """An argument no subcommand flag takes is a usage error of the chosen subcommand too."""

    @pytest.mark.parametrize(
        "argv,leftover",
        [
            (("count", "--input", "x", "--delta", "3", "--bogus"), "--bogus"),
            (("stream", "--input", "x", "--delta", "3", "--window", "4", "--bogus", "7"), "--bogus 7"),
            (("gen", "--input", "x", "--upper", "2", "--lower", "2", "--edges", "2", "--t-max", "3"), "--input x"),
        ],
    )
    def test_reported_through_the_subcommand(self, capsys, argv, leftover):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: tempobf {argv[0]} ")
        assert f"tempobf {argv[0]}: error: unrecognized arguments: {leftover}" in err


class TestModuleEntry:
    def test_python_dash_m_prints_help(self):
        src = str(Path(tempobf.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "tempobf", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: tempobf")


class TestGen:
    def test_seed_determinism(self, capsys, tmp_path):
        args = ("gen", "--upper", "20", "--lower", "20", "--edges", "200", "--t-max", "99", "--seed", "4")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        _, other, _ = run_cli(capsys, *args[:-1], "5")
        assert other != first

    def test_output_is_loadable(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--upper", "6", "--lower", "6", "--edges", "50", "--t-max", "30"
        )
        assert code == 0
        g = load_edge_list(io.StringIO(out))
        assert g.edge_count == 50
        assert g.upper_count <= 6 and g.lower_count <= 6

    def test_zero_edges_writes_nothing(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--upper", "3", "--lower", "3", "--edges", "0", "--t-max", "10"
        )
        assert code == 0 and out == ""

    def test_chronological_sorts_by_timestamp(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--upper", "5", "--lower", "5", "--edges", "80", "--t-max", "40",
            "--chronological",
        )
        assert code == 0
        stamps = [int(line.split()[2]) for line in out.splitlines()]
        assert stamps == sorted(stamps)

    def test_closed_pipe_ends_quietly(self, capsys, monkeypatch, tmp_path):
        # as in `tempobf gen ... | head -1`: the reader is gone before the first write
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["gen", "--upper", "5", "--lower", "5", "--edges", "50", "--t-max", "40"])
        assert (code, capsys.readouterr().err) == (0, "")
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["count", "--input", str(tmp_path / "absent.txt"), "--delta", "3"])
        assert code == 1
        assert capsys.readouterr().err.startswith("tempobf: ")

    def test_skew_concentrates_upper_degrees(self):
        triples = gen_random_graph(100, 100, 5000, 1000, skew=True, seed=1)
        degrees = Counter(u for u, _, _ in triples)
        ranked = sorted(degrees.values(), reverse=True)
        median = ranked[len(ranked) // 2]
        assert ranked[0] >= 10 * max(1, median)

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--upper", "0", "--lower", "3", "--edges", "5", "--t-max", "10"),
            ("gen", "--upper", "3", "--lower", "3", "--edges", "-1", "--t-max", "10"),
            ("gen", "--upper", "3", "--lower", "3", "--edges", "5", "--t-max", "-2"),
            # gen reads no edge list, so it takes no --input
            ("gen", "--input", "/nonexistent", "--upper", "2", "--lower", "2", "--edges", "2", "--t-max", "3"),
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        capsys.readouterr()
