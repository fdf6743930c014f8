"""CLI tests (python -m repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_run_suite_program(self, capsys):
        code, out, err = run_cli(capsys, "run", "figure5")
        assert code == 0
        assert out.splitlines() == ["5", "20", "7"]

    def test_run_with_args(self, capsys):
        code, out, err = run_cli(capsys, "run", "figure1", "John Doe")
        assert code == 0
        assert "FIRST NAME: Joh" in out

    def test_run_reports_uncaught_exception(self, capsys):
        code, out, err = run_cli(capsys, "run", "figure4")
        assert code == 1
        assert "ClosedException" in err

    def test_run_does_not_analyze(self, capsys, monkeypatch):
        # Running a program needs only the frontend and the interpreter:
        # no points-to solve, no SDG.
        def refuse(*args, **kwargs):
            raise AssertionError("repro run must not analyze the program")

        for target in (
            "repro.solve_points_to",
            "repro.build_sdg",
            "repro.analysis.pointsto.solve_points_to",
            "repro.sdg.sdg.build_sdg",
        ):
            monkeypatch.setattr(target, refuse)
        code, out, err = run_cli(capsys, "run", "figure5")
        assert (code, out.splitlines()) == (0, ["5", "20", "7"])
        code, out, err = run_cli(capsys, "run", "figure4")
        assert code == 1
        assert "ClosedException" in err

    def test_run_file_from_disk(self, capsys, tmp_path):
        path = tmp_path / "hello.mj"
        path.write_text(
            'class Main { static void main(String[] args) { print("hey"); } }'
        )
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 0
        assert out.strip() == "hey"

    def test_unknown_program_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "nope-nope"])

    def test_directory_path_friendly_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["stats", str(tmp_path)])
        assert "cannot read" in str(err.value)

    def test_unreadable_file_friendly_error(self, tmp_path):
        import os

        if os.geteuid() == 0:
            pytest.skip("root ignores file permissions")
        path = tmp_path / "secret.mj"
        path.write_text("class Main {}")
        path.chmod(0)
        with pytest.raises(SystemExit) as err:
            main(["stats", str(path)])
        assert "cannot read" in str(err.value)


class TestSlice:
    def seed_line(self, name: str, tag: str) -> int:
        from repro.lang.source import marker_line
        from repro.suite.loader import load_source

        return marker_line(load_source(name), "tag", tag)

    def test_thin_slice_output(self, capsys):
        line = self.seed_line("figure2", "seed")
        code, out, err = run_cli(capsys, "slice", "figure2", "--line", str(line))
        assert code == 0
        assert "thin slice" in out
        assert "new B()" in out
        assert "new A()" not in out  # explainer excluded

    def test_traditional_slice_output(self, capsys):
        line = self.seed_line("figure2", "seed")
        code, out, err = run_cli(
            capsys, "slice", "figure2", "--line", str(line), "--traditional"
        )
        assert code == 0
        assert "traditional slice" in out
        assert "new A()" in out

    def test_slice_on_empty_line_fails(self, capsys):
        code, out, err = run_cli(capsys, "slice", "figure2", "--line", "1")
        assert code == 1
        assert "no statements" in err

    def test_slice_json_output(self, capsys):
        import json

        line = self.seed_line("figure2", "seed")
        code, out, err = run_cli(
            capsys, "slice", "figure2", "--line", str(line), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["flavor"] == "thin"
        assert payload["seed_line"] == line
        assert payload["line_count"] == len(payload["lines"]) > 0
        assert "new B()" in payload["source_view"]

    def test_slice_json_empty_line_exits_nonzero(self, capsys):
        import json

        code, out, err = run_cli(
            capsys, "slice", "figure2", "--line", "1", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["seed_count"] == 0


class TestWhyChopDot:
    def lines(self, name, *tag_names):
        from repro.lang.source import marker_line
        from repro.suite.loader import load_source

        source = load_source(name)
        return [marker_line(source, "tag", t) for t in tag_names]

    def test_why_shows_value_path(self, capsys):
        buggy, seed = self.lines("figure1", "buggy", "seed")
        code, out, err = run_cli(
            capsys, "why", "figure1", "--source", str(buggy), "--sink", str(seed)
        )
        assert code == 0
        assert "value flow" in out
        assert "substring" in out
        assert "elems" in out  # the path goes through the Vector

    def test_why_reports_unreachable(self, capsys):
        seed, buggy = self.lines("figure1", "seed", "buggy")
        code, out, err = run_cli(
            capsys, "why", "figure1", "--source", str(seed), "--sink", str(buggy)
        )
        assert code == 1
        assert "no producer-flow path" in err

    def test_chop_lists_corridor(self, capsys):
        buggy, seed = self.lines("figure1", "buggy", "seed")
        code, out, err = run_cli(
            capsys, "chop", "figure1", "--source", str(buggy), "--sink", str(seed)
        )
        assert code == 0
        assert "thin chop" in out
        assert "substring" in out

    def test_chop_empty(self, capsys):
        seed, buggy = self.lines("figure1", "seed", "buggy")
        code, out, err = run_cli(
            capsys, "chop", "figure1", "--source", str(seed), "--sink", str(buggy)
        )
        assert code == 1
        assert "empty chop" in err

    def test_dot_full_graph(self, capsys):
        code, out, err = run_cli(capsys, "dot", "figure2", "--no-stdlib")
        assert code == 0
        assert out.startswith("digraph sdg {")

    def test_dot_slice_to_file(self, capsys, tmp_path):
        from repro.lang.source import marker_line
        from repro.suite.loader import load_source

        seed = marker_line(load_source("figure2"), "tag", "seed")
        target = tmp_path / "slice.dot"
        code, out, err = run_cli(
            capsys, "dot", "figure2", "--no-stdlib", "--line", str(seed),
            "-o", str(target),
        )
        assert code == 0
        assert target.exists()
        assert "digraph" in target.read_text()


class TestExplainAndStats:
    def test_explain_shows_conditional(self, capsys):
        from repro.lang.source import marker_line
        from repro.suite.loader import load_source

        source = load_source("figure4")
        line = marker_line(source, "tag", "throw")
        code, out, err = run_cli(capsys, "explain", "figure4", "--line", str(line))
        assert code == 0
        assert "!open" in out

    def test_stats_reports_counts(self, capsys):
        code, out, err = run_cli(capsys, "stats", "figure2", "--no-stdlib")
        assert code == 0
        assert "call graph nodes" in out
        assert "SDG statements" in out

    def test_stats_json_output(self, capsys):
        import json

        code, out, err = run_cli(
            capsys, "stats", "figure2", "--no-stdlib", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["program"] == "figure2.mj"
        assert payload["sdg_statements"] > 0
        assert payload["call_graph_edges"] >= payload["reachable_functions"] - 1


class TestServerRouting:
    @pytest.fixture()
    def address(self):
        from repro.server.cache import AnalysisCache
        from repro.server.daemon import SliceServer, start_tcp_server

        instance = SliceServer(AnalysisCache())
        tcp_server, _thread = start_tcp_server(instance)
        host, port = tcp_server.server_address[:2]
        yield f"{host}:{port}"
        tcp_server.shutdown()
        tcp_server.server_close()
        instance.close()

    def test_slice_via_server_matches_local(self, capsys, address):
        from repro.lang.source import marker_line
        from repro.suite.loader import load_source

        line = marker_line(load_source("figure2"), "tag", "seed")
        code, local_out, _ = run_cli(
            capsys, "slice", "figure2", "--line", str(line)
        )
        assert code == 0
        code, remote_out, _ = run_cli(
            capsys, "slice", "figure2", "--line", str(line),
            "--server", address,
        )
        assert code == 0
        assert remote_out == local_out

    @pytest.mark.parametrize("tag", ["throw", None], ids=["statement", "blank"])
    def test_explain_via_server_matches_local(self, capsys, address, tag):
        from repro.lang.source import marker_line
        from repro.suite.loader import load_source

        # ``None`` picks line 1: a comment, so no statements to explain.
        line = marker_line(load_source("figure4"), "tag", tag) if tag else 1
        argv = ["explain", "figure4", "--line", str(line)]
        local = run_cli(capsys, *argv)
        remote = run_cli(capsys, *argv, "--server", address)
        assert remote == local
        if tag is None:
            assert local[0] == 1
            assert local[2] == f"no statements found at figure4.mj:{line}\n"

    def test_stats_via_server_json(self, capsys, address):
        import json

        code, out, err = run_cli(
            capsys, "stats", "figure2", "--server", address,
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sdg_statements"] > 0
        assert payload["origin"] == "analyzed"

    def test_unreachable_server_friendly_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["stats", "figure2", "--server", "127.0.0.1:1"])
        assert "cannot reach server" in str(err.value)


class TestShardServeArgs:
    @pytest.mark.parametrize("quiet", [True, False])
    def test_quiet_reaches_spawned_shards(self, quiet):
        """Shards write their own logs, so ``serve --shards N --quiet``
        must pass ``--quiet`` on to each of them."""
        import argparse

        from repro.cli import _shard_serve_args

        args = argparse.Namespace(
            memory_capacity=8,
            timeout=30.0,
            workers=2,
            max_queue=32,
            cache_dir=None,
            no_disk_cache=True,
            store_max_mb=None,
            memory_limit_mb=None,
            poison_threshold=None,
            scrub_interval=None,
            quiet=quiet,
        )
        assert ("--quiet" in _shard_serve_args(args)) is quiet


class TestServeFlagValidation:
    """Bad tier flags end in an argparse ``error:`` line before any
    shard is spawned — no traceback, no spinning probe thread."""

    @pytest.fixture(autouse=True)
    def no_spawn(self, monkeypatch):
        from repro.server.shardpool import ShardPool

        def refuse(*args, **kwargs):
            raise AssertionError("a shard was spawned")

        monkeypatch.setattr(ShardPool, "spawn_local", refuse)

    TIER = ["serve", "--shards", "2", "--tcp", "127.0.0.1:0"]
    ROUTE = ["route", "--shard", "127.0.0.1:1"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (TIER + ["--probe-interval", "0"], "--probe-interval"),
            (TIER + ["--probe-interval", "-1"], "--probe-interval"),
            (ROUTE + ["--probe-interval", "0"], "--probe-interval"),
            (ROUTE + ["--probe-interval", "-0.5"], "--probe-interval"),
            (["serve", "--workers", "0"], "--workers"),
            (TIER + ["--workers", "0"], "--workers"),
            (["serve", "--memory-capacity", "0"], "--memory-capacity"),
        ],
    )
    def test_non_positive_value_is_an_error_line(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: must be positive" in err
        assert "Traceback" not in err
