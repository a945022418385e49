"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXIT_ERROR, EXIT_NO_RESULTS, EXIT_OK, build_parser, main


class TestParser:
    def test_query_defaults(self) -> None:
        args = build_parser().parse_args(["query", "--keywords", "Faloutsos"])
        assert args.database == "dblp"
        assert args.l == 10
        assert args.source == "prelim"

    def test_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_database_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--database", "oracle", "--keywords", "x"])


class TestCommands:
    def test_query_dblp(self, capsys) -> None:
        code = main(
            ["--scale", "0.2", "query", "--keywords", "Faloutsos", "--l", "8"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result 1" in out
        assert "Author: Christos Faloutsos" in out

    def test_query_no_match(self, capsys) -> None:
        code = main(
            ["--scale", "0.2", "query", "--keywords", "zzznothing", "--l", "5"]
        )
        assert code == 1
        assert "no matching" in capsys.readouterr().out

    def test_query_tpch(self, capsys) -> None:
        code = main(
            [
                "--scale", "0.4",
                "query",
                "--database", "tpch",
                "--keywords", "Supplier#000001",
                "--l", "6",
                "--algorithm", "bottom_up",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Supplier" in out

    def test_gds_command(self, capsys) -> None:
        code = main(["--scale", "0.2", "gds", "--subject", "author"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Paper" in out and "Co_Author" in out

    def test_analyze_command(self, capsys) -> None:
        code = main(
            [
                "--scale", "0.2",
                "analyze",
                "--subject", "author",
                "--keywords", "Christos", "Faloutsos",
                "--max-l", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal family" in out
        assert "Jaccard" in out


class TestExitCodes:
    """The pinned contract: 0 = success, 1 = no results, 2 = usage error."""

    def test_success_is_zero(self, capsys) -> None:
        assert (
            main(["--scale", "0.2", "query", "--keywords", "Faloutsos", "--l", "5"])
            == EXIT_OK
        )
        capsys.readouterr()

    def test_no_results_is_one(self, capsys) -> None:
        assert (
            main(["--scale", "0.2", "query", "--keywords", "zzznothing"])
            == EXIT_NO_RESULTS
        )
        capsys.readouterr()

    def test_library_error_is_two_with_stderr_message(self, capsys) -> None:
        code = main(
            ["--scale", "0.2", "query", "--keywords", "x", "--l", "0"]
        )
        assert code == EXIT_ERROR
        assert "summary size l" in capsys.readouterr().err

    def test_unknown_gds_subject_is_two(self, capsys) -> None:
        code = main(["--scale", "0.2", "gds", "--subject", "nope"])
        assert code == EXIT_ERROR
        assert "no G_DS registered" in capsys.readouterr().err

    def test_argparse_usage_error_is_two(self) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["query"])  # --keywords is required
        assert excinfo.value.code == EXIT_ERROR

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--keywords", "Faloutsos", "--workers", "2"],
            ["query", "--keywords", "Faloutsos", "--unordered"],
            ["precompute", "--out", "unused.d", "--table", "author", "--workers", "2"],
            ["serve", "--workers", "2"],
            ["serve", "--unordered"],
        ],
    )
    def test_removed_fanout_flags_are_usage_errors(self, argv, capsys) -> None:
        """Every command runs serially: --workers and --unordered are
        unknown flags that exit 2 before any dataset is built."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err


class TestPrecomputeCLI:
    def test_precompute_then_query_snapshot_round_trip(
        self, tmp_path, capsys
    ) -> None:
        snap = tmp_path / "snap.d"
        code = main(
            [
                "--scale", "0.2",
                "precompute",
                "--out", str(snap),
                "--table", "author",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "snapshot written" in out
        assert snap.is_dir() and (snap / "manifest.json").is_file()

        query = [
            "--scale", "0.2",
            "query",
            "--keywords", "Faloutsos",
            "--l", "6",
            "--source", "complete",
        ]
        assert main(query) == EXIT_OK
        cold = capsys.readouterr().out
        assert main(query + ["--snapshot", str(snap)]) == EXIT_OK
        warm = capsys.readouterr().out
        # identical rendered results, and every OS came off the disk tier
        assert warm.startswith(cold)
        assert "disk hits: 3, disk misses: 0" in warm

    def test_no_verify_flag_skips_checksums_but_not_fingerprint(
        self, tmp_path, capsys
    ) -> None:
        snap = tmp_path / "snap.d"
        assert (
            main(
                [
                    "--scale", "0.2",
                    "precompute", "--out", str(snap),
                    "--table", "author", "--ids", "0", "1", "2",
                ]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        query = [
            "--scale", "0.2",
            "query", "--keywords", "Faloutsos", "--l", "5",
            "--source", "complete",
            "--snapshot", str(snap), "--no-verify",
        ]
        assert main(query) == EXIT_OK
        assert "disk hits: 3" in capsys.readouterr().out
        # fingerprint validation still runs without checksum verification
        assert main(["--seed", "99"] + query) == EXIT_ERROR
        assert "does not match" in capsys.readouterr().err

    def test_existing_out_dir_without_overwrite_is_two(
        self, tmp_path, capsys
    ) -> None:
        snap = tmp_path / "snap.d"
        args = [
            "--scale", "0.2",
            "precompute", "--out", str(snap), "--table", "author",
            "--ids", "0", "1",
        ]
        assert main(args) == EXIT_OK
        capsys.readouterr()
        assert main(args) == EXIT_ERROR
        assert "already exists" in capsys.readouterr().err
        assert main(args + ["--overwrite"]) == EXIT_OK
        capsys.readouterr()

    def test_mismatched_snapshot_is_two(self, tmp_path, capsys) -> None:
        snap = tmp_path / "snap.d"
        assert (
            main(
                [
                    "--scale", "0.2",
                    "precompute", "--out", str(snap),
                    "--table", "author", "--ids", "0",
                ]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        code = main(
            [
                "--scale", "0.2", "--seed", "99",
                "query", "--keywords", "Faloutsos",
                "--snapshot", str(snap),
            ]
        )
        assert code == EXIT_ERROR
        assert "does not match" in capsys.readouterr().err

    def test_bad_selector_is_two(self, tmp_path, capsys) -> None:
        code = main(
            [
                "--scale", "0.2",
                "precompute", "--out", str(tmp_path / "s"),
                "--ids", "1",
            ]
        )
        assert code == EXIT_ERROR
        assert "requires" in capsys.readouterr().err


class TestServeCLI:
    """The serve subcommand: pinned flags, shared loader, exit codes."""

    def test_serve_flags_pinned(self) -> None:
        """serve shares the dataset parent parser (no flag drift)."""
        args = build_parser().parse_args(["serve"])
        assert args.database == "dblp"  # the shared dataset parent
        assert args.port == 8077
        assert args.snapshot is None
        args = build_parser().parse_args(
            ["serve", "--database", "tpch", "--port", "0", "--snapshot", "s.d"]
        )
        assert (args.database, args.port, args.snapshot) == ("tpch", 0, "s.d")

    def test_serve_bad_snapshot_is_exit_two(self, tmp_path, capsys) -> None:
        """The shared _load_session loader rejects before binding a port."""
        code = main(
            [
                "--scale", "0.2",
                "serve", "--port", "0",
                "--snapshot", str(tmp_path / "missing.d"),
            ]
        )
        assert code == EXIT_ERROR
        assert "not a snapshot directory" in capsys.readouterr().err

    def test_serve_mismatched_snapshot_is_exit_two(self, tmp_path, capsys) -> None:
        snap = tmp_path / "snap.d"
        assert (
            main(
                [
                    "--scale", "0.2",
                    "precompute", "--out", str(snap),
                    "--table", "author", "--ids", "0",
                ]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        code = main(
            ["--scale", "0.2", "--seed", "99", "serve", "--port", "0",
             "--snapshot", str(snap)]
        )
        assert code == EXIT_ERROR
        assert "does not match" in capsys.readouterr().err

    def test_serve_busy_port_is_exit_two(self, capsys) -> None:
        """A bind failure is a usage error (2), never the no-results 1."""
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            port = blocker.getsockname()[1]
            code = main(["--scale", "0.2", "serve", "--port", str(port)])
        finally:
            blocker.close()
        assert code == EXIT_ERROR
        assert "cannot bind" in capsys.readouterr().err

    def test_serve_answers_queries_and_exits_zero(self, tmp_path, capsys) -> None:
        """Boot on an ephemeral port, query over HTTP, exit 0 on shutdown."""
        import json
        import threading
        import time
        import urllib.request

        ready = tmp_path / "ready.txt"
        codes: list[int] = []

        def run_serve() -> None:
            codes.append(
                main(
                    [
                        "--scale", "0.2",
                        "serve", "--port", "0",
                        "--serve-seconds", "2",
                        "--ready-file", str(ready),
                    ]
                )
            )

        thread = threading.Thread(target=run_serve)
        thread.start()
        try:
            deadline = time.monotonic() + 15
            while not ready.is_file() and time.monotonic() < deadline:
                time.sleep(0.02)
            url = ready.read_text(encoding="utf-8").strip()
            request = urllib.request.Request(
                url + "/v1/query",
                data=json.dumps(
                    {"dataset": "dblp", "keywords": ["Faloutsos"], "options": {"l": 5}}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.loads(response.read().decode("utf-8"))
            assert response.status == 200
            assert body["total_matches"] == 3
            assert len(body["results"][0]["selected_uids"]) == 5
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes == [EXIT_OK]
        capsys.readouterr()
