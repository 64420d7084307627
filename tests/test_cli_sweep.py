"""CLI: ``repro sweep`` and ``repro store`` subcommands.

The warm-path assertion reads the executor/store counter lines the CLI
prints — never wall clock — so the tests stay stable on loaded machines.
"""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main

SWEEP_ARGS = ["sweep", "--apps", "MM,HS", "--schemes", "baseline,dlp",
              "--sms", "1", "--scale", "0.1"]


def executor_counters(out: str) -> dict:
    """Parse the ``executor: ...`` / ``store: ...`` summary lines."""
    m = re.search(
        r"executor: simulated (\d+) cells, (\d+) store hits, (\d+) deduped",
        out,
    )
    s = re.search(r"store: (\d+) hits, (\d+) misses, (\d+) puts", out)
    assert m and s, f"counter lines missing from output:\n{out}"
    return {
        "simulated": int(m.group(1)),
        "store_hits": int(m.group(2)),
        "deduped": int(m.group(3)),
        "hits": int(s.group(1)),
        "misses": int(s.group(2)),
        "puts": int(s.group(3)),
    }


class TestParser:
    def test_sweep_and_store_registered(self):
        parser = build_parser()
        assert parser.parse_args(["sweep"]).command == "sweep"
        args = parser.parse_args(["store", "ls"])
        assert args.command == "store" and args.action == "ls"

    def test_store_action_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "nuke"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.apps == "all" and args.jobs == 1 and args.store is None


class TestSweepCommand:
    def test_cold_sweep_simulates_every_cell(self, capsys, tmp_path):
        argv = SWEEP_ARGS + ["--store", str(tmp_path / "store")]
        assert main(argv) == 0
        counters = executor_counters(capsys.readouterr().out)
        assert counters["simulated"] == 4
        assert counters["puts"] == 4
        assert counters["store_hits"] == 0

    def test_warm_second_invocation_hits_store_only(self, capsys, tmp_path):
        argv = SWEEP_ARGS + ["--store", str(tmp_path / "store")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        counters = executor_counters(capsys.readouterr().out)
        assert counters["simulated"] == 0
        assert counters["store_hits"] == 4
        assert counters["misses"] == 0

    def test_parallel_jobs_flag(self, capsys, tmp_path):
        argv = SWEEP_ARGS + ["--jobs", "2", "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert executor_counters(out)["simulated"] == 4
        assert "jobs 2" in out

    def test_memory_store_default(self, capsys):
        assert main(SWEEP_ARGS) == 0
        counters = executor_counters(capsys.readouterr().out)
        assert counters["simulated"] == 4

    def test_engine_without_replay_is_a_usage_error(self, capsys):
        assert main(SWEEP_ARGS + ["--engine", "fast"]) == 2
        assert "add --replay" in capsys.readouterr().err

    def test_unknown_scheme_errors(self, capsys):
        assert main(["sweep", "--apps", "MM", "--schemes", "magic"]) == 2
        assert "unknown scheme" in capsys.readouterr().err


class TestStoreCommand:
    def test_ls_lists_sweep_entries(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(SWEEP_ARGS + ["--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "4 entries" in out
        assert "MM" in out and "HS" in out and "dlp" in out

    def test_clear_empties_store(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(SWEEP_ARGS + ["--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "clear", "--store", store]) == 0
        assert "removed 4 entries" in capsys.readouterr().out
        assert main(["store", "ls", "--store", store]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_default_store_dir_from_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        assert main(["store", "ls"]) == 0
        assert "envstore" in capsys.readouterr().out
