"""Tests for the command-line interface."""

import argparse
import importlib
import json
import tomllib
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main


def test_point_command_prints_a_table(capsys):
    code = main(["point", "--protocol", "ziziphus", "--zones", "3",
                 "--clients", "3", "--warmup-ms", "100",
                 "--measure-ms", "200"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ziziphus" in out
    assert "tput_tps" in out


def test_point_with_failures(capsys):
    code = main(["point", "--protocol", "ziziphus", "--clients", "3",
                 "--failures-per-zone", "1", "--warmup-ms", "100",
                 "--measure-ms", "200"])
    assert code == 0
    assert "ziziphus" in capsys.readouterr().out


def test_point_with_clusters(capsys):
    code = main(["point", "--zones", "4", "--clusters", "2",
                 "--clients", "3", "--global-fraction", "0.3",
                 "--cross-cluster-fraction", "0.5",
                 "--warmup-ms", "100", "--measure-ms", "300"])
    assert code == 0


def test_analyze_assignment(capsys):
    code = main(["analyze-assignment", "--zones", "3", "--zone-size", "4",
                 "--byzantine", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "P[zone unsafe]" in out
    assert "True" in out    # deterministic placement is safe


def test_trace_command_writes_exports(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.json"
    code = main(["trace", "--zones", "3", "--clients", "3",
                 "--global-fraction", "0.2", "--warmup-ms", "100",
                 "--measure-ms", "200", "--out", str(out),
                 "--chrome", str(chrome)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "instrumented point" in printed
    assert "protocol phase spans" in printed
    assert "endorse" in printed
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["format"] == "repro-trace"
    assert json.loads(lines[-1])["type"] == "summary"
    doc = json.loads(chrome.read_text())
    phases = {e["ph"] for e in doc["traceEvents"]}
    assert {"M", "X", "i"} <= phases


def test_console_script_entry_point_declared():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        config = tomllib.load(handle)
    assert config["project"]["scripts"]["repro"] == "repro.cli:main"
    # The declared entry point must resolve and run.
    module_name, _, attr = config["project"]["scripts"]["repro"].partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    with pytest.raises(SystemExit):
        entry(["--help"])


def test_unknown_protocol_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["point", "--protocol", "bogus"])
    assert excinfo.value.code != 0
    assert "invalid choice" in capsys.readouterr().err


def test_figure_choices_are_validated(capsys):
    code = main(["figure", "fig99"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro figure: unknown figure 'fig99'; ")
    assert err.count("\n") == 1
    assert "fig4" in err    # the message lists the valid names


@pytest.mark.parametrize("argv, said", [
    (["point", "--protocol", "flat-pbft", "--backend", "rotating"],
     "does not support consensus backends"),
    (["point", "--zones", "7", "--clusters", "2"],
     "7 zones cannot be shared equally among 2 clusters"),
    (["trace", "--out", "/nonexistent/d/t.jsonl"],
     "output directory does not exist: /nonexistent/d"),
    (["chaos", "--campaign", "smoke", "--flight-dir", "/nonexistent/d"],
     "output directory does not exist: /nonexistent/d"),
    (["audit", "t.jsonl", "--report", "/nonexistent/d/r.json"],
     "output directory does not exist: /nonexistent/d")])
def test_configuration_error_is_one_line_and_exit_2(argv, said, capsys):
    """A system that cannot be stood up as asked, or an output it could
    not write: no traceback, no row claiming a layout that was not
    built, and no run whose result would be lost."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: ") and said in captured.err
    assert captured.err.count("\n") == 1


def test_version_flag(capsys):
    from repro import __version__
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_audit_command_round_trips_a_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code = main(["trace", "--zones", "3", "--clients", "3",
                 "--global-fraction", "0.2", "--warmup-ms", "100",
                 "--measure-ms", "200", "--out", str(trace)])
    assert code == 0
    capsys.readouterr()
    report_path = tmp_path / "report.json"
    code = main(["audit", str(trace), "--report", str(report_path)])
    assert code == 0    # honest run: clean verdict
    out = capsys.readouterr().out
    assert "verdict: CLEAN" in out
    report = json.loads(report_path.read_text())
    assert report["format"] == "repro-forensic-report"
    assert report["verdict"] == "CLEAN"
    assert report["violations"] == []


def test_audit_missing_trace_fails(tmp_path, capsys):
    code = main(["audit", str(tmp_path / "nope.jsonl")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_bench_check_missing_baseline_fails(tmp_path, capsys):
    code = main(["bench-check", "--baseline",
                 str(tmp_path / "nope.json")])
    assert code == 2
    assert "bench-baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The command table
# ----------------------------------------------------------------------

def _subcommands() -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _output_cases():
    """(command, argv) per option of each row that writes a file, with
    the path inside a directory that does not exist."""
    for name, parser in _subcommands().items():
        positionals = [action.metavar for action in parser._actions
                       if not action.option_strings
                       and action.nargs is None]
        for action in parser._actions:
            if action.dest in cli._OUTPUT_FILES:
                path = "/nonexistent/d/f"
            elif action.dest == "flight_dir":
                path = "/nonexistent/d"
            else:
                continue
            yield pytest.param(name, [name, *positionals,
                                      action.option_strings[0], path],
                               id=f"{name}{action.option_strings[0]}")


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_command_has_help(name, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([name, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {name}")


@pytest.mark.parametrize("name, argv", list(_output_cases()))
def test_every_output_refuses_a_missing_directory_before_running(
        name, argv, capsys, monkeypatch):
    def never(args):
        raise AssertionError(f"{name} ran")

    monkeypatch.setitem(cli.COMMANDS, name,
                        replace(cli.COMMANDS[name], run=never))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err \
        == "repro: output directory does not exist: /nonexistent/d\n"


def test_figure_json_is_the_canonical_grid(tmp_path, capsys, monkeypatch):
    from repro.bench.experiments import (FIGURE_SPECS,
                                         fig_critical_path_specs,
                                         figure_specs)
    from repro.bench.parallel import run_grid
    from repro.obs.export import canonical_json

    monkeypatch.setitem(FIGURE_SPECS, "fig-critical-path", lambda: [
        replace(spec, clients_per_zone=4, warmup_ms=80.0, measure_ms=160.0)
        for spec in fig_critical_path_specs()])
    out = tmp_path / "fig.json"
    assert main(["figure", "fig-critical-path", "--format", "json",
                 "--out", str(out)]) == 0
    rows = run_grid(figure_specs("fig-critical-path"))
    for row in rows:
        row.setdefault("backend", "default")
    expected = canonical_json({"format": "repro-bench-grid", "version": 1,
                               "figure": "fig-critical-path",
                               "rows": rows})
    assert capsys.readouterr().out == expected + "\n"
    assert out.read_text() == expected + "\n"
