"""The subcommand table: one parser entry per handler, one print site."""

import argparse

import numpy as np
import pytest

from loglap.cli import _HANDLERS, build_parser, main
from test_cli import circle_config, write_config

SUBCOMMANDS = ["spectrum", "solve", "cauchy", "extract", "compare", "ucp",
               "recover", "gauge", "heatcheck"]


def test_parser_lists_each_handler_with_its_help():
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    assert list(subs.choices) == list(_HANDLERS) == SUBCOMMANDS
    helps = {action.dest: action.help for action in subs._choices_actions}
    assert all(helps[name] for name in SUBCOMMANDS)


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_quiet_silences_the_summary(tmp_path, capsys, sub):
    cfg = circle_config(isometry={"kind": "circle_reflection", "axis": float(np.pi / 2)})
    if sub == "compare":
        for name in ("a", "b"):
            assert main(["extract", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / name), "--quiet"]) == 0
        cfg["compare"] = {"first": str(tmp_path / "a" / "gelfand.json"),
                          "second": str(tmp_path / "b" / "gelfand.json")}
    argv = [sub, "--config", write_config(tmp_path, cfg, "run.json"),
            "--out", str(tmp_path / "out")]
    capsys.readouterr()
    for extra, prints in ((["--quiet"], False), ([], True)):
        assert main(argv + extra) == 0
        captured = capsys.readouterr()
        assert bool(captured.out) == prints and not captured.err, captured
