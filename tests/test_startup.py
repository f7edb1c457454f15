"""What ``nk`` loads at start-up, and the hand-parsed ``run`` command line.

A fresh ``nk run`` process spends far longer importing than computing,
so ``import nk.cli`` loads only what every kind needs: ``nk.fundomain``
and ``nk.models`` wait for the kinds that use them, and ``argparse``
for a command line that ``cli._run_args`` leaves to it.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nk import cli

SRC = Path(__file__).resolve().parent.parent / "src"
EXAMPLES = SRC / "nk" / "examples"
CIRCLE = str(EXAMPLES / "circle.json")

WATCHED = ("nk.fundomain", "nk.models", "argparse", "dataclasses", "inspect",
           "importlib.resources")

PROBE = """
import io, json, sys
sys.path.insert(0, {src!r})
import nk.cli
loaded = {{"import": [m for m in {watched!r} if m in sys.modules]}}
for name, path in {runs!r}:
    sys.stdout = io.StringIO()
    code = nk.cli.main(["run", path, "--format", "machine"])
    sys.stdout = sys.__stdout__
    assert code == 0, (name, code)
    loaded[name] = [m for m in {watched!r} if m in sys.modules]
print(json.dumps(loaded))
"""


def loaded_modules(*flags, runs=()):
    """{stage: watched modules in sys.modules} of a fresh interpreter
    after ``import nk.cli`` and after each (stage, document) run in turn;
    -B keeps flags such as -I from writing bytecode into the tree."""
    code = PROBE.format(src=str(SRC), watched=WATCHED, runs=list(runs))
    res = subprocess.run([sys.executable, "-B", *flags, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def test_import_loads_only_what_every_kind_needs():
    loaded = loaded_modules(runs=[
        ("novikov", CIRCLE),
        ("fundomain", str(EXAMPLES / "scalar_domain.json")),
        ("knot", str(EXAMPLES / "trefoil.json"))])
    assert not {"nk.fundomain", "nk.models", "argparse", "dataclasses",
                "inspect"} & set(loaded["import"])
    assert not {"nk.fundomain", "nk.models", "argparse"} & set(
        loaded["novikov"])
    assert "nk.fundomain" in loaded["fundomain"]
    assert "nk.models" not in loaded["fundomain"]
    assert "nk.models" in loaded["knot"]
    assert "argparse" not in loaded["knot"]


def test_isolated_import_skips_importlib_resources():
    """Without site (whose .pth files may import it), nothing of nk
    imports importlib.resources: the examples are read through
    __file__."""
    loaded = loaded_modules("-I", "-S")
    assert loaded["import"] == []


# --- the hand-parsed command line ----------------------------------------------
# "F" stands for the path of the bundled circle example

ACCEPTED = [
    ["run", "F"],
    ["run", "F", "--format", "machine"],
    ["run", "--format", "machine", "F"],
    ["run", "--oracle", "F", "--precision", "7"],
    ["run", "F", "--direction", "minus", "--direction", "plus"],
    ["run", "F", "--oracle", "--oracle"],
    ["run", "F", "--precision", "0", "--precision", "10000"],
    ["run", "--precision", "007", "--direction", "minus", "--format", "text",
     "F", "--oracle"],
    ["run", ""],
]

DEFERRED = [
    ["run", "F", "--form", "machine"],
    ["run", "F", "--format=machine"],
    ["run", "F", "--dir", "minus"],
    ["run", "F", "--oracle=yes"],
    ["-h"],
    ["run", "-h"],
    ["run", "F", "--help"],
    ["run", "F", "--precision", "-1"],
    ["run", "F", "--precision", "10001"],
    ["run", "F", "--precision", "x"],
    ["run", "F", "--precision", "9" * 5000],
    ["run", "F", "--precision"],
    ["run", "F", "--format"],
    ["run", "F", "--format", "json"],
    ["run", "F", "--direction", "up"],
    ["run"],
    ["run", "F", "F"],
    ["run", "--", "F"],
    ["run", "F", "--"],
    ["run", "-"],
    ["run", "-5"],
    ["validate", "F"],
    ["examples", "list"],
    [],
]


def argv_id(argv):
    return " ".join(f"{a[0]}x{len(a)}" if len(a) > 20 else a or "''"
                    for a in argv) or "(empty)"


def with_file(argv):
    return [CIRCLE if a == "F" else a for a in argv]


def outcome(argv):
    """(exit code, stdout, stderr) of main(argv); a usage error or help
    from argparse shows as ("SystemExit", code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ACCEPTED, ids=argv_id)
def test_hand_parser_agrees_with_argparse(argv, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    argv = with_file(argv)
    args = cli._run_args(argv)
    assert args is not None
    assert vars(args) == vars(cli._build_argparser().parse_args(argv))
    fast = outcome(argv)
    monkeypatch.setattr(cli, "_run_args", lambda argv: None)
    assert fast == outcome(argv)


@pytest.mark.parametrize("argv", DEFERRED, ids=argv_id)
def test_other_command_lines_go_to_argparse(argv, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # no file named "-" here
    argv = with_file(argv)
    assert cli._run_args(argv) is None
    seen = []
    real = cli._build_argparser

    def building():
        seen.append(True)
        return real()

    monkeypatch.setattr(cli, "_build_argparser", building)
    code, out, err = outcome(argv)
    assert seen
    if isinstance(code, tuple):  # help or a usage error: argparse's bytes
        assert code in (("SystemExit", 0), ("SystemExit", 2))
        assert (out + err).startswith("usage: nk")
