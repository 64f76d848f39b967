"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from twinbeam.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(lang: str, section: str) -> str:
    """The first ``lang`` code block after the README heading ``section``."""
    text = README.read_text()
    return re.compile(rf"```{lang}\n(.*?)```", re.S).search(text, text.index(section)).group(1)


def test_library_example_runs(capsys):
    exec(compile(_block("python", "## Library example"), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_command_examples_run(tmp_path, monkeypatch, capsys):
    # the commands write under ./out, here a fresh directory
    monkeypatch.chdir(tmp_path)
    commands = [line for line in _block("sh", "## Command line").splitlines()
                if line.startswith("twinbeam ")]
    assert len(commands) == 6
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
