"""The README's library example and CLI commands run as written."""

import re
import shlex
from pathlib import Path

import pytest

from chipfire.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
CLI_BLOCK = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.DOTALL).group(1)


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:library example", "exec"), {})
    assert capsys.readouterr().out.endswith("weakly sorted\n")


@pytest.mark.parametrize("line", [line for line in CLI_BLOCK.splitlines()
                                  if line.startswith("chipfire ")])
def test_readme_cli_command_exits_0(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
