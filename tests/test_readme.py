"""The examples of README.md run as written and print what their comments say."""

import re
import shlex
from pathlib import Path

from varschouten import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _comment(lines) -> str:
    """The text of consecutive `#` lines, whitespace runs read as one space."""
    return " ".join(" ".join(line.lstrip("#").split()) for line in lines)


def test_python_examples(capsys):
    quick, trace = _blocks("python")
    namespace: dict = {}
    exec(quick, namespace)
    printed = capsys.readouterr().out.splitlines()
    lines = quick.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("print("))
    want = [line for line in lines[at + 1 : at + 3] if line.startswith("#")]
    assert len(want) == 2 and printed == [_comment(want)]
    exec(trace, namespace)
    assert capsys.readouterr().out.splitlines()[0] == "verified"


def test_command_line_examples(capsys):
    lines = "".join(_blocks("sh")).splitlines()
    checked = []
    for line, after in zip(lines, lines[1:]):
        if not (line.startswith("varschouten ") and after.startswith("# ")):
            continue
        argv = shlex.split(line)[1:]
        assert cli.main(argv) == 0, line
        assert capsys.readouterr().out == after[2:] + "\n", line
        checked.append(argv[0])
    assert checked == ["euler", "normalize", "fuzz"]
