"""The README's command-line examples, run as written.

Each `$ cat <file>` in the "Command line" section writes the file the
block shows; each `$ sft-tensor ...` runs through cli.main and must print
the lines shown under it.  A shown line with `...` matches any line that
starts with the text before it and ends with the text after it.
"""

import shlex
from pathlib import Path

import pytest

from sft_tensor.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_line_examples():
    """(files, commands): the cat'd files by name, and (command, expected
    lines) for every sft-tensor example, in README order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    files, commands = {}, []
    for block in section.split("```sh\n")[1:]:
        body = block.split("```", 1)[0]
        for entry in ("\n" + body).split("\n$ ")[1:]:
            command, *shown = entry.rstrip("\n").split("\n")
            if command.startswith("cat "):
                files[command[4:]] = "\n".join(shown) + "\n"
            elif command.startswith("sft-tensor "):
                command = command.split("  #", 1)[0].strip()
                commands.append((command, shown))
    return files, commands


FILES, COMMANDS = _command_line_examples()


def test_examples_found():
    assert len(FILES) >= 2 and len(COMMANDS) >= 6


def _matches(line: str, shown: str) -> bool:
    if "..." not in shown:
        return line == shown
    head, tail = shown.split("...", 1)
    return (
        len(line) >= len(head) + len(tail)
        and line.startswith(head)
        and line.endswith(tail)
    )


@pytest.mark.parametrize("command, shown", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_example(command, shown, tmp_path, monkeypatch, capsys):
    for name, content in FILES.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    main(shlex.split(command)[1:])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(shown), lines
    for line, expected in zip(lines, shown):
        assert _matches(line, expected), (line, expected)
