"""README's examples hold: each `print` of the library tour prints the
`# ...` comment on its line, and each `$ l2i ...` line writes the lines
below it to stdout and exits with the `# exit N` code they give (0 where
none is given)."""

import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from l2int import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def _printed_comments(source: str) -> list[str]:
    """The comment on each line that calls print, in order."""
    lines = source.splitlines()
    return [
        tok.string.removeprefix("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and lines[tok.start[0] - 1].lstrip().startswith("print(")
    ]


def _cli_examples() -> list[tuple[str, list[str], int]]:
    """Each `$ l2i` line's command, the output lines below it and the exit
    code the last of them gives."""
    examples = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("$ l2i "):
                examples.append((line.removeprefix("$ l2i "), [], 0))
            elif line.strip() and examples and not line.startswith("$"):
                command, out, code = examples[-1]
                text, _, exit_code = line.partition("# exit ")
                examples[-1] = command, out + [text.rstrip()], int(exit_code or code)
    return examples


def test_library_tour_prints_what_its_comments_say():
    (source,) = [b for b in _blocks("python") if "from l2int import" in b]
    expected = _printed_comments(source)
    printed = []
    exec(compile(source, "README.md", "exec"), {"print": lambda *a: printed.append(" ".join(map(str, a)))})
    assert len(expected) == 3
    assert printed == expected


@pytest.mark.parametrize("command, out, code", [pytest.param(*e, id=e[0]) for e in _cli_examples()])
def test_cli_example(command, out, code, capsys):
    assert cli.main(shlex.split(command)) == code
    assert capsys.readouterr().out == "".join(line + "\n" for line in out)


def test_every_cli_example_is_found():
    assert len(_cli_examples()) == 5
