"""The README's CLI transcript and Library snippet, run as shown.

Each ``$ simplexcover ...`` command of the transcript runs in a fresh
directory and must print exactly the lines shown under it (``verify``'s
``elapsed_ms`` aside); ``$ cat FILE`` shows a file an earlier command wrote.
Each snippet line ending in ``# value`` must evaluate to an object whose repr
is that value.
"""

import json
import re
import shlex
from pathlib import Path

from simplexcover import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, lang: str = "") -> list[str]:
    """The lines of the first fenced block under ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    body = section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]
    return body.splitlines()


def _transcript() -> list[tuple[list[str], list[str]]]:
    """``(argv, expected output lines)`` for each ``$`` command."""
    steps: list[tuple[list[str], list[str]]] = []
    for line in _block("CLI"):
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:]), []))
        elif line:
            steps[-1][1].append(line)
    return steps


def _without_elapsed(lines: list[str]) -> list[dict]:
    reports = [json.loads(line) for line in lines]
    for report in reports:
        report.pop("elapsed_ms")
    return reports


def test_readme_cli_transcript(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    steps = _transcript()
    assert [argv[:2] for argv, _ in steps] == [
        ["simplexcover", "count"],
        ["simplexcover", "cover"],
        ["cat", "cover.jsonl"],
        ["simplexcover", "witness"],
        ["simplexcover", "verify"],
        ["simplexcover", "render"],
    ]
    for argv, expected in steps:
        if argv[0] == "cat":
            assert Path(argv[1]).read_text(encoding="utf-8").splitlines() == expected
            continue
        assert cli.main(argv[1:]) == 0, argv
        out = capsys.readouterr().out.splitlines()
        if argv[1] == "verify":
            assert _without_elapsed(out) == _without_elapsed(expected)
        else:
            assert out == expected, argv


def test_readme_library_snippet():
    namespace: dict = {}
    shown = 0
    for line in _block("Library", "python"):
        match = re.fullmatch(r"(.*?)\s+# (.*)", line)
        if match is None:
            exec(line, namespace)
            continue
        code, expected = match.groups()
        assert repr(eval(code, namespace)) == expected, code
        shown += 1
    assert shown == 5
