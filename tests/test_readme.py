"""The README's quickstarts run, and the numbers they quote reproduce."""

import contextlib
import io
import json
import math
import pathlib
import re
import shlex

import pytest

from codebounds.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text()


def code_block(heading: str, lang: str) -> str:
    """The first ``lang`` fenced block after the ``## heading`` line."""
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


CLI_LINES = [line for line in code_block("CLI quickstart", "sh").splitlines()
             if line.startswith("codebounds ")]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_cli_quickstart_lines_found():
    assert len(CLI_LINES) >= 10
    assert "codebounds distance --m 6 --c 2" in CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_quickstart_line_runs(line, tmp_path, monkeypatch):
    # every quickstart input is valid and applicable: exit 0 (success)
    monkeypatch.chdir(tmp_path)
    code, out = run(shlex.split(line)[1:])
    assert code == 0 and out


def test_quoted_distance():
    assert "it comes out 24" in README and "the 16 codewords" in README
    code, out = run(["distance", "--m", "6", "--c", "2"])
    report = json.loads(out)
    assert code == 0
    assert (report["d_min"], report["words_scanned"]) == (24, 16)


def test_quoted_asymptotic_constant():
    assert "(sqrt(3 + sqrt(6)))" in README
    code, out = run(["eigen", "--asymptotic", "--r", "3"])
    assert code == 0
    assert out == f"{math.sqrt(3 + math.sqrt(6)):.12g}\n"


def test_api_quickstart_runs_and_prints_its_comments():
    source = code_block("API quickstart", "python")
    quoted = re.findall(r"^print\(.*\)\s+# (\S+)$", source, re.MULTILINE)
    assert quoted == ["7", "270", "4"]     # gv, hamming, exact A(5, 3)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), namespace)
    assert out.getvalue().split() == quoted
    assert "A(63, 24) <= 791634" in source
    assert namespace["bound"].value_exact == 791634
    assert namespace["d"] == 24
