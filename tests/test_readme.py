"""The README's examples run as written.

Every command of the CLI "Examples:" block runs through ``cli.main``, the
JSON config document runs through ``--config``, and the Quick start block
is executed with each ``# -> value`` comment checked.  A flag that the CLI
rejects, or a value that the library no longer returns, fails here.
"""

import ast
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from bellsim.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(language: str, after: str) -> str:
    """The first ``language`` code block that follows the text ``after``."""
    start = README.index(after)
    match = re.compile(rf"```{language}\n(.*?)```", re.S).search(README, start)
    return match.group(1)


def example_commands() -> list[list[str]]:
    text = fenced_block("sh", "Examples:").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("bellsim ")]


def with_output(argv: list[str], path: Path) -> list[str]:
    """``argv`` with its ``--output`` value, or an added one, set to ``path``."""
    if "--output" in argv:
        argv = list(argv)
        argv[argv.index("--output") + 1] = str(path)
        return argv
    return argv + ["--output", str(path)]


def test_readme_lists_the_examples():
    assert [argv[0] for argv in example_commands()] == ["chained", "interf", "sample", "franson"]


@pytest.mark.parametrize("argv", example_commands(), ids=lambda argv: argv[0])
def test_cli_example_runs(tmp_path, argv):
    out = tmp_path / "out"
    assert main(with_output(argv, out)) == 0
    assert out.stat().st_size > 0


def test_config_document_runs(tmp_path):
    doc = json.loads(fenced_block("json", "A scan can live in a JSON document"))
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([doc["subcommand"], "--config", str(config), "--output", str(out)]) == 0
    assert out.read_text().count("\n") == 1 + 63  # header and one row per n


def quick_start_checks(source: str) -> list[tuple[str, str]]:
    """(expression, expected text) for each ``# -> value`` comment.

    The comment ends the statement's last line or stands alone on the
    line after it; a parenthesized remark after the value is dropped.
    """
    lines = source.splitlines() + [""]
    checks = []
    for stmt in ast.parse(source).body:
        last, after = lines[stmt.end_lineno - 1], lines[stmt.end_lineno]
        comment = last if "# ->" in last else after if after.lstrip().startswith("# ->") else ""
        if isinstance(stmt, ast.Expr) and comment:
            expected = comment.split("# ->", 1)[1].split(" (", 1)[0].strip()
            checks.append((ast.unparse(stmt.value), expected))
    return checks


def test_quick_start_values():
    source = fenced_block("python", "## Quick start")
    namespace: dict = {}
    exec(compile(source, "README.md", "exec"), namespace)
    checks = quick_start_checks(source)
    assert [expected for _, expected in checks] == ["0.5", "False", "2 - sqrt(2)", "1.0", "19"]
    for expression, expected in checks:
        got = eval(expression, namespace)
        want = eval(expected, {"sqrt": math.sqrt})
        if isinstance(want, float):
            assert got == pytest.approx(want, abs=1e-12), expression
        else:
            assert got == want and type(got) is type(want), expression
