"""The README's Library snippet runs as documented, and its Command line
section names exactly the flags the CLI parser takes."""

import re
from pathlib import Path

from meswarm import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet():
    """The first python block of the README's Library section."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_snippet_runs(capsys):
    exec(compile(library_snippet(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:5]] == [
        "Position", "Rotation", "Linear Velocity", "IMU Gyro Bias",
        "IMU Accel. Bias"]
    assert lines[5].startswith("final position errors [m]: [")
    assert len(lines) == 6


def long_flags(text):
    """Every `--flag` named in text."""
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))


def test_readme_names_exactly_the_parser_flags():
    text = README.read_text()
    start = text.index("\n## Command line\n")
    section = text[start:text.index("\n## ", start + 1)]
    parser_flags = long_flags(cli.build_parser().format_help()) - {"--help"}
    assert long_flags(section) == parser_flags
