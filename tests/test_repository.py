import argparse
import os
import shlex
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.skipif(shutil.which("git") is None or not os.path.exists(os.path.join(ROOT, ".git")),
                    reason="needs git and a git checkout")
def test_no_tracked_file_is_gitignored():
    listed = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    assert listed.stdout == ""


def test_every_exported_name_resolves():
    import mome

    assert [name for name in mome.__all__ if not hasattr(mome, name)] == []


def _readme_commands() -> list[list[str]]:
    """The ``mome`` commands of the README's fenced "Command line" block, each
    with its continuation lines joined and its ``#`` comment dropped."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands, current = [], ""
    for line in block.splitlines():
        current += " " + line.split("#", 1)[0].strip()
        if current.endswith("\\"):
            current = current[:-1]
            continue
        if current.strip():
            commands.append(shlex.split(current))
        current = ""
    return commands


def test_every_readme_flag_exists():
    from mome.cli import build_parser

    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    commands = _readme_commands()
    assert {words[1] for words in commands} == set(subparsers)
    for words in commands:
        assert words[0] == "mome"
        accepted = subparsers[words[1]]._option_string_actions
        unknown = [w for w in words[2:] if w.startswith("--") and w not in accepted]
        assert unknown == [], " ".join(words)
