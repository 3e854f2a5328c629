import os
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
