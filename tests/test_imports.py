"""Each `opwords` module imports alone in a fresh interpreter.

`opwords.presentations` reads its generators from `opwords.families`, so the
modules import one another; an import cycle among them fails here instead of
in a user's first command.
"""
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import opwords

SRC = str(Path(opwords.__file__).resolve().parents[1])
MODULES = ["opwords"] + sorted(
    info.name for info in pkgutil.walk_packages(opwords.__path__, "opwords.")
)


def test_the_module_list_holds_presentations():
    assert "opwords.presentations" in MODULES
    assert "opwords.families.membership" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
