"""The dicesim package's namespace: its version and its submodules, each
imported when it is first read."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dicesim

PACKAGE = Path(dicesim.__file__).parent


def test_every_submodule_resolves():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem not in ("__init__", "__main__"))
    assert sorted(dicesim._SUBMODULES) == modules
    for name in modules:
        assert getattr(dicesim, name) is sys.modules[f"dicesim.{name}"]


def test_a_fresh_import_loads_no_submodule():
    code = "import sys, dicesim; print(sorted(name for name in sys.modules if name.startswith('dicesim.')))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, b"[]\n", b"")


@pytest.mark.parametrize("name", ["Device", "replay", "nosuch"])
def test_an_unknown_name_raises_attribute_error(name):
    # a submodule's names are read from the submodule, not from the package
    with pytest.raises(AttributeError, match=f"module 'dicesim' has no attribute '{name}'"):
        getattr(dicesim, name)


def test_version_is_the_project_version():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "(.*)"$', pyproject, re.M)[1] == dicesim.__version__
