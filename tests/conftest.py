"""Setup shared by every test module."""

import os
from pathlib import Path

import pytest

import venncal


@pytest.fixture(autouse=True, scope="session")
def package_on_subprocess_path():
    """Tests that run `python -m venncal` in a subprocess import the package the
    tests import, also when it comes from the checkout's `src/` (pytest's
    `pythonpath` setting) rather than from an installation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(venncal.__file__).parents[1]), prepend=os.pathsep)
        yield
