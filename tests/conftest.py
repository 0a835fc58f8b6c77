"""Setup shared by every test module."""

import os
import warnings
from pathlib import Path

import pytest

import venncal

# hypothesis's pytest plugin imports this module to report a failing example;
# it imports libcst, whose use of mypy_extensions.TypedDict warns, and the
# DeprecationWarning-as-error setting would turn the report into a crash
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin skips the report itself
        pass


@pytest.fixture(autouse=True, scope="session")
def package_on_subprocess_path():
    """Tests that run `python -m venncal` in a subprocess import the package the
    tests import, also when it comes from the checkout's `src/` (pytest's
    `pythonpath` setting) rather than from an installation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(venncal.__file__).parents[1]), prepend=os.pathsep)
        yield
