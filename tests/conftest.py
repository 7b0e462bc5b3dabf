"""Fixtures shared by the test modules."""

import os

import pytest

import lpvolterra


@pytest.fixture
def child_env():
    """Environment for a fresh Python process that imports the package
    under test.  The child may run in another directory, where a relative
    PYTHONPATH no longer resolves, so the directory holding the package
    goes first."""
    root = os.path.dirname(os.path.dirname(lpvolterra.__file__))
    entries = [root] + [p for p in os.environ.get("PYTHONPATH", "")
                        .split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(entries))
