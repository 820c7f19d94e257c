"""Child interpreters started by the CLI tests import the package from src/,
also when the suite runs without PYTHONPATH set (see pyproject.toml); each
test starts with no cached BFS from 0, so a test that patches the walk
sees it run."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _children_import_src():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(autouse=True)
def _no_cached_bfs_from_zero():
    from matgraph import graph

    graph._bfs_from_zero.cache_clear()
