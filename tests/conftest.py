"""Shared fixtures: synthetic corpora built once per session."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Child interpreters the tests start import the package from this checkout,
# as the test process does, whether or not PYTHONPATH names it.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

import corpus  # noqa: E402


@pytest.fixture(scope="session")
def raw_corpus_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("raw_corpus")
    corpus.make_raw_corpus(directory)
    return directory


@pytest.fixture(scope="session")
def raw_corpus_files(raw_corpus_dir) -> list[Path]:
    return sorted(raw_corpus_dir.glob("*.mid"))


@pytest.fixture(scope="session")
def strings_corpus_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("strings_corpus")
    corpus.make_string_corpus(directory)
    return directory
