"""Run CLI child processes (`python -m rcg.cli`) on the same rcg the tests import.

`pythonpath` in pyproject.toml puts `src` on the test process's path only;
exporting it lets a plain `pytest` from a checkout spawn the CLI too.
"""
import os
import sys
from pathlib import Path

import pytest

import rcg


@pytest.fixture(scope="session", autouse=True)
def _children_import_rcg():
    source_root = str(Path(rcg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source_root, os.environ.get("PYTHONPATH"))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


@pytest.fixture
def str_limit():
    """The interpreter's int->str limit at 640 digits, the least it accepts.

    A test may set another value; the old one is restored after it.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)
