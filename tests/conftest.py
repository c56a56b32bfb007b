import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from toricomplex import fan as _fan  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_fan_table():
    """Empty make_fan's table of fans before each test, so a test that
    counts what a fan derives sees fresh fans whatever ran before it."""
    _fan._interned.cache_clear()
