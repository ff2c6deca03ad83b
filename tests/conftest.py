"""Suite-wide fixtures."""
from __future__ import annotations

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_enabled_after_test():
    """Fail a test that ends with the cyclic garbage collector disabled, so
    a pause that is not undone cannot leak into later tests."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test ended with the cyclic garbage collector disabled")
