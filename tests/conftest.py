"""Fixtures shared by every test module."""

import pytest

from mflscan import pipeline


@pytest.fixture(autouse=True)
def no_helpers_carried_over():
    # a helper runs the `pipeline` code it was forked with, so a helper left by
    # an earlier test would miss this test's patches and spies and skew its
    # fork counts: every test starts, and ends, with no helper
    pipeline.close_helpers()
    yield
    pipeline.close_helpers()
