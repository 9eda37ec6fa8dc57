"""Fixtures shared by every test module."""

import os

import pytest

from mflscan import pipeline


@pytest.fixture(autouse=True)
def no_helpers_carried_over():
    # a helper runs the `pipeline` code it was forked with, so a helper left by
    # an earlier test would miss this test's patches and spies and skew its
    # fork counts: every test starts with no helper, and ends with no child
    # process of this one left once the helpers are closed, as they are at
    # interpreter exit
    pipeline.close_helpers()
    yield
    pipeline.close_helpers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
