import pytest

from qboson import algebra


@pytest.fixture(autouse=True)
def _empty_operator_set_slot():
    # build_operator_set keeps the last set it built; each test starts with
    # none, so a set built by an earlier test (unpatched, or at another
    # tolerance) never stands in for one this test builds
    algebra._last_set = None
