import pytest
from hypothesis import HealthCheck, settings

from capgames import capacity

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def cold_grid_spaces():
    """Empty the per-process grid space memos before and after the test,
    so that a count of builds, validations or fills does not depend on
    which tests ran before it."""
    memos = (capacity._grid_space_tables, capacity._grid_space_members)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
