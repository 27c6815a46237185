import pytest
from hypothesis import HealthCheck, settings

from capgames import capacity, tensor

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
    """Empty the per-process memos of grid spaces, grids, fill orders and
    product domains before and after the test, so that a count of builds,
    validations, fills or compares does not depend on which tests ran
    before it."""
    memos = (capacity._grid_space_tables, capacity._grid_space_members,
             capacity._checked_grid, capacity._fill_order, tensor._product_domain)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
