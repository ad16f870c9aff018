import pytest

from tamehall import functors


@pytest.fixture
def fresh_memo():
    """The root-module memo emptied before the test and after it, so that
    the test sees every walk and leaves no module built under its
    patches."""
    functors._preinjective.cache_clear()
    yield
    functors._preinjective.cache_clear()
