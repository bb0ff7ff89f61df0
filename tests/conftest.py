import pytest

from opwords import generation


@pytest.fixture(autouse=True)
def fresh_closures():
    """Each test closes its generator sets afresh, so a test that patches the
    splice or the guard runs the patched code, not a level kept by another."""
    generation._closures.clear()
