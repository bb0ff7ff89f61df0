import pytest

from opwords import generation, presentations
from opwords.families import ribbons


@pytest.fixture(autouse=True)
def fresh_closures():
    """Each test closes its generator sets afresh, so a test that patches the
    splice or the guard runs the patched code, not a level kept by another;
    likewise each test draws its ribbon diagrams afresh, so a patched
    `ribbon_boxes` or `transpose_boxes` is the one read, and counts its
    congruences and checks its relations afresh, so a patched `_builder`,
    `_plan` or preset is the one run."""
    generation._closures.clear()
    ribbons._diagram.cache_clear()
    presentations._counts.clear()
    presentations._checks.clear()
