import contextlib
import tracemalloc

import pytest

from opwords import generation
from opwords.families import membership, ribbons


@pytest.fixture(autouse=True)
def fresh_closures():
    """Each test starts with nothing kept (`generation._kept` and
    `membership._da_cache`), so a test that patches the splice, a guard,
    `_builder`, `_plan`, a preset, a view or an enumerator runs the patched
    code, not a result kept by another; likewise each test draws its ribbon
    diagrams and checks `per` operands afresh, so a patched `ribbon_boxes`,
    `transpose_boxes` or `is_twisted_permutation` is the one called."""
    generation._kept.clear()
    membership._da_cache = None
    ribbons._diagram.cache_clear()
    membership._is_permutation.cache_clear()


@contextlib.contextmanager
def nothing_kept():
    """Run the block with an empty registry; what is kept stays as it was."""
    kept = generation._kept
    generation._kept = generation._Kept()
    try:
        yield
    finally:
        generation._kept = kept


def traced_peak(run):
    """Call `run()` under tracemalloc and return the bytes traced when it
    returns, its result still held, and at the peak; tracing always stops."""
    tracemalloc.start()
    try:
        held = run()  # so that `kept` counts the result
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
