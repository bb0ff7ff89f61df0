import tracemalloc

import pytest

from opwords import cli, generation, presentations
from opwords.families import membership, ribbons


@pytest.fixture(autouse=True)
def fresh_closures():
    """Each test closes its generator sets afresh, so a test that patches the
    splice or the guard runs the patched code, not a level kept by another;
    likewise each test draws its ribbon diagrams afresh, so a patched
    `ribbon_boxes` or `transpose_boxes` is the one read, and counts its
    congruences and checks its relations afresh, so a patched `_builder`,
    `_plan` or preset is the one run.  It also closes `da`, round-trips,
    enumerates, describes `da` and checks `per` operands afresh, so a
    patched closure, view, enumerator, `steps_from_phi` or
    `is_twisted_permutation` is the one called."""
    generation._closures.clear()
    ribbons._diagram.cache_clear()
    presentations._counts.clear()
    presentations._checks.clear()
    cli._round_trips.clear()
    membership._enumerations.clear()
    membership._da_cache = None
    membership._da_rows.clear()
    membership._is_permutation.cache_clear()


def traced_peak(run):
    """Call `run()` under tracemalloc and return the bytes traced when it
    returns, its result still held, and at the peak; tracing always stops."""
    tracemalloc.start()
    try:
        held = run()  # so that `kept` counts the result
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
