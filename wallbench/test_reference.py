"""Tests for the reference loop that scales end-to-end times.

    python3 -m pytest wallbench/test_reference.py -q
"""

import gc

from reference import reference_ms


def test_reference_is_positive_and_restores_gc():
    assert gc.isenabled()
    assert reference_ms() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        assert reference_ms() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()
