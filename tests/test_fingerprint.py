"""The answers and search counts of fingerprint.py's seeded batch, pinned.

The full digest hashes every verdict, solution and SearchStats field of
3,159 solve, sat_to_csp, color_graph and edge_color calls; the
counts-only digest leaves the solutions out.  Both repeat under any
PYTHONHASHSEED.  A change that claims an identical search keeps both; one
that means to change a solution or a count records the new digest here
and says why.
"""

from functools import cache

from fingerprint import digests

FULL_DIGEST = "fbf39dacc1019879e4120ee324f8d68f93982a75f54108396997094898d8873e"
COUNTS_DIGEST = "0086a4330cd75045a3f82f83343b8f76bd8cb932690813d41998ebf7ed3b0ee0"

batch = cache(digests)  # both tests read one run of the batch


def test_fingerprint_counts_are_pinned():
    _full, counts, calls = batch()
    assert calls == 3159
    assert counts == COUNTS_DIGEST


def test_fingerprint_solutions_are_pinned():
    full, _counts, calls = batch()
    assert calls == 3159
    assert full == FULL_DIGEST
