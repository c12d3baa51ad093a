"""The search counts of fingerprint.py's seeded batch, pinned.

The counts-only digest hashes every verdict and SearchStats field of
3,159 solve, sat_to_csp, color_graph and edge_color calls, leaving the
solutions out.  A change that claims an identical search keeps it; one
that means to change a count records the new digest here and says why.
"""

from fingerprint import digests

COUNTS_DIGEST = "0086a4330cd75045a3f82f83343b8f76bd8cb932690813d41998ebf7ed3b0ee0"


def test_fingerprint_counts_are_pinned():
    _full, counts, calls = digests()
    assert calls == 3159
    assert counts == COUNTS_DIGEST
