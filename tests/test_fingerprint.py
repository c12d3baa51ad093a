"""The answers and search counts of fingerprint.py's seeded batch, pinned.

The full digest hashes every verdict, solution and SearchStats field of
3,159 solve, sat_to_csp, color_graph and edge_color calls; the
counts-only digest leaves the solutions out; the answers-only digest
keeps only the verdicts and solutions of the calls with no node limit,
and the verdicts-only digest only their verdicts.  All four repeat under
any PYTHONHASHSEED.  A change that claims an identical search keeps all
four; one that means to change a solution or a count records the new
digest here and says why.  The first three were re-recorded when
general_matching stopped copying networkx's choice among maximum
matchings: edge_color's splice plan follows the matching it returns, so
its counts and colorings changed (only edge_color records differ).  The
verdicts-only digest is the one the parent of that change printed.
"""

from functools import cache

from fingerprint import digests

FULL_DIGEST = "b3684f2af57b0a3c8c8c0b2f1af099ff1f3911b8a53cf0f666fa6a4175891500"
COUNTS_DIGEST = "a45d7c62f9382df49066911ec22f3fa3d9bbc112f4725e3f6eb543b4fc747f9d"
ANSWERS_DIGEST = "cb42cacedf11b794bcfa002e8bdc75b2f289328b09ab57aa11f5455c0aa470b3"
VERDICTS_DIGEST = "85aa22c0aa1612172953c2abfeda989a4a5d765071a2b374f72a984887c016dc"

batch = cache(digests)  # the four tests read one run of the batch


def test_fingerprint_counts_are_pinned():
    _full, counts, _answers, _verdicts, calls = batch()
    assert calls == 3159
    assert counts == COUNTS_DIGEST


def test_fingerprint_solutions_are_pinned():
    full, _counts, _answers, _verdicts, calls = batch()
    assert calls == 3159
    assert full == FULL_DIGEST


def test_fingerprint_answers_are_pinned():
    _full, _counts, answers, _verdicts, calls = batch()
    assert calls == 3159
    assert answers == ANSWERS_DIGEST


def test_fingerprint_verdicts_are_pinned():
    _full, _counts, _answers, verdicts, calls = batch()
    assert calls == 3159
    assert verdicts == VERDICTS_DIGEST
