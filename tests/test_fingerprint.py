"""The answers and search counts of fingerprint.py's seeded batch, pinned.

The full digest hashes every verdict, solution and SearchStats field of
3,159 solve, sat_to_csp, color_graph and edge_color calls; the
counts-only digest leaves the solutions out; the answers-only digest
keeps only the verdicts and solutions of the calls with no node limit.
All three repeat under any PYTHONHASHSEED.  A change that claims an
identical search keeps all three; one that means to change a solution or
a count records the new digest here and says why.  The first two were
re-recorded when the splice search began refuting pairings that close a
K4 of conflicts (fewer splices and leaves, one more stats field); the
answers-only digest is the one the parent of that change printed.
"""

from functools import cache

from fingerprint import digests

FULL_DIGEST = "162f35e53a044dab5a69020c90df4fe407a34f4b07aac760a67100ca04483a15"
COUNTS_DIGEST = "7963c18797fadf8849133b5d0c19f8b3c0ffec852c7416386e4200f5a8e347ba"
ANSWERS_DIGEST = "101a43fe72b12527533bc8c8420f415ff5ac7911919c4bd3644c10e6cf18170f"

batch = cache(digests)  # the three tests read one run of the batch


def test_fingerprint_counts_are_pinned():
    _full, counts, _answers, calls = batch()
    assert calls == 3159
    assert counts == COUNTS_DIGEST


def test_fingerprint_solutions_are_pinned():
    full, _counts, _answers, calls = batch()
    assert calls == 3159
    assert full == FULL_DIGEST


def test_fingerprint_answers_are_pinned():
    _full, _counts, answers, calls = batch()
    assert calls == 3159
    assert answers == ANSWERS_DIGEST
