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
The full and counts digests were re-recorded again when the forward-check
masks became the coloring leaf's only state: a unit coloring that a
propagated color excludes is no longer charged.  Record by record, only
color calls differ: 47 of 789 spend fewer nodes (23 unlimited, 19 at
limit 25, 5 at limit 4), and three planted ones at limit 4 now reach
their coloring instead of the limit.  No unlimited verdict or coloring
moved, so the answers-only and verdicts-only digests hold.
"""

from functools import cache

from fingerprint import digests

FULL_DIGEST = "cdd3258a860a906ecd5903a9319245ee50118da0d46d0581ad4580a4f0e67b1a"
COUNTS_DIGEST = "7ab1d4a45284e7069f9cb18d6a6538ba4627d8d569255654731b0b8cc7cfe160"
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
