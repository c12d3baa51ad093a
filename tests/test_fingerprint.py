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
The full, counts and answers digests were re-recorded when every coloring
leaf began with the commit loop on its own masks, three-color vertices
included: a leaf the loop colors returns the loop's coloring, so 28
color records have another coloring (11 unlimited).  Record by record,
only color counts moved, and only down: 8 spend one CSP node and one
dangling rule fewer (3 unlimited, 3 at limit 25, 2 at limit 4), and those
two at limit 4 now reach their coloring instead of the limit.  No
unlimited verdict moved, so the verdicts-only digest holds.
The full and answers digests were re-recorded when simplify began
dropping every dominated or dead pair of a round at once, ahead of the
free pair: the lemmas fire in another order, so another valid
solution can lift back.
Record by record, only solutions moved: 239 solve records (83
unlimited) and 106 sat records (37 unlimited); no count or verdict.
"""

from functools import cache

from fingerprint import digests

FULL_DIGEST = "b881e9826c3f00c8ccf3c10eb1c95be243c8c464362adb66b9ad75184ce9693a"
COUNTS_DIGEST = "e475330538b09c10ba08d57b0c7298090e1611b1a59491bbf80730a038c7f38a"
ANSWERS_DIGEST = "d8d54d5bbd38eeb7bdbbbb97ce8654b85e7a1577818f59504902f494986dfe01"
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
