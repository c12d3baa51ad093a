"""The answers and search counts of fingerprint.py's seeded batch, pinned.

The full digest hashes every verdict, solution and SearchStats field of
3,279 solve, sat_to_csp, color_graph and edge_color calls; the
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
The full, counts and answers digests were re-recorded when every graph
node began with the commit loop on all-three-color masks, after
stripping: a node the loop colors returns that coloring, before any
branching or forest.  Record by record, only color and edge records
moved, and their nodes + csp_nodes only down: 437 color records (147
unlimited) and 61 edge records (25 unlimited) spend fewer, 321 color and
41 edge records have another coloring, and 39 color and 12 edge records
under a limit now reach their coloring instead of the limit.  No
unlimited verdict moved, so the verdicts-only digest holds.
The full, counts and answers digests were re-recorded when edge_color
began with the commit loop on the stripped root's conflict graph: a root
the loop colors returns that coloring, with no splice plan or search.
Record by record, only edge records moved, and their spent counts only
down: 73 of 80 per node limit spend fewer, 69 unlimited, 69 at limit 25
and 71 at limit 4 have another coloring, and 55 at limit 4 now reach
their coloring instead of the limit.  No unlimited verdict moved, so the
verdicts-only digest holds.
All four digests were re-recorded once more, in the commit after that,
because the batch itself changed (3,159 -> 3,279 calls).  Its 80 random
cubic graphs kept only 7 splice searches, so 39 planted cubic graphs
(n = 24 and 40) whose stripped root the loop gets stuck on and the
flower snarks J5 and J7 joined the edge inputs: 48 of the 121 unlimited
edge records splice.  The three "flow" graphs, which the graph-node loop
colors at their root, gave way to planted seeds 394 (n = 30) and 345
(n = 50) at 4.6/n, whose coloring leaves still place an outside vertex
by flow.  The verdicts-only digest moves only because the inputs did:
the parent of the root-loop change prints the same one on the new
batch, and the same records for every added edge input.
The full, counts and answers digests were re-recorded when the commit
loop began to take its vertices in saturation order (fewest colors,
then highest degree, then lowest id) instead of id order.  On the
unchanged batch, record by record, only color and edge records moved:
165 unlimited color records (155 with another coloring, 59 spending
fewer nodes + csp_nodes, 6 more) and 68 unlimited edge records (66 with
another coloring, 35 spending fewer, 7 more); under limits, 49 color and
24 edge records at limit 4 and 5 color and 13 edge records at limit 25
now reach their coloring, while 3 color and 7 edge records at limit 4
now hit it.  No unlimited verdict moved.  In the same change the batch
took new reach inputs with the same labels and verdicts, so the
verdicts-only digest holds: the "flow" graphs became planted seeds 894
(4.6/n) and 461 (7/n) at n = 50, as 394 and 345 no longer reach a flow
leaf, and STUCK_PLANTED the first 17 and 22 seeds whose root the loop
now gets stuck on.
The full, counts and answers digests were re-recorded when the commit
loop began to go back over its two-color commits at a dead end, within
a budget of one forward check per vertex, and to refute the masks when
no pick is left to go back to.  Its first descent is the loop as it
was, so a call on which the old loop never got stuck cannot move.  On
the unchanged batch, record by record, only color and edge records
moved, and each is a call on which the old loop got stuck at least
once (204 color and 150 edge calls were; 3 color and 13 edge of them
did not move): 67 unlimited color records (14 with another coloring,
53 with counts alone) and 47 unlimited edge records (43 with another
coloring, 4 with counts alone), every one spending fewer nodes; under
limits, 63 color records reach their verdict at limit 4 and 19 at limit
25 instead of the limit, and 45 edge records at limit 4 and 14 at limit
25 do.  No unlimited verdict moved.  In the same change the batch took
new reach inputs with the same labels and verdicts, so the
verdicts-only digest holds: the "flow" graphs became planted seeds
303612 (n = 50, 6/n) and 318189 (n = 80, 5.5/n), and STUCK_PLANTED the
first 17 and 22 seeds whose root the loop runs out of budget on; 41 of
the 121 unlimited edge records splice.
The full and answers digests were re-recorded when the coloring leaf
stopped running the commit loop, and then the loop on its 2-SAT
relaxation, before its CSP, and began to hand every full interior
coloring to one CSP solve.  Record by record, only one input moved: the
"flow" graph planted seed 303612 has another coloring, unlimited and at
limit 25, from its leaf's CSP, with the same counts (4 CSP calls of one
node each).  No count or verdict moved, so the counts-only and
verdicts-only digests hold.
"""

from functools import cache

from fingerprint import digests

FULL_DIGEST = "d6f9343ab76c0494278365b5001b865c7f7150f0bfc4111b3cbd260f419b2da4"
COUNTS_DIGEST = "a893624803439b65ec7eb947676b2b0f3f4ce605cedc30a6d94969a5eb92fb7b"
ANSWERS_DIGEST = "3cd8a22d940b2af5c4aac8a2b8e3774ebd901366a963222a946b05427cea74a3"
VERDICTS_DIGEST = "222a776ed5c671c8bb3a4afa0a978f216b47800ef6536b91a593687649c4ec85"

batch = cache(digests)  # the four tests read one run of the batch


def test_fingerprint_counts_are_pinned():
    _full, counts, _answers, _verdicts, calls = batch()
    assert calls == 3279
    assert counts == COUNTS_DIGEST


def test_fingerprint_solutions_are_pinned():
    full, _counts, _answers, _verdicts, calls = batch()
    assert calls == 3279
    assert full == FULL_DIGEST


def test_fingerprint_answers_are_pinned():
    _full, _counts, answers, _verdicts, calls = batch()
    assert calls == 3279
    assert answers == ANSWERS_DIGEST


def test_fingerprint_verdicts_are_pinned():
    _full, _counts, _answers, verdicts, calls = batch()
    assert calls == 3279
    assert verdicts == VERDICTS_DIGEST
