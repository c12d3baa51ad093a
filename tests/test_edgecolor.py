"""Edge 3-coloring of degree-at-most-three graphs via vertex splicing.

The tests that take the first_descent_loop fixture (tests/conftest.py)
run the commit loop without its backtrack, as it ran before it had one,
so that their seeded inputs reach the splice search and its line-graph
leaves, which the backtrack now decides before them.
"""

import json
import random
import re
import sys
from collections import Counter
from itertools import combinations, product

import pytest

import csp32.edgecolor as edgecolor
import csp32.vertexcolor as vertexcolor
from csp32.edgecolor import (
    EdgeInstance,
    edge_color,
    edge_root,
    in_conflict_k4,
    spliceable,
    splice,
    splice_candidates,
)
from csp32.instance import bits
from csp32.solver import NodeLimitReached, SearchStats, SolverConfig
from csp32.oracle import (
    brute_edge_color,
    brute_vertex_color,
    planted_cubic_edge_colorable,
    random_cubic,
    random_graph,
)
from csp32.vertexcolor import color_graph
from helpers import (
    charge_identity,
    commit_coloring_with,
    brute_conflict_k4s,
    brute_line_graph_edges,
    brute_splice,
    brute_splice_candidates,
    constraint_set,
    edge_root_stuck,
    edge_snapshot,
    first_descent,
    flower_snark,
    line_graph,
    partner_index,
    run_fresh,
    scan_incidence,
    strip_low_neighbor_edges,
    stripped_instance,
)


def subcubic(rng, n, p):
    """Random graph with maximum degree three."""
    deg = {v: 0 for v in range(n)}
    edges = []
    for (u, v) in combinations(range(n), 2):
        if deg[u] < 3 and deg[v] < 3 and rng.random() < p:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return n, edges


def proper_edge(edges, coloring):
    seen = {}
    for e in edges:
        u, v = e
        c = coloring[tuple(sorted(e))]
        for x in (u, v):
            if (x, c) in seen:
                return False
            seen[(x, c)] = True
    return True


def test_high_degree_is_uncolorable():
    # Four edges at one vertex cannot share three colors.
    star = (5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    got, _ = edge_color(*star)
    assert got is None


K4 = list(combinations(range(4), 2))
PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i + 5, ((i + 2) % 5) + 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)


def test_known_graphs():
    got, _ = edge_color(4, K4)
    assert got is not None and proper_edge(K4, got)
    got, _ = edge_color(10, PETERSEN)
    assert got is None  # the one famous class-two cubic graph


def test_flower_snarks_are_not_edge_colorable():
    # Isaacs' flower snarks J5, J7, J9 and J11: cubic graphs past Petersen
    # with no 3-edge-coloring, each refuted by the splice search.
    for k in (5, 7, 9, 11):
        n, edges = flower_snark(k)
        assert n == 4 * k and len(set(edges)) == len(edges) == 6 * k
        assert Counter(x for e in edges for x in e) == dict.fromkeys(range(n), 3)
        got, _ = edge_color(n, edges)
        assert got is None, k
    # J5 cross-checked through the vertex front end on its line graph
    assert color_graph(*line_graph(*flower_snark(5))).colorable is False


def test_edge_color_rejects_repeated_edges():
    # one color for both copies of an edge would be returned otherwise;
    # the error names the first edge that repeats an earlier one
    for edges, named in (
        ([(0, 1), (0, 1)], "(0, 1)"),
        ([(0, 1), (1, 0)], "(1, 0)"),
        ([(0, 1), (1, 2), (2, 0), (2, 1)], "(2, 1)"),
        ([(0, 1), (1, 2), (1, 0)], "(1, 0)"),
        ([(0, 1), (0, 1), (0, 1)], "(0, 1)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"repeated edge {named}")):
            edge_color(3, edges)


def test_edge_color_rejects_vertex_out_of_range():
    for edges in ([(0, 1), (1, 5)], [(-1, 0)]):
        with pytest.raises(ValueError, match="outside"):
            edge_color(3, edges)
    with pytest.raises(ValueError, match="negative vertex count -1"):
        edge_color(-1, [])


def test_edge_color_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        edge_color(3, [(0, 1), (2, 2)])


def test_edge_color_without_asserts():
    # python -O drops the spliceable precondition and SpliceStep.lift's
    # assert; the answers and edge_color's own check must not need them.
    # The commit loop runs out of budget at the planted graph's root, so it
    # splices.
    code = (
        "import json, random\n"
        "from csp32.edgecolor import edge_color\n"
        "from csp32.oracle import planted_cubic_edge_colorable\n"
        f"k4, _ = edge_color(4, {K4!r})\n"
        f"petersen, _ = edge_color(10, {PETERSEN!r})\n"
        "planted, stats = edge_color(*planted_cubic_edge_colorable(random.Random(149), 24))\n"
        "print(json.dumps([__debug__, sorted(k4.items()), petersen, planted is not None,"
        " [stats.splices, stats.k4_refuted]]))\n"
    )
    run = run_fresh(code, "-O")
    assert run.returncode == 0, run.stderr
    debug, k4, petersen, planted, (splices, refuted) = json.loads(run.stdout.splitlines()[-1])
    assert not debug
    assert proper_edge(K4, {tuple(e): c for e, c in k4})
    assert petersen is None and planted and (splices, refuted) == (35, 21)


def test_charge_identity_on_cubic_graphs():
    rng = random.Random(41)
    for _ in range(40):
        graph = random_cubic(rng, rng.choice([6, 8, 10, 12]))
        if graph is None:
            continue
        ei = EdgeInstance.from_graph(graph[1])
        m3, m4, ok = charge_identity(ei)
        if ok is not None:
            assert ok
            # Fully cubic: every edge has four neighbors.
            assert m3 == 0 and m4 == len(ei.edges)


def test_strip_removes_low_neighbor_edges():
    # A path's edges never have three neighbors on a side.
    path = (4, [(0, 1), (1, 2), (2, 3)])
    g, steps = edge_root(*path)
    assert g == {} and len(steps) == 3
    assert not stripped_instance(path).edges


def _variants(rng, edges):
    """edges as given, shuffled, with every pair reversed, and as lists."""
    yield edges
    yield rng.sample(edges, len(edges))
    yield [(v, u) for u, v in edges]
    yield [list(e) for e in rng.sample(edges, len(edges))]


def test_edge_root_matches_reference_conflict_graph():
    # edge_root's line graph, built from each vertex's list of edge ids,
    # and its strip steps are those of the reference conflict_graph of
    # the input's EdgeInstance stripped by strip_low_neighbor_edges: the
    # same adjacency and the same steps in the same order, whatever the
    # order of the edges, of each pair's ends, or the type of an edge.
    rng = random.Random(52)
    graphs = [subcubic(rng, rng.randint(2, 16), rng.uniform(0.2, 0.9)) for _ in range(120)]
    graphs += [random_cubic(rng, rng.choice([4, 8, 12, 16])) for _ in range(30)]
    graphs += [planted_cubic_edge_colorable(rng, rng.choice([6, 12, 24])) for _ in range(30)]
    graphs += [flower_snark(5)]
    seen = Counter()
    for n, edges in graphs:
        for variant in _variants(rng, edges):
            g, steps = edge_root(n, variant)
            ei = EdgeInstance.from_graph(variant)
            want_g, want_steps = strip_low_neighbor_edges(ei)
            assert g == want_g and steps == want_steps
            assert list(g) == sorted(ei.edges)
            seen[bool(steps), bool(g)] += 1
    assert seen[True, True] > 100 and seen[True, False] > 100 and seen[False, True] > 200, seen
    # four edges at a vertex: no line graph, and edge_color returns None
    assert edge_root(5, [(0, 1), (0, 2), (0, 3), (0, 4)]) is None


def _edge_cubic_batch(seed, count=1250):
    """perfbench's edge-cubic batch at this seed: planted cubic n = 24
    three times in four and random cubic n = 16, instance i drawn from
    its own seeded generator."""
    families = [("planted-cubic", 24, planted_cubic_edge_colorable)] * 3
    families.append(("random-cubic", 16, random_cubic))
    for i in range(count):
        name, n, gen = families[i % len(families)]
        yield gen(random.Random(f"{seed}:{i}:{name}:{n}"), n)


def test_edge_color_builds_one_conflict_graph(monkeypatch):
    # Each edge_color call builds one root line graph, through
    # edgecolor.edge_root, and the splice search's EdgeInstance exactly
    # when the commit loop gets no answer on that root (edge_root_stuck),
    # stripped of the root's stripped edges.  Subcubic inputs, which
    # strip edges, run the first descent at their root (their line-graph
    # leaves keep the real loop), so that some get stuck; on edge-cubic's
    # seed-1 batch the real loop gets stuck on 8 of 1,250.
    roots, built, planned = [], [], []
    root, select = edgecolor.edge_root, edgecolor.select_splices
    from_graph = EdgeInstance.from_graph

    def counted_root(n, edges):
        roots.append(edges)
        return root(n, edges)

    def counted_build(edges):
        built.append(edges)
        return from_graph(edges)

    def logged_select(ei):
        planned.append(edge_snapshot(ei))
        return select(ei)

    monkeypatch.setattr(edgecolor, "edge_root", counted_root)
    monkeypatch.setattr(EdgeInstance, "from_graph", staticmethod(counted_build))
    monkeypatch.setattr(edgecolor, "select_splices", logged_select)

    def run(graph):
        stuck = edge_root_stuck(graph)
        want = [stripped_instance(graph)] if stuck else []
        del roots[:], built[:], planned[:]
        edge_color(*graph)
        assert roots == [graph[1]] and built == [graph[1]] * stuck and planned == want
        return stuck

    rng = random.Random(51)
    stripped = Counter()
    with monkeypatch.context() as mp:
        mp.setattr(edgecolor, "commit_coloring", commit_coloring_with(first_descent))
        for _ in range(60):
            graph = subcubic(rng, rng.randint(6, 16), rng.uniform(0.3, 0.9))
            stuck = run(graph)
            stripped[bool(edge_root(*graph)[1]), stuck] += 1
    assert stripped[True, False] > 20 and stripped[True, True] > 5, stripped
    assert sum(map(run, _edge_cubic_batch(1))) == 8


def test_splice_children_preserve_colorability():
    rng = random.Random(42)
    tried = 0
    for _ in range(300):
        graph = random_cubic(rng, rng.choice([6, 8]))
        if graph is None:
            continue
        n, edges = graph
        ei = EdgeInstance.from_graph(edges)
        cands = splice_candidates(ei)
        if not cands:
            continue
        tried += 1
        have = [_brute_constrained(ei) for _step in splice(ei, cands[0])]
        assert 1 <= len(have) <= 2
        want = brute_edge_color((n, edges)) is not None
        assert any(have) == want, (n, edges)
    assert tried > 50


def _enter_child(ei, eid, rng):
    """Leave ei edited into a random live child of splicing eid (its
    splice generator suspended there); False when no pairing is live."""
    live = sum(1 for _step in splice(ei, eid))
    if not live:
        return False
    children = splice(ei, eid)
    for _ in range(rng.randint(1, live)):
        next(children)
    return True


def test_splice_returns_only_live_children():
    # K4 spliced at edge (0, 1): pairing (0,2) with (1,2) would make the
    # new edge a self-loop at 2, so only the crossed pairing comes back.
    ei = EdgeInstance.from_graph(K4)
    children = splice(ei, 0)
    step = next(children)
    assert sorted(ei.edges.values()) == [(2, 3), (2, 3), (3, 2)]
    (first, pair1), (second, pair2) = step.merged
    assert step.center == 0 and (pair1, pair2) == ((1, 4), (2, 3))
    assert constraint_set(ei) == {frozenset((first, second))}
    assert next(children, None) is None
    assert ei == EdgeInstance.from_graph(K4)

    rng = random.Random(48)
    splices = dropped = 0
    for _ in range(80):
        graph = rng.choice([random_cubic, planted_cubic_edge_colorable])(
            rng, rng.choice([8, 10, 12, 16])
        )
        ei = stripped_instance(graph)
        while cands := splice_candidates(ei):
            eid = rng.choice(cands)
            live = 0
            for _step in splice(ei, eid):
                live += 1
                assert all(u != v for u, v in ei.edges.values())
                assert all(len(c) == 2 for c in constraint_set(ei))
            splices += 1
            dropped += 2 - live
            if not _enter_child(ei, eid, rng):
                break
    assert splices > 200 and dropped > 0


def test_k4_refutation_is_sound():
    # Along random splice paths, each new edge of every pairing is in a
    # K4 of conflicts exactly when a brute search over the whole
    # conflict graph finds one holding it, and a pairing so refuted has
    # a line graph with no proper 3-coloring.
    rng = random.Random(49)
    refuted = kept = 0
    for _ in range(150):
        graph = rng.choice([random_cubic, planted_cubic_edge_colorable])(
            rng, rng.choice([8, 10, 12])
        )
        ei = stripped_instance(graph)
        while cands := splice_candidates(ei):
            eid = rng.choice(cands)
            for step in splice(ei, eid):
                k4s = brute_conflict_k4s(ei)
                news = [new for new, _olds in step.merged]
                hit = [in_conflict_k4(ei, new) for new in news]
                assert hit == [any(new in q for q in k4s) for new in news]
                if any(hit):
                    lg = brute_line_graph_edges(ei)
                    assert brute_vertex_color((len(ei.edges), lg)) is None
                    refuted += 1
                else:
                    kept += 1
            if not _enter_child(ei, eid, rng):
                break
    assert refuted > 100 and kept > 100


def test_search_states_hold_no_k4(monkeypatch, first_descent_loop):
    # Checking the two new edges of each pairing is enough: no state the
    # splice search keeps, and no leaf, has a K4 of conflicts anywhere,
    # and every refuted pairing has one through a new edge.
    real_refuted, real_leaf = edgecolor._refuted, edgecolor._line_graph_solve
    seen = {"kept": 0, "refuted": 0, "leaves": 0}

    def refuted(ei, step, stats):
        out = real_refuted(ei, step, stats)
        k4s = brute_conflict_k4s(ei)
        (first, _), (second, _) = step.merged
        if out:
            assert any(first in q or second in q for q in k4s)
            seen["refuted"] += 1
        else:
            assert not k4s
            seen["kept"] += 1
        return out

    def leaf(ei, cfg, stats):
        assert not brute_conflict_k4s(ei)
        seen["leaves"] += 1
        return real_leaf(ei, cfg, stats)

    monkeypatch.setattr(edgecolor, "_refuted", refuted)
    monkeypatch.setattr(edgecolor, "_line_graph_solve", leaf)
    # the commit loop colors most of these at the root, before any splice
    for s in range(120):
        edge_color(*planted_cubic_edge_colorable(random.Random(s), 12 + 2 * (s % 10)))
        edge_color(*random_cubic(random.Random(s), 8 + 2 * (s % 8)))
    assert seen["kept"] > 500 and seen["refuted"] > 150 and seen["leaves"] > 50


def _brute_constrained(ei):
    """Exhaustive 3-coloring of an edge instance honoring its constraints."""
    ids = sorted(ei.edges)
    pos = {eid: i for i, eid in enumerate(ids)}
    clash = [(pos[a], pos[b]) for a in ids for b in bits(ei.conflicts(a)) if a < b]
    return any(
        all(combo[i] != combo[j] for i, j in clash)
        for combo in product(range(3), repeat=len(ids))
    )


def _assert_indexes(ei):
    """The incidence and partner indexes match ones rebuilt from scratch:
    partners symmetric, over live edges, with no empty entry."""
    assert ei.at == scan_incidence(ei)
    assert ei.partners == partner_index(constraint_set(ei))
    assert ei.partners.keys() <= ei.edges.keys()


@pytest.fixture
def index_checked(monkeypatch):
    """Assert after every add_edge and remove_edge that the incidence
    index equals one rebuilt from the edges, and at every child
    edgecolor.splice yields and once it is spent that both indexes do
    (splice edits them without add_edge or remove_edge)."""
    for name in ("add_edge", "remove_edge"):
        def checked(self, *args, _edit=getattr(EdgeInstance, name)):
            out = _edit(self, *args)
            assert self.at == scan_incidence(self)
            return out

        monkeypatch.setattr(EdgeInstance, name, checked)

    def checked_splice(ei, eid, _splice=edgecolor.splice):
        for step in _splice(ei, eid):
            _assert_indexes(ei)
            yield step
        _assert_indexes(ei)

    monkeypatch.setattr(edgecolor, "splice", checked_splice)


def _assert_matches_reference(ei):
    want = brute_splice_candidates(ei)
    assert splice_candidates(ei) == want
    # plan entries can name edges an earlier splice removed
    assert [e for e in range(ei.next_id) if spliceable(ei, e)] == want
    _assert_indexes(ei)
    constraints = constraint_set(ei)
    for eid in ei.edges:
        u, v = ei.edges[eid]
        near = {j for j, e in ei.edges.items() if j != eid and (u in e or v in e)}
        near |= {j for c in constraints if eid in c for j in c - {eid}}
        assert ei.conflicts(eid) == sum(1 << j for j in near)


def _state(ei, step=None):
    return ei.edges, ei.at, ei.partners, ei.next_id, step


def test_splice_candidates_match_brute_reference(index_checked):
    rng = random.Random(46)
    graphs = [subcubic(rng, rng.randint(2, 14), rng.uniform(0.2, 0.9)) for _ in range(150)]
    graphs += [random_cubic(rng, rng.choice([4, 6, 8, 10, 12])) for _ in range(50)]
    graphs += [planted_cubic_edge_colorable(rng, rng.choice([6, 8, 12])) for _ in range(50)]
    found = 0
    for graph in graphs:
        _assert_matches_reference(EdgeInstance.from_graph(graph[1]))
        ei = stripped_instance(graph)
        _assert_matches_reference(ei)
        found += len(splice_candidates(ei))
    assert found > 1000


def test_splice_paths_match_brute_reference(index_checked, monkeypatch):
    # Random splice paths build up constraints, so a constraint on the
    # edge decides some candidates and conflicts include partners.
    # Every child the in-place splice yields is compared with a copied
    # reference child and its line graph, one random child is walked
    # further, and a spent splice must leave its parent exactly as it
    # found it.
    line_graphs = []
    real_color_graph = edgecolor.color_graph

    def capture(n, edges, cfg=None):
        line_graphs.append(edges)
        return real_color_graph(n, edges, cfg)

    monkeypatch.setattr(edgecolor, "color_graph", capture)
    rng = random.Random(47)
    seen = {"states": 0, "constraint_decided": 0, "restored": 0}

    def walk(ei):
        _assert_matches_reference(ei)
        seen["states"] += 1
        free = edge_snapshot(ei)
        free.partners = {}
        seen["constraint_decided"] += splice_candidates(free) != splice_candidates(ei)
        edgecolor._line_graph_solve(ei, SolverConfig(), SearchStats())
        assert line_graphs.pop() == brute_line_graph_edges(ei)
        cands = splice_candidates(ei)
        if not cands:
            return
        eid = rng.choice(cands)
        before = edge_snapshot(ei)
        want = brute_splice(ei, eid)
        follow = rng.randrange(len(want)) if want else None
        got = 0
        for i, step in enumerate(edgecolor.splice(ei, eid)):
            ref, ref_step = want[i]
            assert _state(ei, step) == _state(ref, ref_step)
            if i == follow:
                walk(ei)
                assert _state(ei, step) == _state(ref, ref_step)
            else:
                _assert_matches_reference(ei)
            got += 1
        assert got == len(want)
        assert _state(ei) == _state(before)
        # the masks the undo put back equal ones rebuilt from the edges
        # and the constraints the splice found
        assert ei.at == scan_incidence(ei)
        assert ei.partners == partner_index(constraint_set(before))
        seen["restored"] += 1

    for _ in range(60):
        graph = rng.choice([random_cubic, planted_cubic_edge_colorable])(
            rng, rng.choice([8, 10, 12, 16])
        )
        ei = stripped_instance(graph)
        walk(ei)
    assert seen["states"] > 200 and seen["constraint_decided"] > 100
    assert seen["restored"] > 200


def test_edge_color_builds_one_instance(monkeypatch):
    # The splice search edits the input's instance in place: no splice,
    # backtrack or leaf builds another one.
    built = []
    real_init = EdgeInstance.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(EdgeInstance, "__init__", counted)
    for graph in (  # each one the commit loop runs out of budget on at the root
        planted_cubic_edge_colorable(random.Random(18), 40),
        random_cubic(random.Random(67), 20),
        random_cubic(random.Random(48), 16),  # not 3-edge-colorable
    ):
        del built[:]
        _coloring, stats = edge_color(*graph)
        assert len(built) == 1 and stats.splices > 0


def test_edge_color_matches_brute_force():
    rng = random.Random(43)
    for trial in range(300):
        n, edges = subcubic(rng, rng.randint(2, 9), rng.uniform(0.2, 0.8))
        got, stats = edge_color(n, edges)
        want = brute_edge_color((n, edges))
        assert (got is not None) == (want is not None), (trial, edges)
        if got is not None:
            assert proper_edge(edges, got), trial


def test_edge_color_cubic_fuzz(index_checked):
    # The K4 refutation prunes only dead pairings, so verdicts match the
    # brute edge coloring on planted and random cubic graphs alike; few
    # random cubic graphs this small are uncolorable.
    rng = random.Random(44)
    graphs = [random_cubic(rng, rng.choice([6, 8, 10])) for _ in range(60)]
    graphs += [planted_cubic_edge_colorable(random.Random(s), 8 + 2 * (s % 7)) for s in range(100)]
    graphs += [random_cubic(random.Random(500 + s), 8 + 2 * (s % 7)) for s in range(400)]
    verdicts = Counter()
    for graph in graphs:
        got, _ = edge_color(*graph)
        want = brute_edge_color(graph)
        assert (got is not None) == (want is not None), graph
        if got is not None:
            assert proper_edge(graph[1], got)
        verdicts[got is not None] += 1
    assert verdicts[True] > 400 and verdicts[False] >= 4


def test_empty_and_edgeless_graphs_are_edge_colored_at_the_root():
    # No edge, so the root's line graph is empty: the commit loop colors
    # it at once, and the empty coloring is the answer, charged as the
    # one-node leaf the root replaces.
    for n in (0, 3):
        got, stats = edge_color(n, [])
        assert got == {}, n
        assert (stats.nodes, stats.leaves, stats.splices, stats.csp_nodes) == (1, 1, 0, 0), n


def test_edge_color_planted_cubic():
    rng = random.Random(45)
    done = 0
    for _ in range(10):
        graph = planted_cubic_edge_colorable(rng, 16)
        if graph is None:
            continue
        got, stats = edge_color(*graph)
        assert got is not None and proper_edge(graph[1], got)
        done += 1
    assert done > 3


def test_edge_color_rejects_unverified_coloring(monkeypatch):
    # A lift bug must surface as an error, also under python -O.  The
    # commit loop colors K4's root, which vertexcolor.commit_coloring lifts.
    k4 = list(combinations(range(4), 2))
    monkeypatch.setattr(
        vertexcolor, "lift", lambda coloring, steps: dict.fromkeys(range(6), 0)
    )
    with pytest.raises(RuntimeError, match="failed verification"):
        edge_color(4, k4)


def test_edge_color_verifies_iterator_input(monkeypatch):
    # The edges are read more than once (the input checks, the root and
    # the final check), so an iterator or a generator is read into a list
    # first: it gets the list's answer and errors, and a lift bug at the
    # root, which vertexcolor.commit_coloring lifts, still surfaces.
    k4 = list(combinations(range(4), 2))
    want, _ = edge_color(4, k4)
    assert edge_color(4, iter(k4))[0] == want and edge_color(4, (e for e in k4))[0] == want
    with pytest.raises(ValueError, match=re.escape("repeated edge (1, 0)")):
        edge_color(3, iter([(0, 1), (1, 0)]))
    monkeypatch.setattr(
        vertexcolor, "lift", lambda coloring, steps: dict.fromkeys(range(6), 0)
    )
    for edges in (iter(k4), (e for e in k4)):
        with pytest.raises(RuntimeError, match="failed verification"):
            edge_color(4, edges)


def test_node_limit_bounds_the_whole_call(monkeypatch, first_descent_loop):
    # Unlimited, this graph takes 15 splices and 23 graph+CSP nodes over
    # two line graphs; every smaller limit must stop the call as a
    # whole, not give each line graph a fresh budget, including limits
    # that run out inside a line graph's forward-checked enumeration.
    graph = random_cubic(random.Random(357), 22)
    coloring, stats = edge_color(*graph)
    assert coloring is not None
    assert (stats.splices, stats.leaves, stats.nodes + stats.csp_nodes) == (15, 2, 23)
    ran_out = []  # the function whose charge raised first, per limited call
    charge = SolverConfig.charge

    def traced(cfg, stats):
        try:
            return charge(cfg, stats)
        except NodeLimitReached:
            ran_out.append(sys._getframe(1).f_code.co_name)
            raise

    monkeypatch.setattr(SolverConfig, "charge", traced)
    inside = 0
    for limit in range(stats.spent):
        del ran_out[:]
        with pytest.raises(NodeLimitReached) as info:
            edge_color(*graph, SolverConfig(node_limit=limit))
        assert info.value.stats.spent == limit + 1
        inside += ran_out[0] == "extensions"  # vertexcolor._solve_leaf's enumeration
    assert inside > 9


def test_deep_splice_plan_ends_in_a_verdict():
    # The splice plan of planted n=400 is about 200 edges deep, deeper
    # than this recursion limit allows any recursive search to go.
    graph = planted_cubic_edge_colorable(random.Random(1), 400)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        with pytest.raises(NodeLimitReached) as info:
            edge_color(*graph, SolverConfig(node_limit=300))
    finally:
        sys.setrecursionlimit(old)
    assert info.value.stats.spent == 301


def test_deep_splice_search_memory_stays_bounded():
    # Edited in place, the search holds one instance and one suspended
    # splice per level; a copy per child took this run to 344-429 MB.
    code = (
        "import json, random, resource\n"
        "from csp32.edgecolor import edge_color\n"
        "from csp32.oracle import planted_cubic_edge_colorable\n"
        "from csp32.solver import NodeLimitReached, SolverConfig\n"
        "graph = planted_cubic_edge_colorable(random.Random(1), 2400)\n"
        "try:\n"
        "    edge_color(*graph, SolverConfig(node_limit=3000))\n"
        "    splices = None\n"
        "except NodeLimitReached as stop:\n"
        "    splices = stop.stats.splices\n"
        "print(json.dumps([splices, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))\n"
    )
    run = run_fresh(code)
    assert run.returncode == 0, run.stderr
    splices, peak_kb = json.loads(run.stdout.splitlines()[-1])
    assert splices == 3001
    assert peak_kb < 150 * 1024


def _root_loop_inputs():
    """Seeded planted and random cubic graphs, subcubic graphs (whose
    roots strip edges before the loop runs) and the flower snarks J5-J9."""
    rng = random.Random(50)
    for s in range(60):
        yield planted_cubic_edge_colorable(random.Random(s), 12 + 2 * (s % 10))
        yield random_cubic(random.Random(s), 8 + 2 * (s % 8))
        yield subcubic(rng, rng.randint(6, 16), rng.uniform(0.3, 0.9))
    yield from map(flower_snark, (5, 7, 9))


def test_root_commit_loop_colors_without_splicing(monkeypatch):
    # A root the commit loop colors is decided there: its coloring, lifted
    # through the strip steps, is proper, and the call is charged as the
    # one-node line-graph leaf it replaces, with no splice plan drawn.  A
    # root it refutes is decided there too, charged the same, and returns
    # None.  A root it runs out of budget on goes on to plan its splices.
    # The root hands vertexcolor.commit_coloring edge_root's graph and
    # steps, and the loop gets every remaining edge with all three colors.
    roots, plans = [], []
    masks = []  # the masks the loop got at the root in progress
    coloring, commit_loop = edgecolor.commit_coloring, vertexcolor._commit_loop
    select = edgecolor.select_splices

    def logged_root(g, steps):
        del masks[:]
        out = coloring(g, steps)
        roots.append((g, steps, out))
        return out

    def logged_loop(g, masks_in):
        masks.append(masks_in.copy())
        return commit_loop(g, masks_in)

    def logged_select(ei):
        plans.append(ei)
        return select(ei)

    monkeypatch.setattr(edgecolor, "commit_coloring", logged_root)
    monkeypatch.setattr(vertexcolor, "_commit_loop", logged_loop)
    monkeypatch.setattr(edgecolor, "select_splices", logged_select)
    seen = Counter()
    for n, edges in _stuck_root_inputs():
        del roots[:], plans[:]
        got, stats = edge_color(n, edges)
        ((g, steps, out),) = roots
        assert (g, steps) == edge_root(n, edges)
        assert masks[:1] == [[7 * (e in g) for e in range(max(g, default=-1) + 1)]]
        if out is None:
            assert len(plans) == 1
            seen["stuck", got is not None] += 1
            continue
        colored = out is not False
        assert plans == [] and (got is not None) == colored
        assert (stats.splices, stats.nodes, stats.leaves, stats.csp_nodes) == (0, 1, 1, 0)
        if colored:
            assert proper_edge(edges, got) and len(got) == len(edges)
        seen["colored" if colored else "refuted", len(steps) > 0] += 1
    assert seen["colored", False] > 60 and seen["colored", True] > 15
    assert seen["refuted", False] > 9 and seen["refuted", True] > 16
    assert seen["stuck", True] > 25 and seen["stuck", False] > 6, seen


def _stuck_root_inputs():
    """_root_loop_inputs, with seeded planted cubic graphs at n = 32 and
    40 and random cubic graphs at n = 16 to 40: the commit loop runs out
    of budget on about one root in twenty of the first and one in forty
    of the second, and half the random ones with no coloring."""
    yield from _root_loop_inputs()
    for s in range(400):
        yield planted_cubic_edge_colorable(random.Random(s), 32 + 8 * (s % 2))
    for s in range(2000):
        yield random_cubic(random.Random(s), 16 + 2 * (s % 13))


def test_stuck_root_commit_loop_leaves_the_search_as_it_was(monkeypatch):
    # A root the loop runs out of budget on searches exactly as a call
    # with no root loop: the same splices, skips, leaves, K4 refutations
    # and counts, and the same coloring.
    runs = 0
    for graph in filter(edge_root_stuck, _stuck_root_inputs()):
        got, stats = edge_color(*graph)
        with monkeypatch.context() as mp:
            mp.setattr(edgecolor, "commit_coloring", lambda g, steps: None)
            want, want_stats = edge_color(*graph)
        assert got == want and vars(stats) == vars(want_stats)
        runs += stats.splices > 0
    assert runs > 50


def test_root_commit_loop_is_charged_as_one_node():
    # node_limit 0 stops a call the loop colors at its root, which is
    # charged as one node; node_limit 1 lets it finish.
    graph = planted_cubic_edge_colorable(random.Random(1), 24)
    assert not edge_root_stuck(graph)
    with pytest.raises(NodeLimitReached) as info:
        edge_color(*graph, SolverConfig(node_limit=0))
    assert (info.value.stats.spent, info.value.stats.splices) == (1, 0)
    got, stats = edge_color(*graph, SolverConfig(node_limit=1))
    assert got is not None and stats.spent == 1
