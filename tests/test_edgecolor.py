"""Edge 3-coloring of degree-at-most-three graphs via vertex splicing."""

import json
import random
import sys
from collections import Counter
from itertools import combinations, product

import pytest

import csp32.edgecolor as edgecolor
from csp32.edgecolor import (
    EdgeInstance,
    edge_color,
    in_conflict_k4,
    spliceable,
    splice,
    splice_candidates,
    strip_low_neighbor_edges,
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
from helpers import (
    charge_identity,
    brute_conflict_k4s,
    brute_line_graph_edges,
    brute_splice,
    brute_splice_candidates,
    constraint_set,
    edge_snapshot,
    partner_index,
    run_fresh,
    scan_incidence,
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


def test_edge_color_rejects_repeated_edges():
    # one color for both copies of an edge would be returned otherwise
    for edges in ([(0, 1), (0, 1)], [(0, 1), (1, 0)]):
        with pytest.raises(ValueError, match="repeated edge"):
            edge_color(3, edges)


def test_edge_color_rejects_vertex_out_of_range():
    for edges in ([(0, 1), (1, 5)], [(-1, 0)]):
        with pytest.raises(ValueError, match="outside"):
            edge_color(3, edges)


def test_edge_color_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        edge_color(3, [(0, 1), (2, 2)])


def test_edge_color_without_asserts():
    # python -O drops the spliceable precondition and SpliceStep.lift's
    # assert; the answers and edge_color's own check must not need them.
    code = (
        "import json, random\n"
        "from csp32.edgecolor import edge_color\n"
        "from csp32.oracle import planted_cubic_edge_colorable\n"
        f"k4, _ = edge_color(4, {K4!r})\n"
        f"petersen, _ = edge_color(10, {PETERSEN!r})\n"
        "planted, stats = edge_color(*planted_cubic_edge_colorable(random.Random(1), 24))\n"
        "print(json.dumps([__debug__, sorted(k4.items()), petersen, planted is not None,"
        " [stats.splices, stats.k4_refuted]]))\n"
    )
    run = run_fresh(code, "-O")
    assert run.returncode == 0, run.stderr
    debug, k4, petersen, planted, (splices, refuted) = json.loads(run.stdout.splitlines()[-1])
    assert not debug
    assert proper_edge(K4, {tuple(e): c for e, c in k4})
    assert petersen is None and planted and (splices, refuted) == (44, 26)


def test_charge_identity_on_cubic_graphs():
    rng = random.Random(41)
    for _ in range(40):
        graph = random_cubic(rng, rng.choice([6, 8, 10, 12]))
        if graph is None:
            continue
        ei = EdgeInstance.from_graph(*graph)
        m3, m4, ok = charge_identity(ei)
        if ok is not None:
            assert ok
            # Fully cubic: every edge has four neighbors.
            assert m3 == 0 and m4 == len(ei.edges)


def test_strip_removes_low_neighbor_edges():
    # A path's edges never have three neighbors on a side.
    ei = EdgeInstance.from_graph(4, [(0, 1), (1, 2), (2, 3)])
    strip_low_neighbor_edges(ei)
    assert not ei.edges


def test_splice_children_preserve_colorability():
    rng = random.Random(42)
    tried = 0
    for _ in range(300):
        graph = random_cubic(rng, rng.choice([6, 8]))
        if graph is None:
            continue
        n, edges = graph
        ei = EdgeInstance.from_graph(n, edges)
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
    ei = EdgeInstance.from_graph(4, K4)
    children = splice(ei, 0)
    step = next(children)
    assert sorted(ei.edges.values()) == [(2, 3), (2, 3), (3, 2)]
    (first, pair1), (second, pair2) = step.merged
    assert step.center == 0 and (pair1, pair2) == ((1, 4), (2, 3))
    assert constraint_set(ei) == {frozenset((first, second))}
    assert next(children, None) is None
    assert ei == EdgeInstance.from_graph(4, K4)

    rng = random.Random(48)
    splices = dropped = 0
    for _ in range(80):
        graph = rng.choice([random_cubic, planted_cubic_edge_colorable])(
            rng, rng.choice([8, 10, 12, 16])
        )
        ei = EdgeInstance.from_graph(*graph)
        strip_low_neighbor_edges(ei)
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
        ei = EdgeInstance.from_graph(*graph)
        strip_low_neighbor_edges(ei)
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


def test_search_states_hold_no_k4(monkeypatch):
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
    for s in range(40):
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
        ei = EdgeInstance.from_graph(*graph)
        _assert_matches_reference(ei)
        strip_low_neighbor_edges(ei)
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
        ei = EdgeInstance.from_graph(*graph)
        strip_low_neighbor_edges(ei)
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
    for graph in (
        planted_cubic_edge_colorable(random.Random(1), 40),
        random_cubic(random.Random(2), 20),
        (10, PETERSEN),
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
    # A lift bug must surface as an error, also under python -O.
    k4 = list(combinations(range(4), 2))
    monkeypatch.setattr(
        edgecolor, "lift", lambda coloring, path: dict.fromkeys(range(6), 0)
    )
    with pytest.raises(RuntimeError, match="failed verification"):
        edge_color(4, k4)


def test_node_limit_bounds_the_whole_call(monkeypatch):
    # Unlimited, this graph takes 12 splices and 23 graph+CSP nodes over
    # two line graphs; every smaller limit must stop the call as a
    # whole, not give each line graph a fresh budget, including limits
    # that run out inside a line graph's forward-checked enumeration.
    graph = random_cubic(random.Random(112), 20)
    coloring, stats = edge_color(*graph)
    assert coloring is not None
    assert (stats.splices, stats.leaves, stats.nodes + stats.csp_nodes) == (12, 2, 23)
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
    assert inside > 5


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
