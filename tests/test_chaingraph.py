import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaindyn import (
    ChainAnalysis,
    GOLDEN_ALPHA,
    NoCoprimeCyclesError,
    NoCycleError,
    UndefinedDiameterError,
    build_transition_graph,
    catalog_systems,
    chain_diameter,
    chain_recurrent_set,
    circle_grid,
    closed_walk_lengths,
    cyclic_classes,
    doubling_system,
    find_coprime_cycles,
    graph_from_edges,
    graph_period,
    identity_system,
    interval_grid,
    is_chain_mixing,
    is_chain_transitive,
    is_totally_chain_transitive,
    make_epsilon_entourage,
    power_graph,
    rotation_system,
    square_system,
    strongly_connected_components,
)
from oracles import (
    chain_recurrent_bruteforce,
    gcd_of,
    loop_lengths_bruteforce,
    path_is_chain,
    random_strongly_connected,
    walk_length_dp,
)


def ring(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestBuild:
    def test_identity_graph_equals_relation(self):
        s = identity_system(interval_grid(12))
        e = make_epsilon_entourage(s.space, 2 * s.space.resolution)
        g = build_transition_graph(s, e)
        assert tuple(tuple(sorted(r)) for r in e.rows) == g.succ

    def test_half_rotation_two_cycle(self):
        s = rotation_system(0.5, 2)
        e = make_epsilon_entourage(s.space, 0.2)
        g = build_transition_graph(s, e)
        assert g.succ == ((1,), (0,))

    def test_doubling_eight_grid_enumerated(self):
        # image 2k/8 sits on-grid; the h-ball around it is {2k-1, 2k, 2k+1}
        s = doubling_system(8)
        g = build_transition_graph(s, make_epsilon_entourage(s.space, 1 / 8))
        for k in range(8):
            expected = sorted({(2 * k - 1) % 8, (2 * k) % 8, (2 * k + 1) % 8})
            assert list(g.succ[k]) == expected
            assert len(g.succ[k]) >= 2

    def test_every_vertex_has_successor_at_resolution(self):
        for system in catalog_systems(16):
            e = make_epsilon_entourage(system.space, system.space.resolution)
            g = build_transition_graph(system, e)
            assert all(len(row) >= 1 for row in g.succ)

    def test_space_mismatch(self):
        from chaindyn import IncompatibleSpaceError

        with pytest.raises(IncompatibleSpaceError):
            build_transition_graph(
                doubling_system(8), make_epsilon_entourage(circle_grid(9), 0.2)
            )


class TestChainRecurrence:
    def test_two_cycle(self):
        s = rotation_system(0.5, 2)
        g = build_transition_graph(s, make_epsilon_entourage(s.space, 0.2))
        assert chain_recurrent_set(g) == {0, 1}

    def test_acyclic_path_empty(self):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        assert chain_recurrent_set(g) == frozenset()

    def test_square_map_localizes_to_fixed_points(self):
        s = square_system(32)
        g = build_transition_graph(
            s, make_epsilon_entourage(s.space, s.space.resolution)
        )
        got = chain_recurrent_set(g)
        assert got == chain_recurrent_bruteforce(g)
        assert got == {0, 1, 30, 31}  # frozen from the brute-force oracle

    def test_matches_bruteforce_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 9)
            edges = {
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 2 * n))
            }
            g = graph_from_edges(n, edges)
            assert chain_recurrent_set(g) == chain_recurrent_bruteforce(g)


class TestTransitivity:
    def test_complete_relation(self):
        s = identity_system(interval_grid(5))
        g = build_transition_graph(s, make_epsilon_entourage(s.space, 2.0))
        assert is_chain_transitive(g)

    def test_two_disjoint_cycles(self):
        g = graph_from_edges(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert not is_chain_transitive(g)

    def test_singleton_needs_self_loop(self):
        assert not is_chain_transitive(graph_from_edges(1, []))
        assert is_chain_transitive(graph_from_edges(1, [(0, 0)]))

    def test_golden_rotation_128(self):
        s = rotation_system(GOLDEN_ALPHA, 128)
        g = build_transition_graph(
            s, make_epsilon_entourage(s.space, 2 * s.space.resolution)
        )
        assert is_chain_transitive(g)


class TestPeriod:
    def test_four_cycle(self):
        assert graph_period(ring(4), 0) == 4

    def test_four_cycle_with_self_loop(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)])
        assert graph_period(g, 0) == 1

    def test_shared_vertex_cycles_four_and_six(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        edges += [(0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 0)]
        g = graph_from_edges(9, edges)
        # oracle: gcd of enumerated closed-walk lengths through 0 up to 24
        lengths = loop_lengths_bruteforce(g, 0, 24)
        assert gcd_of(lengths) == 2
        assert graph_period(g, 0) == 2

    def test_no_cycle_component_period_zero(self):
        g = graph_from_edges(2, [(0, 1)])
        assert graph_period(g, 0) == 0

    def test_well_defined_across_vertices(self):
        # the gcd of cycle lengths through y does not depend on y
        rng = random.Random(99)
        for _ in range(60):
            g = random_strongly_connected(rng, n_max=10)
            expected = graph_period(g, 0)
            for v in range(g.n):
                lengths = loop_lengths_bruteforce(g, v, 3 * g.n)
                assert gcd_of(lengths) == expected


class TestCyclicClasses:
    def test_four_cycle_singletons(self):
        assert cyclic_classes(ring(4), 0) == ((0,), (1,), (2,), (3,))

    def test_period_one_single_class(self):
        g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
        assert cyclic_classes(g, 0) == ((0, 1, 2),)

    def test_half_rotation_classes_swap(self):
        s = rotation_system(0.5, 2)
        g = build_transition_graph(s, make_epsilon_entourage(s.space, 0.2))
        classes = cyclic_classes(g, 0)
        assert classes == ((0,), (1,))
        # parity oracle: every path between the two points has odd length
        dp = walk_length_dp(g, 8)
        for ell, reach in enumerate(dp, start=1):
            if (reach[0] >> 1) & 1:
                assert ell % 2 == 1

    def test_period_zero_raises(self):
        with pytest.raises(NoCycleError):
            cyclic_classes(graph_from_edges(2, [(0, 1)]), 0)

    def test_class_laws_on_catalog(self):
        for n in (16, 64):
            for system in catalog_systems(n):
                g = build_transition_graph(
                    system,
                    make_epsilon_entourage(system.space, 2 * system.space.resolution),
                )
                analysis = ChainAnalysis.from_graph(g)
                for cid, comp in enumerate(analysis.components):
                    p = analysis.periods[cid]
                    if p < 1:
                        continue
                    classes = analysis.classes[cid]
                    assert classes is not None and len(classes) == p
                    flat = sorted(v for c in classes for v in c)
                    assert flat == list(comp)  # partition of the component
                    position = {v: i for i, c in enumerate(classes) for v in c}
                    members = set(comp)
                    for u in comp:
                        for v in g.succ[u]:
                            if v in members:
                                assert position[v] == (position[u] + 1) % p

    def test_iterated_map_preserves_classes(self):
        # rotation by 1/2 on two points: period 2; the graph of f^2 at the
        # same scale restricts to each class and is strongly connected there
        s = rotation_system(0.5, 2)
        e = make_epsilon_entourage(s.space, 0.2)
        g2 = build_transition_graph(replace(s, power=2), e)
        assert g2.succ == ((0,), (1,))  # f^2 = identity, per-class loops


class TestMixing:
    def test_four_cycle_not_mixing(self):
        assert not is_chain_mixing(ring(4))

    def test_four_cycle_with_loop_mixing_and_dp(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 0)])
        assert is_chain_mixing(g)
        # DP oracle: from some length on, every pair is joined at every length
        dp = walk_length_dp(g, 12)
        full = (1 << 4) - 1
        assert all(r == full for r in dp[7 - 1])  # all-ones by length 7
        for ell in range(7, 13):
            assert all(r == full for r in dp[ell - 1])

    def test_golden_rotation_mixing(self):
        s = rotation_system(GOLDEN_ALPHA, 128)
        g = build_transition_graph(
            s, make_epsilon_entourage(s.space, 2 * s.space.resolution)
        )
        assert is_chain_mixing(g)

    def test_equivalence_on_random_graphs(self):
        # period test == DP oracle == walk-power transitivity (classical
        # primitive-digraph equivalence)
        rng = random.Random(31337)
        for _ in range(50):
            g = random_strongly_connected(rng, n_max=8)
            n = g.n
            cap = (n - 1) ** 2 + 1
            dp = walk_length_dp(g, cap)
            full = (1 << n) - 1
            oracle = any(all(r == full for r in step) for step in dp)
            totally = all(
                is_chain_transitive(power_graph(g, k)) for k in range(1, n + 1)
            )
            assert is_chain_mixing(g) == oracle == totally


class TestTotallyChainTransitive:
    def test_half_rotation_fails_at_two(self):
        s = rotation_system(0.5, 2)
        e = make_epsilon_entourage(s.space, 0.2)
        assert is_chain_transitive(build_transition_graph(s, e))
        assert not is_totally_chain_transitive(s, e, 2)  # f^2 = identity

    def test_identity_on_connected_grid(self):
        s = identity_system(interval_grid(16))
        e = make_epsilon_entourage(s.space, s.space.resolution)
        assert is_totally_chain_transitive(s, e, 5)

    def test_golden_rotation_through_six(self):
        s = rotation_system(GOLDEN_ALPHA, 128)
        e = make_epsilon_entourage(s.space, 2 * s.space.resolution)
        assert is_totally_chain_transitive(s, e, 6)

    def test_power_graph_rejects_k_below_one(self):
        from chaindyn import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            power_graph(graph_from_edges(2, [(0, 1), (1, 0)]), 0)

    def test_n_max_validated(self):
        from chaindyn import InvalidParameterError

        s = rotation_system(0.5, 2)
        e = make_epsilon_entourage(s.space, 0.2)
        with pytest.raises(InvalidParameterError):
            is_totally_chain_transitive(s, e, 0)


class TestDiameter:
    def test_complete_graph(self):
        s = identity_system(interval_grid(6))
        g = build_transition_graph(s, make_epsilon_entourage(s.space, 2.0))
        assert chain_diameter(g) == 1

    def test_directed_cycle(self):
        for n in (3, 5, 8):
            assert chain_diameter(ring(n)) == n

    def test_undefined_for_non_transitive(self):
        for g in (graph_from_edges(2, [(0, 1)]), graph_from_edges(0, [])):
            with pytest.raises(UndefinedDiameterError):
                chain_diameter(g)

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("scale", [0.5, 1, 2, 4])
    def test_catalog_graphs_match_networkx(self, n, scale):
        for s in catalog_systems(n):
            e = make_epsilon_entourage(s.space, scale * s.space.resolution)
            assert_diameter_matches_networkx(build_transition_graph(s, e))

    def test_golden_rotation_against_dp_oracle(self):
        s = rotation_system(GOLDEN_ALPHA, 64)
        g = build_transition_graph(
            s, make_epsilon_entourage(s.space, 2 * s.space.resolution)
        )
        M = chain_diameter(g)
        assert M <= 64
        # oracle: first length at which every ordered pair is connected,
        # maximized over pairs, equals M
        dp = walk_length_dp(g, M)
        first = {}
        for ell, reach in enumerate(dp, start=1):
            for x in range(g.n):
                for y in range(g.n):
                    if (reach[x] >> y) & 1 and (x, y) not in first:
                        first[(x, y)] = ell
        assert len(first) == g.n * g.n
        assert max(first.values()) == M


class TestCoprimeCycles:
    def test_self_loop_pairs_with_anything(self):
        # chains are walks, so the doubled self-loop realizes length 2 and
        # the first coprime pair is (1, 2)
        g = graph_from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 0)])
        pair = find_coprime_cycles(g, 0)
        assert pair == (1, 2)
        assert pair[0] == 1 and math.gcd(*pair) == 1

    def test_lengths_four_six_nine(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        edges += [(0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 0)]
        edges += [(0, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 14), (14, 15), (15, 16), (16, 0)]
        g = graph_from_edges(17, edges)
        assert find_coprime_cycles(g, 0) == (4, 9)

    def test_pure_cycle_has_none(self):
        with pytest.raises(NoCoprimeCyclesError):
            find_coprime_cycles(ring(4), 0)

    def test_returned_lengths_are_realizable(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_strongly_connected(rng, n_max=8)
            if not is_chain_mixing(g):
                continue
            a, b = find_coprime_cycles(g, 0)
            assert math.gcd(a, b) == 1
            lengths = set(loop_lengths_bruteforce(g, 0, max(a, b)))
            assert a in lengths and b in lengths


class TestPathChainCorrespondence:
    def test_paths_are_chains_and_conversely(self):
        rng = random.Random(11)
        for system in catalog_systems(10):
            e = make_epsilon_entourage(system.space, 2 * system.space.resolution)
            g = build_transition_graph(system, e)
            # random walks through the graph satisfy the chain predicate
            for _ in range(10):
                x = rng.randrange(g.n)
                states = [x]
                for _ in range(6):
                    row = g.succ[states[-1]]
                    if not row:
                        break
                    states.append(row[rng.randrange(len(row))])
                assert path_is_chain(system, e, states)
            # random index sequences satisfy the predicate iff they are paths
            for _ in range(20):
                seq = [rng.randrange(g.n) for _ in range(4)]
                is_path = all(b in g.succ[a] for a, b in zip(seq, seq[1:]))
                assert path_is_chain(system, e, seq) == is_path


class TestConnectedGridEquivalences:
    def connected_catalog(self, n):
        for system in catalog_systems(n):
            if system.space.geometry.value in ("interval", "circle"):
                yield system

    @pytest.mark.parametrize("n", [16, 64])
    def test_recurrent_transitive_mixing_equivalent(self, n):
        # on a connected grid the three properties coincide
        for system in self.connected_catalog(n):
            g = build_transition_graph(
                system,
                make_epsilon_entourage(system.space, 2 * system.space.resolution),
            )
            cr_all = chain_recurrent_set(g) == frozenset(range(g.n))
            transitive = is_chain_transitive(g)
            mixing = is_chain_mixing(g)
            assert cr_all == transitive == mixing, system.name

    @pytest.mark.parametrize("n", [16, 64])
    def test_transitive_implies_period_one(self, n):
        for system in self.connected_catalog(n):
            g = build_transition_graph(
                system,
                make_epsilon_entourage(system.space, 2 * system.space.resolution),
            )
            if is_chain_transitive(g):
                assert graph_period(g, 0) == 1, system.name

    def test_period_implication_on_random_graphs(self):
        # if the period-th walk-power is chain transitive then the period is 1
        rng = random.Random(2024)
        for _ in range(40):
            g = random_strongly_connected(rng, n_max=8)
            p = graph_period(g, 0)
            if p >= 1 and is_chain_transitive(power_graph(g, p)):
                assert p == 1
        # explicit counter-candidates: pure rings
        for n in (2, 3, 6):
            g = ring(n)
            assert graph_period(g, 0) == n
            assert not is_chain_transitive(power_graph(g, n))


class TestSCC:
    def test_components_sorted_and_partition(self):
        g = graph_from_edges(
            6, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 5)]
        )
        comps = strongly_connected_components(g)
        assert comps == [[0, 1], [2, 3, 4], [5]]

    def test_against_kosaraju_oracle(self):
        def kosaraju(g):
            order = []
            seen = [False] * g.n
            for root in range(g.n):
                if seen[root]:
                    continue
                stack = [(root, iter(g.succ[root]))]
                seen[root] = True
                while stack:
                    v, it = stack[-1]
                    advanced = False
                    for w in it:
                        if not seen[w]:
                            seen[w] = True
                            stack.append((w, iter(g.succ[w])))
                            advanced = True
                            break
                    if not advanced:
                        order.append(v)
                        stack.pop()
            pred = [[] for _ in range(g.n)]
            for x, row in enumerate(g.succ):
                for y in row:
                    pred[y].append(x)
            comp = [-1] * g.n
            comps = []
            for root in reversed(order):
                if comp[root] != -1:
                    continue
                bucket = [root]
                comp[root] = len(comps)
                frontier = [root]
                while frontier:
                    v = frontier.pop()
                    for w in pred[v]:
                        if comp[w] == -1:
                            comp[w] = len(comps)
                            bucket.append(w)
                            frontier.append(w)
                comps.append(sorted(bucket))
            return sorted(comps)

        rng = random.Random(414)
        for _ in range(60):
            n = rng.randint(1, 12)
            edges = {
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 3 * n))
            }
            g = graph_from_edges(n, edges)
            assert sorted(strongly_connected_components(g)) == kosaraju(g)

    def test_closed_walk_lengths_match_bruteforce(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_strongly_connected(rng, n_max=7)
            for v in range(g.n):
                assert closed_walk_lengths(g, v, 15) == loop_lengths_bruteforce(
                    g, v, 15
                )


@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_one_pass_analysis_matches_networkx(case):
    # components, periods, classes and diameter against networkx and the loop oracle
    nx = pytest.importorskip("networkx")
    n, edges = case
    g = graph_from_edges(n, edges)
    G = nx.DiGraph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    analysis = ChainAnalysis.from_graph(g)

    expected = {frozenset(c) for c in nx.strongly_connected_components(G)}
    assert {frozenset(c) for c in analysis.components} == expected
    cyclic = [c for c in analysis.components if len(c) > 1 or G.has_edge(c[0], c[0])]
    assert analysis.recurrent == {v for c in cyclic for v in c}
    assert analysis.transitive == (
        nx.is_strongly_connected(G) and not nx.is_directed_acyclic_graph(G)
    )
    for comp, period, classes in zip(analysis.components, analysis.periods, analysis.classes):
        if comp not in cyclic:
            assert period == 0 and classes is None
            continue
        assert (period == 1) == nx.is_aperiodic(G.subgraph(comp))
        assert period == gcd_of(loop_lengths_bruteforce(g, comp[0], 3 * len(comp)))
        assert len(classes) == period
        assert sorted(v for c in classes for v in c) == list(comp)
        position = {v: i for i, c in enumerate(classes) for v in c}
        for u in comp:
            for v in g.succ[u]:
                if v in position:
                    assert position[v] == (position[u] + 1) % period

    assert_diameter_matches_networkx(g)


def assert_diameter_matches_networkx(g):
    # the longest shortest walk of length >= 1 over ordered pairs, from all-pairs
    # shortest paths; undefined when some pair has no such walk
    nx = pytest.importorskip("networkx")
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    dist = dict(nx.all_pairs_shortest_path_length(G))
    cycles = [
        min((1 + dist[s].get(x, math.inf) for s in g.succ[x]), default=math.inf)
        for x in range(g.n)
    ]
    pairs = [dist[x].get(y, math.inf) for x in range(g.n) for y in range(g.n) if x != y]
    expected = max(cycles + pairs, default=math.inf)
    if expected == math.inf:
        with pytest.raises(UndefinedDiameterError):
            chain_diameter(g)
    else:
        assert chain_diameter(g) == expected
