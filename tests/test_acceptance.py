"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 8 checks the finite form of Omega(f) within CR(f) and the
concentration of the square map's non-wandering estimate at its fixed
points.  Both are stated in the form the finite model can meet, and
both can fail.

Why one shared scale is not enough.  On the square map x -> x^2 (n = 64,
ball radius r = 2h, horizon 200) the non-wandering estimate is
{0, 1, 2, 57..63} but the chain recurrent set at the same scale is
{0, 1, 2, 61, 62, 63}.  Vertex 57 (coordinate 57/63) is flagged
non-wandering by a window transit: u = 59 has f(u) ~ 0.877, which snaps
to 55, and both 59 and 55 lie in the 2h-ball of 57.  No 2h-chain returns
to 57, because climbing requires x(1-x) <= 2h, i.e. x >= 1 - 3h.  The
open/closed ball convention, the h/2 snap tolerance, and Lipschitz
rescalings of either side were all checked; none makes the same-scale
claim true.  Criterion 8 asserts this gap, Omega-hat minus CR-hat at 2h
= {57, 58, 59, 60}, as a fact about the model.

The two-scale containment.  The infinite-time proof passes from a
neighbourhood of x to a chain at a coarser entourage through the uniform
continuity of f.  Let omega be a modulus of continuity: d(a, b) <= r
implies d(f(a), f(b)) <= omega(r).  If x is in the estimate, some grid u
with d(u, x) <= r has an iterate f^t(u), t >= 1, that snaps (within h/2)
into the r-ball at x.  Writing s_k for the snap of f^k(u), the sequence
x -> s_1 -> ... -> s_{t-1} -> x is a D-chain (edge a -> b when
d(f(a), b) <= D) as soon as

* first edge:   d(f(x), s_1) <= omega(r) + h/2,
* middle edges: d(f(s_k), s_{k+1}) <= omega(h/2) + h/2,
* last edge:    d(f(s_{t-1}), x) <= omega(h/2) + h/2 + r,
* when t = 1:   d(f(x), x) <= omega(r) + h/2 + r.

All four are at most D(r) = r + h/2 + omega(r).  So the estimate at ball
radius r lies in the chain recurrent set at scale D(r).  omega is
L * r for the interval and circle maps (L = 1 for identity and the golden
rotation, L = 2 for doubling, tent-2 and square) and the exact grid
maximum for the grid-valued maps (cycle-shift, odometer).  For the square
map at r = 2h this gives D = 6.5h, where the chain recurrent set is 16
of the 64 vertices, so the containment is not vacuous.

The drift window.  For the square map every u in (0, 1) has a decreasing
orbit u^(2^k), so for x in the estimate with witness u as above,
u - f(u) <= u - f^t(u) <= d(u, x) + d(x, s_t) + d(s_t, f^t(u))
<= 2r + h/2.  Since u - f(u) = u(1 - u), every point of the estimate
lies within r of a grid point u with u(1 - u) <= 2r + h/2.  Conversely
the fixed points 0 and 1 are grid points, and a fixed point in the
r-ball at x returns to that ball at t = 1, so every grid point within r
of 0 or of 1 is in the estimate.  An outer approximation at ball
radius 2h is necessarily wider than h: the computed estimate reaches 6h
from the repelling fixed point, inside that window.

Criterion 10: chain mixing and total chain transitivity at two scales.
The paper's theorem (a compact system is chain mixing iff it is totally
chain transitive) fails at one shared scale on the model: doubling-64 at
2h is chain mixing, but f^3 sends the grid to every 8th point, so 24 of
the 64 vertices of the graph of f^3 at 2h have no in-edge.  The model
meets it in two scales, with omega as above and rho = h/2 the largest
snap distance.

* (A) A walk x_0 -> ... -> x_k in the graph of f at r ends within
  R_k of f^k(x_0), where R_1 = r and R_k = omega(R_{k-1}) + r.  So the
  k-th walk power of that graph lies in the graph of f^k at R_k.  Every
  walk power of a chain mixing graph is strongly connected (criterion 1),
  so if the graph of f at r is mixing, the graph of f^k at R_k is chain
  transitive.
* (B) For an edge x -> y of the graph of f^p at r, the snapped orbit
  x, s_1, ..., s_{p-1}, y is a walk in the graph of f at
  r' = max(r, rho) + omega(rho).  So the graph of f^p at r lies in the
  p-th walk power of the graph of f at r', which splits into p classes
  when p is that graph's period.  If the graphs of f^k at r are chain
  transitive for every k <= nmax, the graph of f at r' is chain
  transitive with period 1 or greater than nmax.
"""

import json
import math
import random
import time
from functools import partial
from itertools import islice

from chaindyn import (
    GOLDEN_ALPHA,
    GeneratorSet,
    build_transition_graph,
    cantor_space,
    catalog_systems,
    chain_diameter,
    chain_recurrent_set,
    cli,
    doubling_system,
    dyadic_basis,
    estimate_shadowing_modulus,
    frobenius_bound,
    graph_period,
    identity_system,
    interval_grid,
    is_chain_mixing,
    is_chain_transitive,
    iterate_shadowing_check,
    make_epsilon_entourage,
    nonwandering_points,
    power_graph,
    realizable_length_bound,
    representable,
    rotation_system,
    square_system,
    tent_system,
)
from chaindyn.chaingraph import ChainAnalysis
from chaindyn.uniform import COMPARISON_SLACK
from oracles import (
    chain_scale,
    continuity_modulus,
    gcd_of,
    loop_lengths_bruteforce,
    random_strongly_connected,
)


def report(num: int, description: str, ok: bool) -> bool:
    print(f"[criterion {num}] {description}: {'PASS' if ok else 'FAIL'}")
    return ok


def full_row_dp(g):
    """Per-length reachability rows as bitmasks, up to the Wielandt cap.

    Returns (first_full, loops): the first length at which each row is
    all-ones (None if never within the cap), and the set of closed-walk
    lengths per vertex.  A full row stays full (every vertex has an
    in-neighbor in a strongly connected graph), so first_full certifies
    every longer length for that source.
    """
    n = g.n
    masks = [sum(1 << w for w in row) for row in g.succ]
    full = (1 << n) - 1
    # one step past the Wielandt exponent bound, so that a row that first
    # fills at the cap still contributes the consecutive loop pair (F, F+1)
    cap = (n - 1) ** 2 + 1
    reach = list(masks)
    first_full = [1 if r == full else None for r in reach]
    loops = [set() for _ in range(n)]
    for x in range(n):
        if (reach[x] >> x) & 1:
            loops[x].add(1)
    for ell in range(2, cap + 2):
        new = []
        for r in reach:
            nxt = 0
            v = 0
            while r:
                if r & 1:
                    nxt |= masks[v]
                r >>= 1
                v += 1
            new.append(nxt)
        reach = new
        for x in range(n):
            if first_full[x] is None and reach[x] == full:
                first_full[x] = ell
            if (reach[x] >> x) & 1:
                loops[x].add(ell)
    return first_full, loops


def test_criterion_1_mixing_equivalence():
    start = time.monotonic()
    rng = random.Random(20260811)
    disagreements = 0
    for _ in range(500):
        g = random_strongly_connected(rng, n_max=12)
        n = g.n
        first_full, loops = full_row_dp(g)
        oracle_mixing = all(f is not None for f in first_full)
        mixing = is_chain_mixing(g)
        totally = all(
            is_chain_transitive(power_graph(g, k)) for k in range(1, n + 1)
        )
        if not (oracle_mixing == mixing == totally):
            disagreements += 1
            continue
        if oracle_mixing:
            # all lengths >= realizable_length_bound occur between all
            # pairs: the bound is per source (loops at x plus a chain of
            # length <= M), and a full row at the bound stays full
            M = chain_diameter(g)
            for x in range(n):
                gens = []
                for length in sorted(loops[x]):
                    gens.append(length)
                    if math.gcd(*gens) == 1:
                        break
                bound = realizable_length_bound(GeneratorSet.of(gens), M)
                if first_full[x] > bound:
                    disagreements += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and elapsed < 60
    assert report(
        1,
        f"mixing == DP oracle == walk-power transitivity over 500 digraphs "
        f"({disagreements} disagreements, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_period_is_cycle_length_gcd():
    rng = random.Random(977)
    disagreements = 0
    for _ in range(500):
        g = random_strongly_connected(rng, n_max=10)
        period = graph_period(g, 0)
        for v in range(g.n):
            lengths = loop_lengths_bruteforce(g, v, 3 * g.n)
            if gcd_of(lengths) != period:
                disagreements += 1
                break
    assert report(
        2,
        f"cycle-length gcd equals the period at every vertex over 500 "
        f"digraphs ({disagreements} disagreements)",
        disagreements == 0,
    )


def test_criterion_3_cyclic_class_structure():
    failures = []
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
                if classes is None or len(classes) != p:
                    failures.append((system.name, n, "count"))
                    continue
                if sorted(v for c in classes for v in c) != list(comp):
                    failures.append((system.name, n, "partition"))
                    continue
                position = {v: i for i, c in enumerate(classes) for v in c}
                members = set(comp)
                for u in comp:
                    for v in g.succ[u]:
                        if v in members and position[v] != (position[u] + 1) % p:
                            failures.append((system.name, n, "advance"))
            if analysis.is_strongly_connected:
                classes = analysis.classes[0]
                if sorted(v for c in classes for v in c) != list(range(g.n)):
                    failures.append((system.name, n, "vertex-set"))
    assert report(
        3, f"cyclic classes partition and advance cyclically ({failures})",
        not failures,
    )


def test_criterion_4_connected_grid_equivalences():
    systems = [
        identity_system(interval_grid(64)),
        rotation_system(GOLDEN_ALPHA, 64),
        doubling_system(64),
        tent_system(2.0, 64),
    ]
    failures = []
    for system in systems:
        g = build_transition_graph(
            system,
            make_epsilon_entourage(system.space, 2 * system.space.resolution),
        )
        cr_all = chain_recurrent_set(g) == frozenset(range(g.n))
        transitive = is_chain_transitive(g)
        mixing = is_chain_mixing(g)
        if not (cr_all == transitive == mixing):
            failures.append(system.name)
    assert report(
        4, f"recurrent=all iff transitive iff mixing on connected grids ({failures})",
        not failures,
    )


def test_criterion_5_frobenius_bounds():
    ok = frobenius_bound(GeneratorSet.of([3, 5])) == 8
    ok &= frobenius_bound(GeneratorSet.of([2, 3])) == 2
    for a in range(2, 31):
        for b in range(a + 1, 31):
            if math.gcd(a, b) != 1:
                continue
            ok &= frobenius_bound(GeneratorSet.of([a, b])) == a * b - a - b + 1
    for gens in ([3, 5], [2, 3], [4, 7, 9]):
        g = GeneratorSet.of(gens)
        bound = frobenius_bound(g)
        ok &= all(representable(s, g) for s in range(bound, bound + 1000))
        if bound > 0:
            ok &= not representable(bound - 1, g)
    assert report(5, "Frobenius bounds match the closed form and windows", ok)


def test_criterion_6_shadowing_dichotomy():
    start = time.monotonic()
    ok = True
    for k in (1, 2, 3):
        sp = cantor_space(k)
        outcome = estimate_shadowing_modulus(
            identity_system(sp),
            make_epsilon_entourage(sp, 0.9 * sp.gap),
            dyadic_basis(sp, 8),
            trials=100,
            length=100,
            seed=2026,
        )
        ok &= outcome.found
    sp = interval_grid(101)
    runs = [
        estimate_shadowing_modulus(
            identity_system(sp),
            make_epsilon_entourage(sp, 0.1),
            dyadic_basis(sp, 8),
            trials=100,
            length=100,
            seed=2026,
        )
        for _ in range(2)
    ]
    ok &= not runs[0].found
    ok &= runs[0].counterexample_mode == "adversarial-drift"
    ok &= runs[0] == runs[1]  # deterministic counterexample
    elapsed = time.monotonic() - start
    ok &= elapsed < 30
    assert report(
        6,
        f"identity shadows on Cantor models, fails on the connected grid "
        f"({elapsed:.1f}s)",
        bool(ok),
    )


def test_criterion_7_iterate_invariance_echo():
    systems = [
        (identity_system(interval_grid(64)), 0.1),
        (doubling_system(64), 1 / 8),
    ]
    worst = 1.0
    for system, escale in systems:
        e = make_epsilon_entourage(system.space, escale)
        basis = dyadic_basis(system.space, 8)
        for n in (2, 3, 4):
            agreements = sum(
                iterate_shadowing_check(
                    system, e, basis, n, trials=3, seed=5000 + s, length=30
                ).agree
                for s in range(100)
            )
            worst = min(worst, agreements / 100)
    assert report(
        7,
        f"f vs f^n modulus outcomes agree (worst rate {worst:.2f} over 100 seeds)",
        worst >= 0.95,
    )


def test_criterion_8_recurrence_containments():
    # Omega-hat at ball radius r = 2h lies in CR-hat at the coarser scale
    # D(r); on square-64 the same-scale gap is pinned and the estimate is
    # bracketed by the drift window 2r + h/2 (module docstring).
    failures = []
    for n in (16, 64):
        for system in catalog_systems(n):
            r = 2 * system.space.resolution
            ball = make_epsilon_entourage(system.space, r)
            coarse = make_epsilon_entourage(system.space, chain_scale(system, r))
            omega = set(nonwandering_points(system, ball, 200))
            if not omega <= chain_recurrent_set(build_transition_graph(system, coarse)):
                failures.append((system.name, n, "omega-not-in-CR(D)"))
    s = square_system(64)
    h = s.space.resolution
    r = 2 * h
    ball = make_epsilon_entourage(s.space, r)
    coarse = make_epsilon_entourage(s.space, chain_scale(s, r))
    omega = set(nonwandering_points(s, ball, 200))
    if len(chain_recurrent_set(build_transition_graph(s, coarse))) == s.space.n:
        failures.append(("square", 64, "CR(D) is the whole grid"))
    gap = sorted(omega - chain_recurrent_set(build_transition_graph(s, ball)))
    if gap != [57, 58, 59, 60]:
        failures.append(("square", 64, f"same-scale gap {gap}"))
    coords = [p[0] for p in s.space.points]
    window = 2 * r + h / 2 + COMPARISON_SLACK
    for x in sorted(omega):
        if not any(
            abs(coords[x] - u) <= r + COMPARISON_SLACK and u * (1 - u) <= window
            for u in coords
        ):
            failures.append(("square", 64, f"index {x} outside the drift window"))
    for x, c in enumerate(coords):
        if min(c, 1 - c) <= r + COMPARISON_SLACK and x not in omega:
            failures.append(("square", 64, f"index {x} near a fixed point, not in omega"))
    assert report(
        8,
        f"omega-hat(2h) within CR(D), D = r + h/2 + omega(r) (2h -> "
        f"{coarse.scale / h:g}h on square); same-scale gap on square-64 "
        f"{gap}; estimate within the drift window 2r + h/2 of {{0, 1}} "
        f"({len(failures)} violations: {failures})",
        not failures,
    )


def test_criterion_9_report_determinism(tmp_path, monkeypatch):
    spec = tmp_path / "doubling256.yaml"
    spec.write_text("name: doubling\nmap: doubling\ngeometry: circle\ngrid_n: 256\n")
    payloads = []
    for threads in ("1", "8"):
        monkeypatch.setenv("CHAINDYN_THREADS", threads)
        for run in range(3):
            out = tmp_path / f"report-{threads}-{run}.json"
            code = cli.main(
                [
                    "full", "--spec", str(spec), "--seed", "7",
                    "--format", "machine", "--out", str(out),
                ]
            )
            assert code == 0
            payloads.append(out.read_bytes())
    ok = all(p == payloads[0] for p in payloads)
    json.loads(payloads[0])  # well-formed machine document
    assert report(
        9, "full doubling report byte-identical across runs and thread counts", ok
    )


def test_criterion_10_mixing_iff_totally_transitive_at_two_scales():
    # (A) and (B) of the module docstring on the catalog, and the golden
    # request's same-scale disagreement pinned as a fact about the model
    start, n_max, failures, counts = time.monotonic(), 4, [], {}
    for n in (16, 64):
        mixing_count = totally_count = 0
        for system in catalog_systems(n):
            space, h = system.space, system.space.resolution
            powers = list(islice(system.iterates(), n_max))
            omega = partial(continuity_modulus, system)

            def analysis(k, scale, powers=powers, space=space):
                d = make_epsilon_entourage(space, scale)
                return ChainAnalysis.from_graph(build_transition_graph(powers[k - 1], d))

            for r in (h / 2, h, 2 * h, 0.1):
                first = analysis(1, r)
                mixing = first.transitive and first.periods[0] == 1
                totally = all(analysis(k, r).transitive for k in range(1, n_max + 1))
                mixing_count += mixing
                totally_count += totally
                scale = r
                for k in range(1, n_max + 1) if mixing else ():
                    scale = r if k == 1 else omega(scale) + r
                    if not analysis(k, scale).transitive:
                        failures.append((system.name, n, r, f"(A) f^{k} at {scale:g}"))
                if totally:
                    coarse = analysis(1, max(r, h / 2) + omega(h / 2))
                    period = coarse.periods[0]
                    if not (coarse.transitive and (period == 1 or period > n_max)):
                        failures.append((system.name, n, r, f"(B) period {period}"))
        counts[n] = (mixing_count, totally_count)
        if not (mixing_count and totally_count):
            failures.append(("catalog", n, None, f"vacuous: {counts[n]}"))
    doubling = doubling_system(64)
    d = make_epsilon_entourage(doubling.space, 2 * doubling.space.resolution)
    graphs = [build_transition_graph(s, d) for s in islice(doubling.iterates(), n_max)]
    sources = [{y for row in g.succ for y in row} for g in graphs]
    pinned = (is_chain_mixing(graphs[0]), [is_chain_transitive(g) for g in graphs],
              [64 - len(hit) for hit in sources])
    if pinned != (True, [True, True, False, False], [0, 0, 24, 44]):
        failures.append(("doubling", 64, "2h", f"same-scale pair {pinned}"))
    elapsed = time.monotonic() - start
    assert report(
        10,
        f"mixing at r => f^k transitive at R_k; f^k transitive at r for k <= {n_max} => "
        f"f transitive at max(r, h/2) + omega(h/2), period 1 or > {n_max} "
        f"(mixing, totally transitive per n: {counts}); doubling-64 at 2h mixing, "
        f"f^3 and f^4 not transitive, {pinned[2][2:]} vertices without in-edge "
        f"({elapsed:.2f} s, {len(failures)} violations: {failures})",
        not failures and elapsed <= 5.0,
    )
