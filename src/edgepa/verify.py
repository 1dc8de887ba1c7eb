"""Named verification suites: every acceptance check as an executable criterion.

Each criterion generates its own data from a fixed seed, compares a
measurement against an exact value or a statistical band stated up front,
and returns a result line.  Suites group related criteria::

    oracle       C1  exact law equality of the direct process and the collapse
                 C2  generator frequencies vs the exact law
    process      C3  one-step degree increment law
                 C4  expected-degree product vs simulated mean
                 C5  vertex count vs its prefix-sum mean
    coupling     C6  coupled disagreement under the L1 bound
                 C7  samplewise monotonicity of diameter / max degree / V
    scaling      C8  tree-regime diameter envelope
                 C9  constant-order diameter for a regularly varying schedule
                 C10 clique feasibility bound on every generated graph
                 C11 clique growth exponent
                 C15 oscillating schedule: dense and tree plateaus
    paths        C12 isolated-chain first-moment lower bound
                 C13 vertex-path first-moment upper bound
    observables  C14 diameter/clique/chain implementations vs brute oracles
    performance  C16 generator wall-time budget

Every statistical tolerance below (sigma multipliers, pass fractions,
bands) is fixed here and never tuned at run time.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coupling, observables as ob, oracle, rng as _rng, theory
from .edgestep import ba, constant, log_class, oscillating, rv_power, tabulated
from .graphs import MultiGraph, evolve, evolve_batch

DEFAULT_SEED = 20250810


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    measured: str
    expected: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"[{mark}] {self.cid} {self.name}: measured {self.measured}; "
            f"expected {self.expected} ({self.seconds:.1f}s)"
        )


def _result(cid, name, passed, measured, expected, started) -> CriterionResult:
    return CriterionResult(
        cid=cid,
        name=name,
        passed=bool(passed),
        measured=measured,
        expected=expected,
        seconds=time.perf_counter() - started,
    )


def _diameter(view: ob.SimpleView) -> int:
    """Exact diameter.  The certified bracket searches each vertex at most
    once, so a budget of ``n`` searches always closes it."""
    return ob.diameter_bounds(view, refine_budget=view.n)[0]


# -- C1 / C2: oracle ----------------------------------------------------------


def c01_oracle_law_equality(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    worst = 0.0
    for f in (constant(0.5), constant(1.0), log_class(1.0)):
        for t in (2, 3, 4):
            a = oracle.enumerate_direct_law(f, t)
            b = oracle.enumerate_collapse_law(f, t)
            if a.total() != 1 or b.total() != 1:
                return _result(
                    "C1", "oracle-law-equality", False,
                    f"law mass {float(a.total())}/{float(b.total())}", "mass exactly 1", started,
                )
            worst = max(worst, oracle.law_distance(a, b))
    return _result(
        "C1", "oracle-law-equality", worst < 1e-10,
        f"max TV {worst:.2e}", "TV < 1e-10 on all 9 (f, t) pairs", started,
    )


def c02_generator_vs_oracle(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    f, t, reps = constant(0.5), 4, 10**6
    law = oracle.enumerate_direct_law(f, t)
    counts = oracle.sample_direct_law(f, t, reps, _rng.child_seed(seed, 2))
    foreign = set(counts) - set(law.probs)
    if foreign:
        return _result(
            "C2", "generator-vs-oracle", False,
            f"{len(foreign)} outcomes outside the exact support", "no foreign outcomes", started,
        )
    worst = 0.0
    for key, p in law.probs.items():
        pf = float(p)
        sd = math.sqrt(reps * pf * (1.0 - pf))
        if sd > 0:
            worst = max(worst, abs(counts.get(key, 0) - reps * pf) / sd)
    return _result(
        "C2", "generator-vs-oracle", worst <= 4.0,
        f"worst outcome z={worst:.2f} over {law.support_size()} outcomes",
        "every canonical-graph frequency within 4 sigma", started,
    )


# -- C3 / C4 / C5: direct process ----------------------------------------------


def _frozen_state() -> MultiGraph:
    # t = 4 history whose vertex 2 has degree exactly 2
    return MultiGraph(
        endpoints=np.array([1, 1, 1, 2, 2, 3, 1, 4]),
        step_type=np.array([True, True, True, True]),
        birth_time=np.array([1, 2, 3, 4]),
        parent=np.array([0, 1, 2, 1]),
    )


def c03_increment_law(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    g = _frozen_state()
    g.validate()
    v, fnext, trials = 2, 0.5, 10**6
    expected = theory.transition_probs(2, 4, fnext)

    # one step from the frozen state per trial: a coin and two uniform slots,
    # of which a vertex-step uses the first (its other endpoint is new)
    gen = _rng.stream(_rng.child_seed(seed, 3), 0)
    vertex_step = gen.random(trials) < fnext
    first = gen.integers(0, 2 * g.t, size=trials)
    second = gen.integers(0, 2 * g.t, size=trials)
    base = int(g.degrees()[v - 1])
    hits = (g.endpoints[first] == v).astype(np.int64) + (~vertex_step & (g.endpoints[second] == v))
    freqs = np.bincount(hits, minlength=3) / trials
    worst = 0.0
    for k in range(3):
        sd = math.sqrt(expected[k] * (1 - expected[k]) / trials)
        worst = max(worst, abs(freqs[k] - expected[k]) / sd)
    empirical_ok = worst <= 3.0 and base == 2

    # exact unit-mass identity on a rational grid
    exact_ok = True
    ts = np.unique(np.linspace(1, 1000, 100).astype(int))
    fr = [Fraction(k, 10) for k in range(11)]
    for t in ts:
        ds = np.unique(np.linspace(1, 2 * int(t), 100).astype(int))
        for d in ds:
            for fv in fr:
                if sum(theory.transition_probs(Fraction(int(d)), int(t), fv)) != 1:
                    exact_ok = False
    return _result(
        "C3", "increment-law", empirical_ok and exact_ok,
        f"freqs {tuple(round(float(x), 5) for x in freqs)}, worst z={worst:.2f}, grid exact={exact_ok}",
        f"{expected} within 3 sigma; grid sums exactly 1", started,
    )


def c04_expected_degree(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    f, t0, t, reps = constant(0.5), 10, 2000, 10**4
    batch = evolve_batch(f, t, reps, _rng.child_seed(seed, 4), force_coin={t0: True})
    vid = 1 + batch.z[:, : t0 - 1].sum(axis=1)
    degs = (batch.endpoints == vid[:, None]).sum(axis=1)
    mean = float(degs.mean())
    sem = float(degs.std(ddof=1)) / math.sqrt(reps)
    want = theory.expected_degree(f, t0, t)
    z = abs(mean - want) / sem
    return _result(
        "C4", "expected-degree", z <= 3.0,
        f"mean {mean:.3f} vs product {want:.3f} (z={z:.2f})",
        "sample mean within 3 standard errors of the exact product", started,
    )


def c05_vertex_count(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    f, t, reps = constant(0.5), 10**5, 200
    base = _rng.child_seed(seed, 5)
    counts = np.array(
        [evolve(f, t, _rng.child_seed(base, r)).n_vertices for r in range(reps)], dtype=float
    )
    want = f.partial_sum(t)
    sigma = math.sqrt((t - 1) * 0.25 / reps)
    z = abs(counts.mean() - want) / sigma
    return _result(
        "C5", "vertex-count", z <= 4.0,
        f"mean V {counts.mean():.1f} vs F(t) {want:.1f} (z={z:.2f})",
        "mean within 4 sigma of the prefix sum", started,
    )


# -- C6 / C7: coupling -----------------------------------------------------------


def c06_tv_coupling(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    t, reps = 10**3, 10**4
    f = constant(0.3)
    values = np.full(t - 1, 0.3)
    values[8:18] += 0.01  # times 10..19
    h = tabulated(values)
    tv = coupling.tv_upper_bound(f, h, t)
    bound = tv + 3.0 * math.sqrt(tv * (1 - tv) / reps)
    frac = coupling.empirical_disagreement(f, h, t, reps, _rng.child_seed(seed, 6))
    return _result(
        "C6", "tv-coupling", frac <= bound and abs(tv - 0.1) < 1e-9,
        f"disagreement {frac:.4f}, truncated L1 {tv:.4f}",
        f"disagreement <= {bound:.4f}", started,
    )


def c07_samplewise_monotonicity(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    t, reps = 10**4, 10**3
    f, h = constant(0.3), constant(0.7)
    base = _rng.child_seed(seed, 7)
    bad = 0
    for r in range(reps):
        tree = coupling.grow_tree(t, _rng.child_seed(base, r))
        gf = coupling.collapse(tree, f)
        gh = coupling.collapse(tree, h)
        ok = gf.n_vertices <= gh.n_vertices and gf.degrees().max() >= gh.degrees().max()
        if ok:
            ok = _diameter(ob.simple_view(gf)) <= _diameter(ob.simple_view(gh))
        bad += not ok
    return _result(
        "C7", "samplewise-monotonicity", bad == 0,
        f"{reps - bad}/{reps} samples ordered (diam, Dmax, V)",
        "orderings hold in 100% of coupled samples", started,
    )


# -- C8 / C9 / C10 / C11 / C15: scaling ------------------------------------------


def c08_ba_diameter_envelope(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    t, reps = 10**5, 50
    f = ba()
    base = _rng.child_seed(seed, 8)
    # the paper's O(log t) with the constant it carries for the tree
    c = theory.TREE_DIAMETER_CONSTANT
    upper = c * math.log(t)
    lower = math.log(t) / math.log(math.log(t)) / 3.0
    diams = []
    for r in range(reps):
        g = evolve(f, t, _rng.child_seed(base, r))
        diams.append(_diameter(ob.simple_view(g)))
    diams = np.array(diams)
    n_upper = int(np.count_nonzero(diams <= upper))
    n_lower = int(np.count_nonzero(diams >= lower))
    return _result(
        "C8", "ba-diameter-envelope", n_upper >= 49 and n_lower == reps,
        f"diam in [{diams.min()}, {diams.max()}], <= {c:.2f} log t in {n_upper}/{reps}",
        f"<= {c:.2f} log t = {upper:.1f} in >=49/50 and >= {lower:.2f} in 50/50",
        started,
    )


def _clique_feasible(k: int, simple_edges: int, t: int) -> bool:
    return k * (k - 1) // 2 <= simple_edges and k <= 7.0 * math.sqrt(t)


def c09_rv_bounded_diameter(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    f = rv_power(0.5)
    horizons = [10**4, 10**5, 10**6]
    reps = 20
    base = _rng.child_seed(seed, 9)
    medians = {}
    all_in_band = True
    feasible = True
    lo_band, hi_band = 1.0, 100.0 / 0.5 + 2.0
    for t in horizons:
        ds = []
        for r in range(reps):
            g = evolve(f, t, _rng.child_seed(base, r))
            view = ob.simple_view(g)
            d = _diameter(view)
            ds.append(d)
            if not lo_band <= d <= hi_band:
                all_in_band = False
            if not _clique_feasible(ob.clique_greedy(view, g.degrees()), view.n_edges, t):
                feasible = False
        medians[t] = float(np.median(ds))
    drift_ok = medians[10**6] <= medians[10**4] + 1.0
    return _result(
        "C9", "rv-bounded-diameter", all_in_band and drift_ok and feasible,
        f"medians {medians}, band ok={all_in_band}",
        f"diameters within [1, {hi_band:.0f}], median drift <= 1 per two decades", started,
    )


def c10_clique_upper_bound(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    base = _rng.child_seed(seed, 10)
    families = [constant(0.3), constant(0.7), rv_power(0.5), log_class(1.0), ba(), oscillating(10)]
    checked, violations = 0, 0
    for i, f in enumerate(families):
        for j, t in enumerate((10**3, 10**4)):
            for r in range(3):
                g = evolve(f, t, _rng.child_seed(base, 100 * i + 10 * j + r))
                view = ob.simple_view(g)
                k = ob.clique_greedy(view, g.degrees())
                checked += 1
                if not _clique_feasible(k, view.n_edges, t):
                    violations += 1
    return _result(
        "C10", "clique-upper-bound", violations == 0,
        f"{checked - violations}/{checked} graphs satisfy k(k-1)/2 <= simple edges",
        "every reported clique feasible, hence k <= 7 sqrt(t)", started,
    )


def c11_clique_growth_slope(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    f = rv_power(0.5)
    horizons = [10**4, 10**5, 10**6]
    reps = 10
    base = _rng.child_seed(seed, 11)
    xs, ys = [], []
    feasible = True
    for t in horizons:
        for r in range(reps):
            g = evolve(f, t, _rng.child_seed(base, r))
            view = ob.simple_view(g)
            k = ob.clique_greedy(view, g.degrees())
            if not _clique_feasible(k, view.n_edges, t):
                feasible = False
            xs.append(math.log(t))
            ys.append(math.log(k))
    slope = float(np.polyfit(np.array(xs), np.array(ys), 1)[0])
    return _result(
        "C11", "clique-growth-slope", 0.15 <= slope <= 0.35 and feasible,
        f"log-log slope {slope:.3f}",
        "slope within [0.15, 0.35] (theory exponent 0.25)", started,
    )


def c15_oscillating_regime(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    f = oscillating(30)
    t_dense = 30 * 30 - 1      # last step of the edge-only plateau
    t_tree = 30**4             # last step of the following vertex plateau
    threshold = math.log(t_tree) / math.log(math.log(t_tree)) / 4.0
    reps = 10
    base = _rng.child_seed(seed, 15)
    dense_pass = tree_pass = 0
    dense_diams, tree_lbs = [], []
    for r in range(reps):
        rseed = _rng.child_seed(base, r)
        g1 = evolve(f, t_dense, rseed)
        d1 = _diameter(ob.simple_view(g1))
        dense_diams.append(d1)
        dense_pass += d1 <= 3
        g2 = evolve(f, t_tree, rseed)
        lb, _ = ob.diameter_bounds(ob.simple_view(g2), refine_budget=0)
        tree_lbs.append(lb)
        tree_pass += lb >= threshold
    return _result(
        "C15", "oscillating-regime", dense_pass >= 9 and tree_pass >= 9,
        f"dense diam {sorted(dense_diams)} (<=3 in {dense_pass}/10), "
        f"tree lb {sorted(tree_lbs)} (>= {threshold:.2f} in {tree_pass}/10)",
        "dense plateau diam <= 3 and tree plateau diam >= threshold, each >= 9/10", started,
    )


# -- C12 / C13: path moments -------------------------------------------------------


def c12_isolated_path_moment(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    f, t, l, xi, reps = constant(0.5), 2000, 2, 0.5, 10**3
    base = _rng.child_seed(seed, 12)
    counts = np.array(
        [
            ob.count_isolated_in_window(evolve(f, t, _rng.child_seed(base, r)), l, xi)
            for r in range(reps)
        ],
        dtype=float,
    )
    lb = theory.isolated_path_mean_lb(f, t, l, xi)
    sem = counts.std(ddof=1) / math.sqrt(reps)
    ok = counts.mean() >= lb - 3.0 * sem
    return _result(
        "C12", "isolated-path-moment", ok,
        f"mean count {counts.mean():.4f} (sem {sem:.4f}) vs bound {lb:.4f}",
        "empirical mean >= lower bound - 3 sigma (one-sided)", started,
    )


def c13_vertex_path_moment(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    f, t, k, reps = constant(0.3), 10**4, 4, 10**3
    t0 = max(2, math.ceil(t ** (1.0 / 13.0)))
    base = _rng.child_seed(seed, 13)
    counts = np.array(
        [
            ob.count_vertex_paths(evolve(f, t, _rng.child_seed(base, r)), t0, k)
            for r in range(reps)
        ],
        dtype=float,
    )
    ub = theory.vertex_path_mean_ub(f, t0, t, k)
    sem = counts.std(ddof=1) / math.sqrt(reps)
    ok = counts.mean() <= ub + 3.0 * sem
    return _result(
        "C13", "vertex-path-moment", ok,
        f"mean count {counts.mean():.1f} (sem {sem:.2f}) vs bound {ub:.1f} at t0={t0}",
        "empirical mean <= upper bound + 3 sigma (one-sided)", started,
    )


# -- C14: observable oracles ---------------------------------------------------------


def _random_view(gen: np.random.Generator, n: int, extra: int) -> ob.SimpleView:
    parents = [0] + [int(gen.integers(0, k)) for k in range(1, n)]
    pairs = {(min(k, p), max(k, p)) for k, p in enumerate(parents) if k}
    want = min(n - 1 + extra, n * (n - 1) // 2)
    while len(pairs) < want:
        u, v = (int(x) for x in gen.integers(0, n, 2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = np.array(sorted(pairs), dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return ob.SimpleView(n=n, edges=edges, indptr=indptr, indices=dst[order])


def all_pairs_diameter(view: ob.SimpleView) -> int:
    """All-pairs oracle: a breadth-first search from every vertex.

    Quadratic, so for tests on small graphs only.  Raises on disconnected
    input.
    """
    best = 0
    for src in range(view.n):
        dist = ob.bfs_distances(view, src)
        if dist.min() < 0:
            raise ValueError("graph is disconnected")
        best = max(best, int(dist.max()))
    return best


def floyd_warshall_diameter(view: ob.SimpleView) -> int:
    """Independent all-pairs oracle by min-plus relaxation."""
    n = view.n
    dist = np.full((n, n), 10**6, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    for u, v in view.edges:
        dist[u, v] = dist[v, u] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return int(dist.max())


def exhaustive_clique_upto(view: ob.SimpleView, kmax: int = 6) -> int:
    """Largest clique of size <= kmax by exhaustive extension of all cliques."""
    adj = [set(view.neighbors(v).tolist()) for v in range(view.n)]
    cliques = [(v,) for v in range(view.n)]
    best = 1 if view.n else 0
    for k in range(2, kmax + 1):
        nxt = []
        for c in cliques:
            for v in range(c[-1] + 1, view.n):
                if all(v in adj[u] for u in c):
                    nxt.append(c + (v,))
        if not nxt:
            return best
        best = k
        cliques = nxt
    return best


def c14_observable_oracles(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    gen = np.random.default_rng(_rng.child_seed(seed, 14))

    diam_bad = 0
    for _ in range(100):
        n = int(gen.integers(2, 201))
        view = _random_view(gen, n, int(gen.integers(0, n)))
        if ob.diameter_bounds(view) != (floyd_warshall_diameter(view),) * 2:
            diam_bad += 1

    clique_bad = 0
    for _ in range(50):
        n = int(gen.integers(5, 61))
        view = _random_view(gen, n, int(gen.integers(n, 3 * n)))
        got, status, _ = ob.clique_exact(view)
        want = exhaustive_clique_upto(view, 6)
        if status != "exact" or (want < 6 and got != want) or (want == 6 and got < 6):
            clique_bad += 1

    # isolated-chain fixtures: forced line, two pendant chains, edge-only history
    line = MultiGraph(
        endpoints=np.array([1, 1, 1, 2, 2, 3]),
        step_type=np.array([True, True, True]),
        birth_time=np.array([1, 2, 3]),
        parent=np.array([0, 1, 2]),
    )
    two = MultiGraph(
        endpoints=np.array([1, 1, 1, 2, 2, 3, 3, 4, 1, 5, 5, 6, 6, 7, 7, 8]),
        step_type=np.ones(8, dtype=bool),
        birth_time=np.arange(1, 9),
        parent=np.array([0, 1, 2, 3, 1, 5, 6, 7]),
    )
    loops = evolve(constant(0.0), 50, _rng.child_seed(seed, 140))
    fixtures_ok = (
        ob.isolated_paths(line) == Counter({2: 1})
        and ob.isolated_paths(two) == Counter({3: 1, 4: 1})
        and ob.isolated_paths(loops) == Counter()
    )
    ok = diam_bad == 0 and clique_bad == 0 and fixtures_ok
    return _result(
        "C14", "observable-oracles", ok,
        f"diameter mismatches {diam_bad}/100, clique mismatches {clique_bad}/50, "
        f"fixtures ok={fixtures_ok}",
        "all oracle comparisons exact", started,
    )


# -- C16: performance -----------------------------------------------------------------


def c16_performance(seed: int = DEFAULT_SEED) -> CriterionResult:
    started = time.perf_counter()
    f = constant(0.5)
    evolve(f, 10**4, seed)  # warm-up
    t0 = time.perf_counter()
    evolve(f, 10**6, _rng.child_seed(seed, 16))
    t_small = time.perf_counter() - t0
    t0 = time.perf_counter()
    evolve(f, 10**7, _rng.child_seed(seed, 160))
    t_big = time.perf_counter() - t0
    return _result(
        "C16", "performance", t_small < 5.0 and t_big < 60.0,
        f"t=1e6 in {t_small:.2f}s, t=1e7 in {t_big:.2f}s",
        "under 5s and 60s single-worker", started,
    )


# -- suites ------------------------------------------------------------------


SUITES = {
    "oracle": [c01_oracle_law_equality, c02_generator_vs_oracle],
    "process": [c03_increment_law, c04_expected_degree, c05_vertex_count],
    "coupling": [c06_tv_coupling, c07_samplewise_monotonicity],
    "scaling": [
        c08_ba_diameter_envelope,
        c09_rv_bounded_diameter,
        c10_clique_upper_bound,
        c11_clique_growth_slope,
        c15_oscillating_regime,
    ],
    "paths": [c12_isolated_path_moment, c13_vertex_path_moment],
    "observables": [c14_observable_oracles],
    "performance": [c16_performance],
}

SUITES["all"] = [
    c01_oracle_law_equality,
    c02_generator_vs_oracle,
    c03_increment_law,
    c04_expected_degree,
    c05_vertex_count,
    c06_tv_coupling,
    c07_samplewise_monotonicity,
    c08_ba_diameter_envelope,
    c09_rv_bounded_diameter,
    c10_clique_upper_bound,
    c11_clique_growth_slope,
    c12_isolated_path_moment,
    c13_vertex_path_moment,
    c14_observable_oracles,
    c15_oscillating_regime,
    c16_performance,
]


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Execute a named suite; raises ValueError for unknown names."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return [fn(seed) for fn in SUITES[name]]
