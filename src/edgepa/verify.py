"""Named verification suites: every acceptance check as an executable criterion.

Each criterion generates its own data from a fixed seed, compares a
measurement against an exact value or a statistical band stated up front,
and returns a result line; C7-C11 and C15 read it, bounds included, from
the rows that ``experiments`` writes.  Suites group related criteria::

    oracle       C1  exact law equality of the direct process and the collapse
                 C2  generator frequencies vs the exact law
                 C19 generator frequencies vs the exact law under a varying f
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

import bisect
import functools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coupling, experiments, observables as ob, oracle, rng as _rng, theory
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


#: The verdict a criterion's body returns: ``(passed, measured, expected)``.
Verdict = tuple[bool, str, str]

#: Suite name -> its criteria, in declaration order; ``"all"`` holds every
#: criterion in cid order.  Filled by :func:`criterion`.
SUITES: dict[str, list] = {"all": []}


def criterion(cid: str, name: str, suite: str):
    """Register the decorated body as criterion ``cid`` of ``suite``.

    The body takes the seed and returns its :data:`Verdict`; the
    registered function, under the body's name, times it and returns the
    :class:`CriterionResult`.
    """

    def register(body):
        @functools.wraps(body)
        def run(seed: int = DEFAULT_SEED) -> CriterionResult:
            t0 = time.perf_counter()
            passed, measured, expected = body(seed)
            return CriterionResult(cid, name, bool(passed), measured, expected, time.perf_counter() - t0)

        run.cid = cid
        SUITES.setdefault(suite, []).append(run)
        bisect.insort(SUITES["all"], run, key=lambda fn: int(fn.cid[1:]))
        return run

    return register


def _records(families: list[str], horizons: list[int], reps: int, seed: int, **toggles) -> list[dict]:
    """The rows of one :func:`experiments.run` (``toggles`` as for
    :class:`experiments.ExperimentSpec`), in (family, t, rep) order; raises
    on a row with an ``error``.  A horizon-``t`` graph has at most ``t``
    vertices, and the certified bracket searches each at most once, so a
    budget of the last horizon makes every diameter exact."""
    spec = experiments.ExperimentSpec(families, horizons, reps, seed, refine_budget=horizons[-1], **toggles)
    rows = experiments.run(spec)
    for row in rows:
        if row["error"]:
            raise RuntimeError(f"record {row['family']} t={row['t']} rep {row['rep']}: {row['error']}")
    return rows


def _replicates(measure, f, t: int, reps: int, seed: int) -> np.ndarray:
    """``measure`` of ``reps`` evolved graphs as floats; replicate ``r`` is
    evolved from ``child_seed(seed, r)``."""
    return np.array([measure(evolve(f, t, _rng.child_seed(seed, r))) for r in range(reps)], dtype=float)


# -- C1 / C2: oracle ----------------------------------------------------------


@criterion("C1", "oracle-law-equality", "oracle")
def c01_oracle_law_equality(seed: int = DEFAULT_SEED) -> Verdict:
    worst = 0.0
    for f in (constant(0.5), constant(1.0), log_class(1.0)):
        for t in (2, 3, 4):
            a = oracle.enumerate_direct_law(f, t)
            b = oracle.enumerate_collapse_law(f, t)
            if a.total() != 1 or b.total() != 1:
                return (
                    False,
                    f"law mass {float(a.total())}/{float(b.total())}", "mass exactly 1",
                )
            worst = max(worst, oracle.law_distance(a, b))
    return (
        worst < 1e-10,
        f"max TV {worst:.2e}", "TV < 1e-10 on all 9 (f, t) pairs",
    )


def _generator_vs_law(f, t: int, reps: int, seed: int) -> Verdict:
    """``reps`` sampled graphs against the exact law: an outcome outside its
    support fails, and every outcome's count lies within 4 sigma."""
    law = oracle.enumerate_direct_law(f, t)
    counts = oracle.sample_direct_law(f, t, reps, seed)
    foreign = set(counts) - set(law.probs)
    if foreign:
        return (
            False,
            f"{len(foreign)} outcomes outside the exact support", "no foreign outcomes",
        )
    worst = 0.0
    for key, p in law.probs.items():
        pf = float(p)
        sd = math.sqrt(reps * pf * (1.0 - pf))
        if sd > 0:
            worst = max(worst, abs(counts.get(key, 0) - reps * pf) / sd)
    return (
        worst <= 4.0,
        f"worst outcome z={worst:.2f} over {law.support_size()} outcomes",
        "every canonical-graph frequency within 4 sigma",
    )


@criterion("C2", "generator-vs-oracle", "oracle")
def c02_generator_vs_oracle(seed: int = DEFAULT_SEED) -> Verdict:
    return _generator_vs_law(constant(0.5), 4, 10**6, _rng.child_seed(seed, 2))


@criterion("C19", "generator-vs-oracle-varying-f", "oracle")
def c19_generator_vs_oracle_varying_f(seed: int = DEFAULT_SEED) -> Verdict:
    # log:1 differs at every step 2..5, so a coin that reads f at the wrong
    # step changes the law, which no constant f can show
    return _generator_vs_law(log_class(1.0), 5, 10**6, _rng.child_seed(seed, 19))


# -- C3 / C4 / C5: direct process ----------------------------------------------


def _frozen_state() -> MultiGraph:
    # t = 4 history whose vertex 2 has degree exactly 2
    return MultiGraph(endpoints=np.array([1, 1, 1, 2, 2, 3, 1, 4]), step_type=np.array([True, True, True, True]))


@criterion("C3", "increment-law", "process")
def c03_increment_law(seed: int = DEFAULT_SEED) -> Verdict:
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
    fr = [Fraction(k, 10) for k in range(11)]
    exact_ok = all(
        sum(theory.transition_probs(Fraction(int(d)), int(t), fv)) == 1
        for t in np.unique(np.linspace(1, 1000, 100).astype(int))
        for d in np.unique(np.linspace(1, 2 * int(t), 100).astype(int))
        for fv in fr
    )
    return (
        empirical_ok and exact_ok,
        f"freqs {tuple(round(float(x), 5) for x in freqs)}, worst z={worst:.2f}, grid exact={exact_ok}",
        f"{expected} within 3 sigma; grid sums exactly 1",
    )


@criterion("C4", "expected-degree", "process")
def c04_expected_degree(seed: int = DEFAULT_SEED) -> Verdict:
    f, t0, t, reps = constant(0.5), 10, 2000, 10**4
    batch = evolve_batch(f, t, reps, _rng.child_seed(seed, 4), force_coin={t0: True})
    vid = 1 + batch.z[:, : t0 - 1].sum(axis=1)
    degs = (batch.endpoints == vid[:, None]).sum(axis=1)
    mean = float(degs.mean())
    sem = float(degs.std(ddof=1)) / math.sqrt(reps)
    want = theory.expected_degree(f, t0, t)
    z = abs(mean - want) / sem
    return (
        z <= 3.0,
        f"mean {mean:.3f} vs product {want:.3f} (z={z:.2f})",
        "sample mean within 3 standard errors of the exact product",
    )


@criterion("C5", "vertex-count", "process")
def c05_vertex_count(seed: int = DEFAULT_SEED) -> Verdict:
    f, t, reps = constant(0.5), 10**5, 200
    counts = _replicates(lambda g: g.n_vertices, f, t, reps, _rng.child_seed(seed, 5))
    want = f.partial_sum(t)
    sigma = math.sqrt((t - 1) * 0.25 / reps)
    z = abs(counts.mean() - want) / sigma
    return (
        z <= 4.0,
        f"mean V {counts.mean():.1f} vs F(t) {want:.1f} (z={z:.2f})",
        "mean within 4 sigma of the prefix sum",
    )


# -- C6 / C7: coupling -----------------------------------------------------------


@criterion("C6", "tv-coupling", "coupling")
def c06_tv_coupling(seed: int = DEFAULT_SEED) -> Verdict:
    t, reps = 10**3, 10**4
    f = constant(0.3)
    values = np.full(t - 1, 0.3)
    values[8:18] += 0.01  # times 10..19
    h = tabulated(values)
    tv = coupling.tv_upper_bound(f, h, t)
    bound = tv + 3.0 * math.sqrt(tv * (1 - tv) / reps)
    frac = coupling.empirical_disagreement(f, h, t, reps, _rng.child_seed(seed, 6))
    return (
        frac <= bound and abs(tv - 0.1) < 1e-9,
        f"disagreement {frac:.4f}, truncated L1 {tv:.4f}",
        f"disagreement <= {bound:.4f}",
    )


@criterion("C7", "samplewise-monotonicity", "coupling")
def c07_samplewise_monotonicity(seed: int = DEFAULT_SEED) -> Verdict:
    t, reps = 10**4, 10**3
    rows = _records(
        ["const:0.3", "const:0.7"], [t], reps, _rng.child_seed(seed, 7),
        coupled=True, clique=False, paths=False,
    )
    # const:0.3's rows come first: row 0 of each column is f, row 1 is h
    keys = ("n_vertices", "max_degree", "diameter_lower")
    v, dmax, diam = (np.reshape([row[k] for row in rows], (2, reps)) for k in keys)
    bad = int(np.count_nonzero((v[0] > v[1]) | (dmax[0] < dmax[1]) | (diam[0] > diam[1])))
    return (
        bad == 0,
        f"{reps - bad}/{reps} samples ordered (diam, Dmax, V)",
        "orderings hold in 100% of coupled samples",
    )


# -- C8 / C9 / C10 / C11 / C15: scaling ------------------------------------------


@criterion("C8", "ba-diameter-envelope", "scaling")
def c08_ba_diameter_envelope(seed: int = DEFAULT_SEED) -> Verdict:
    t, reps = 10**5, 50
    rows = _records(["ba"], [t], reps, _rng.child_seed(seed, 8), clique=False, paths=False)
    # the paper's O(log t) with the constant it carries for the tree
    c = theory.TREE_DIAMETER_CONSTANT
    upper = c * rows[0]["theory_diam_upper_a"]
    lower = rows[0]["theory_diam_lower"]
    diams = np.array([row["diameter_lower"] for row in rows])
    n_upper = int(np.count_nonzero(diams <= upper))
    n_lower = int(np.count_nonzero(diams >= lower))
    return (
        n_upper >= 49 and n_lower == reps,
        f"diam in [{diams.min()}, {diams.max()}], <= {c:.2f} log t in {n_upper}/{reps}",
        f"<= {c:.2f} log t = {upper:.1f} in >=49/50 and >= {lower:.2f} in 50/50",
    )


def _clique_feasible(row: dict) -> bool:
    k = row["clique_greedy"]
    return k * (k - 1) // 2 <= row["simple_edges"] and k <= row["theory_clique_upper"]


@criterion("C9", "rv-bounded-diameter", "scaling")
def c09_rv_bounded_diameter(seed: int = DEFAULT_SEED) -> Verdict:
    horizons = [10**4, 10**5, 10**6]
    rows = _records(["rv:0.5"], horizons, 20, _rng.child_seed(seed, 9), paths=False)
    # the constant band of a regularly varying schedule is the same at every t
    lo_band, hi_band = 1.0, rows[0]["theory_rv_upper"]
    all_in_band = all(lo_band <= row["diameter_lower"] <= hi_band for row in rows)
    feasible = all(_clique_feasible(row) for row in rows)
    medians = {t: float(np.median([r["diameter_lower"] for r in rows if r["t"] == t])) for t in horizons}
    drift_ok = medians[10**6] <= medians[10**4] + 1.0
    return (
        all_in_band and drift_ok and feasible,
        f"medians {medians}, band ok={all_in_band}",
        f"diameters within [1, {hi_band:.0f}], median drift <= 1 per two decades",
    )


@criterion("C10", "clique-upper-bound", "scaling")
def c10_clique_upper_bound(seed: int = DEFAULT_SEED) -> Verdict:
    base = _rng.child_seed(seed, 10)
    families = [constant(0.3), constant(0.7), rv_power(0.5), log_class(1.0), ba(), oscillating(10)]
    rows = [
        experiments.record({}, evolve(f, t, _rng.child_seed(base, 100 * i + 10 * j + r)), f.name,
                           diameter=False, paths=False)
        for i, f in enumerate(families) for j, t in enumerate((10**3, 10**4)) for r in range(3)
    ]
    checked, violations = len(rows), sum(not _clique_feasible(row) for row in rows)
    return (
        violations == 0,
        f"{checked - violations}/{checked} graphs satisfy k(k-1)/2 <= simple edges",
        "every reported clique feasible, hence k <= 7 sqrt(t)",
    )


@criterion("C11", "clique-growth-slope", "scaling")
def c11_clique_growth_slope(seed: int = DEFAULT_SEED) -> Verdict:
    horizons = [10**4, 10**5, 10**6]
    reps = 10
    rows = _records(
        ["rv:0.5"], horizons, reps, _rng.child_seed(seed, 11),
        diameter=False, paths=False, clique_exact=True,
    )
    feasible = all(_clique_feasible(row) for row in rows)
    n_exact = sum(row["clique_exact_status"] == "exact" for row in rows)
    # the rows, and so the fit's points, are t-major (log t, log k) pairs
    xs = np.repeat([math.log(t) for t in horizons], reps)
    slope = float(np.polyfit(xs, [math.log(r["clique_greedy"]) for r in rows], 1)[0])
    exact_slope = float(np.polyfit(xs, [math.log(r["clique_exact"]) for r in rows], 1)[0])
    return (
        0.15 <= slope <= 0.35 and feasible,
        f"log-log slope {slope:.3f} (exact omega: {exact_slope:.3f}, "
        f"{n_exact}/{len(rows)} searches exact)",
        "slope within [0.15, 0.35] (theory exponent 0.25)",
    )


@criterion("C15", "oscillating-regime", "scaling")
def c15_oscillating_regime(seed: int = DEFAULT_SEED) -> Verdict:
    f = oscillating(30)
    t_dense = 30 * 30 - 1      # last step of the edge-only plateau
    t_tree = 30**4             # last step of the following vertex plateau
    threshold = math.log(t_tree) / math.log(math.log(t_tree)) / 4.0
    reps = 10
    base = _rng.child_seed(seed, 15)
    dense_diams, tree_lbs = [], []
    for r in range(reps):
        rseed = _rng.child_seed(base, r)
        # exact on the dense plateau; the tree plateau's lower bound needs no search
        for out, t, budget in ((dense_diams, t_dense, t_dense), (tree_lbs, t_tree, 0)):
            g = evolve(f, t, rseed)
            row = experiments.record({}, g, f.name, clique=False, paths=False, refine_budget=budget)
            out.append(row["diameter_lower"])
    dense_pass = sum(d <= 3 for d in dense_diams)
    tree_pass = sum(lb >= threshold for lb in tree_lbs)
    return (
        dense_pass >= 9 and tree_pass >= 9,
        f"dense diam {sorted(dense_diams)} (<=3 in {dense_pass}/10), "
        f"tree lb {sorted(tree_lbs)} (>= {threshold:.2f} in {tree_pass}/10)",
        "dense plateau diam <= 3 and tree plateau diam >= threshold, each >= 9/10",
    )


# -- C12 / C13: path moments -------------------------------------------------------


@criterion("C12", "isolated-path-moment", "paths")
def c12_isolated_path_moment(seed: int = DEFAULT_SEED) -> Verdict:
    f, t, l, xi, reps = constant(0.5), 2000, 2, 0.5, 10**3
    counts = _replicates(
        lambda g: ob.count_isolated_in_window(g, l, xi), f, t, reps, _rng.child_seed(seed, 12)
    )
    lb = theory.isolated_path_mean_lb(f, t, l, xi)
    sem = counts.std(ddof=1) / math.sqrt(reps)
    ok = counts.mean() >= lb - 3.0 * sem
    return (
        ok,
        f"mean count {counts.mean():.4f} (sem {sem:.4f}) vs bound {lb:.4f}",
        "empirical mean >= lower bound - 3 sigma (one-sided)",
    )


@criterion("C13", "vertex-path-moment", "paths")
def c13_vertex_path_moment(seed: int = DEFAULT_SEED) -> Verdict:
    f, t, k, reps = constant(0.3), 10**4, 4, 10**3
    t0 = theory.t13(t)
    counts = _replicates(
        lambda g: ob.count_vertex_paths(g, t0, k), f, t, reps, _rng.child_seed(seed, 13)
    )
    ub = theory.vertex_path_mean_ub(f, t0, t, k)
    sem = counts.std(ddof=1) / math.sqrt(reps)
    ok = counts.mean() <= ub + 3.0 * sem
    return (
        ok,
        f"mean count {counts.mean():.1f} (sem {sem:.2f}) vs bound {ub:.1f} at t0={t0}",
        "empirical mean <= upper bound + 3 sigma (one-sided)",
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
    a, b = np.array(list(pairs), dtype=np.int64).T
    return ob._view_from_pairs(n, a, b)


def floyd_warshall_diameter(view: ob.SimpleView) -> int:
    """Independent all-pairs oracle by min-plus relaxation."""
    n = view.n
    dist = np.full((n, n), 10**6, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    dist[np.repeat(np.arange(n), view.degrees()), view.indices] = 1
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


@criterion("C14", "observable-oracles", "observables")
def c14_observable_oracles(seed: int = DEFAULT_SEED) -> Verdict:
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
    line = MultiGraph(endpoints=np.array([1, 1, 1, 2, 2, 3]), step_type=np.array([True, True, True]))
    two = MultiGraph(
        endpoints=np.array([1, 1, 1, 2, 2, 3, 3, 4, 1, 5, 5, 6, 6, 7, 7, 8]),
        step_type=np.ones(8, dtype=bool),
    )
    loops = evolve(constant(0.0), 50, _rng.child_seed(seed, 140))
    fixtures_ok = (
        ob.isolated_paths(line, line.degrees()) == Counter({2: 1})
        and ob.isolated_paths(two, two.degrees()) == Counter({3: 1, 4: 1})
        and ob.isolated_paths(loops, loops.degrees()) == Counter()
    )
    ok = diam_bad == 0 and clique_bad == 0 and fixtures_ok
    return (
        ok,
        f"diameter mismatches {diam_bad}/100, clique mismatches {clique_bad}/50, "
        f"fixtures ok={fixtures_ok}",
        "all oracle comparisons exact",
    )


# -- C16: performance -----------------------------------------------------------------


@criterion("C16", "performance", "performance")
def c16_performance(seed: int = DEFAULT_SEED) -> Verdict:
    f = constant(0.5)
    evolve(f, 10**4, seed)  # warm-up
    t0 = time.perf_counter()
    evolve(f, 10**6, _rng.child_seed(seed, 16))
    t_small = time.perf_counter() - t0
    t0 = time.perf_counter()
    evolve(f, 10**7, _rng.child_seed(seed, 160))
    t_big = time.perf_counter() - t0
    return (
        t_small < 5.0 and t_big < 60.0,
        f"t=1e6 in {t_small:.2f}s, t=1e7 in {t_big:.2f}s",
        "under 5s and 60s single-worker",
    )


# -- suites ------------------------------------------------------------------


def suite_criteria(name: str) -> list:
    """The criteria of a named suite; raises ValueError for unknown names."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return SUITES[name]


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Execute a named suite; raises ValueError for unknown names."""
    return [fn(seed) for fn in suite_criteria(name)]
