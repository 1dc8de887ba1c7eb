"""Preferential-attachment multigraphs driven by an edge-step function.

The package provides the direct graph process, the doubly-labeled tree
coupling that generates every edge-step function's graph from one source
of randomness, graph observables (diameter, cliques, degree statistics,
isolated chains, vertex paths), closed-form theory evaluators, an exact
small-instance law oracle, and an experiment/verification harness.
"""

from .coupling import (
    DoublyLabeledTree,
    collapse,
    empirical_disagreement,
    grow_tree,
    tv_upper_bound,
)
from .edgestep import (
    EdgeStepFunction,
    ba,
    constant,
    exp_class,
    log_class,
    make_family,
    oscillating,
    rv_power,
    tabulated,
)
from .graphs import (
    EDGE,
    VERTEX,
    MultiGraph,
    canonical_form,
    canonical_key,
    dump_graph,
    dumps_graph,
    evolve,
    evolve_batch,
    evolve_step,
    load_graph,
    new_initial,
    sample_preferential,
)
from .observables import (
    ObservableReport,
    SimpleView,
    clique_exact,
    clique_greedy,
    count_isolated_in_window,
    count_vertex_paths,
    degree_histogram,
    diameter_bounds,
    isolated_chains,
    isolated_paths,
    max_degree,
    max_vertex_path,
    measure_graph,
    simple_view,
)
from .oracle import (
    GraphLaw,
    enumerate_collapse_law,
    enumerate_direct_law,
    law_distance,
    sample_direct_law,
)
from .theory import (
    BoundSet,
    clique_theory,
    diameter_theory,
    expected_degree,
    isolated_path_mean_lb,
    transition_probs,
    vertex_path_mean_ub,
    vertex_path_prob_ub,
)

__version__ = "0.1.0"
