"""Reference implementations that the production code is compared with.

``src/`` keeps one implementation per layer.  The slower, literal
statements of the same layers live here, used only by the tests and
the ``benchmarks/`` suite:

- :mod:`.scheduler` -- Algorithm 4 over dict/frozenset states, a
  brute-force order oracle, and the encoder between index sets and the
  masks ``src/`` schedules on;
- :mod:`.clustering` -- clustering over frozenset index signatures,
  and K-means with one masked mean per center;
- :mod:`.planner` -- the scalar planner, ``plan_many`` one query at a
  time;
- :mod:`.evaluator` -- index relevance pair by pair, and Algorithm 3
  one query at a time;
- :func:`reference_mode` -- runs whole tunes on the evaluator, DP,
  K-means and planner oracles.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.cache import install_cache
from repro.core import clustering as clustering_module
from repro.core import evaluator as evaluator_module
from repro.core.evaluator import ConfigurationEvaluator
from repro.db.planner import Planner
from tests.oracles.clustering import cluster_queries_reference, kmeans_reference
from tests.oracles.evaluator import (
    decode_index_map,
    evaluate_scalar,
    query_index_map_reference,
)
from tests.oracles.planner import plan_many_scalar
from tests.oracles.scheduler import (
    brute_force_order,
    compute_order_dp_adapter,
    compute_order_dp_reference,
    compute_order_dp_sets,
    decode_mask,
    encode_bitmasks,
)

__all__ = [
    "brute_force_order",
    "cluster_queries_reference",
    "compute_order_dp_reference",
    "compute_order_dp_sets",
    "decode_index_map",
    "decode_mask",
    "encode_bitmasks",
    "evaluate_scalar",
    "kmeans_reference",
    "plan_many_scalar",
    "query_index_map_reference",
    "reference_mode",
]


@contextmanager
def reference_mode():
    """Run everything inside the block on the reference implementations.

    ``ConfigurationEvaluator.evaluate`` becomes :func:`evaluate_scalar`,
    whose lazy builds read :func:`query_index_map_reference`, the
    evaluator's DP becomes :func:`compute_order_dp_reference` on decoded
    masks, clustering's K-means becomes :func:`kmeans_reference`, every
    ``Planner.plan_many`` batch is planned per query by the scalar
    planner (:func:`plan_many_scalar`), and the persistent artifact
    cache is off.  Memoization belongs to the engine: build it with
    ``caches=False`` for an uncached reference.  The switch patches
    module and class attributes, so it is not thread-safe.
    """
    saved = (
        evaluator_module.compute_order_dp,
        clustering_module.kmeans,
        ConfigurationEvaluator.evaluate,
        Planner.plan_many,
    )
    previous_cache = install_cache(None)
    evaluator_module.compute_order_dp = compute_order_dp_adapter
    clustering_module.kmeans = kmeans_reference
    ConfigurationEvaluator.evaluate = evaluate_scalar
    Planner.plan_many = plan_many_scalar
    try:
        yield
    finally:
        (
            evaluator_module.compute_order_dp,
            clustering_module.kmeans,
            ConfigurationEvaluator.evaluate,
            Planner.plan_many,
        ) = saved
        install_cache(previous_cache)
