"""Query clustering tests (paper §5.4).

``cluster_queries`` takes index masks; most tests here state index sets
and go through the oracle encoder, decoding each cluster's mask back.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import QueryCluster, cluster_queries, kmeans
from repro.core.scheduler import MAX_DP_INPUT
from repro.errors import SchedulerError
from tests.oracles import (
    cluster_queries_reference,
    decode_mask,
    encode_bitmasks,
    kmeans_reference,
)
from tests.oracles.clustering import SetCluster, index_vectors


def _clusters(queries, index_map, *, unused=frozenset(), **options):
    """``cluster_queries`` on index sets, each cluster's mask decoded.

    The universe also holds the ``unused`` indexes, which no query
    needs, as a configuration's universe may."""
    masks, universe = encode_bitmasks(
        [*queries, None], {**index_map, None: frozenset(unused)}
    )
    return [
        SetCluster(cluster.queries, decode_mask(cluster.indexes, universe))
        for cluster in cluster_queries(queries, masks, **options)
    ]


class TestIndexVectors:
    def test_binary_matrix(self):
        index_map = {"q1": frozenset({"a"}), "q2": frozenset({"a", "b"})}
        matrix, indexes = index_vectors(["q1", "q2"], index_map)
        assert matrix.shape == (2, 2)
        assert indexes == ["a", "b"]
        assert matrix.tolist() == [[1.0, 0.0], [1.0, 1.0]]

    def test_queries_without_indexes(self):
        matrix, indexes = index_vectors(["q"], {})
        assert matrix.shape == (1, 1)
        assert indexes == []


class TestKMeans:
    def test_k_at_least_points_identity(self):
        points = np.array([[0.0], [1.0]])
        labels = kmeans(points, 5)
        assert list(labels) == [0, 1]

    def test_invalid_k(self):
        with pytest.raises(SchedulerError):
            kmeans(np.zeros((3, 1)), 0)

    def test_separable_clusters_found(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
        labels = kmeans(points, 2, seed=1)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_deterministic_for_seed(self):
        points = np.random.default_rng(0).random((20, 3))
        assert np.array_equal(kmeans(points, 4, seed=7), kmeans(points, 4, seed=7))

    def test_identical_points_handled(self):
        points = np.ones((6, 2))
        labels = kmeans(points, 2, seed=0)
        assert len(labels) == 6


def _assert_labels_match_reference(points, k, seed):
    labels = kmeans(points, k, seed=seed)
    assert labels.tolist() == kmeans_reference(points, k, seed=seed).tolist()


class TestKMeansMatchesReference:
    """The one-pass center update and the running k-means++ minimum
    against K-means as first written (``tests/oracles/clustering.py``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 32),
        st.sampled_from([0.05, 0.2, 0.5, 0.8]),
        st.integers(1, MAX_DP_INPUT),
        st.integers(0, 2**32 - 1),
    )
    def test_binary_points(self, rows, columns, density, k, seed):
        """Index vectors, as ``cluster_queries`` builds them; few
        columns or low density give duplicate rows, and k >= rows
        returns before seeding."""
        rng = np.random.default_rng(seed)
        points = (rng.random((rows, columns)) < density).astype(float)
        _assert_labels_match_reference(points, k, seed % 97)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 8),
        st.integers(1, MAX_DP_INPUT),
        st.integers(0, 2**32 - 1),
    )
    def test_real_valued_points(self, rows, columns, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((rows, columns)) * rng.uniform(0.1, 100.0)
        _assert_labels_match_reference(points, k, seed % 97)

    @pytest.mark.parametrize("k", range(1, MAX_DP_INPUT + 1))
    def test_every_cap_on_captured_shape(self, k):
        """k = 1..13 over 33 distinct signatures of 32 indexes, the
        largest K-means input captured from JOB tunes."""
        rng = np.random.default_rng(k)
        points = np.unique(rng.random((40, 32)) < 0.35, axis=0)[:33]
        _assert_labels_match_reference(points.astype(float), k, k)

    @pytest.mark.parametrize("k", [2, 5, MAX_DP_INPUT])
    def test_all_equal_rows(self, k):
        """Every squared distance is 0 after the first center, so
        k-means++ takes its arbitrary-pick branch."""
        points = np.tile([1.0, 0.0, 1.0], (k + 4, 1))
        _assert_labels_match_reference(points, k, 3)

    def test_duplicate_rows_and_k_at_least_rows(self):
        points = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        for k in (1, 2, 3, 4, 9):
            _assert_labels_match_reference(points, k, 0)


class TestClusterQueries:
    def test_empty(self):
        assert cluster_queries([], {}) == []
        assert _clusters([], {}) == []

    def test_identical_signatures_merge(self):
        """The paper's q1:A, q2:A example -- one cluster labelled A."""
        index_map = {"q1": frozenset({"a"}), "q2": frozenset({"a"})}
        clusters = _clusters(["q1", "q2"], index_map)
        assert len(clusters) == 1
        assert set(clusters[0].queries) == {"q1", "q2"}
        assert clusters[0].indexes == frozenset({"a"})

    def test_distinct_signatures_stay_apart_under_cap(self):
        index_map = {
            "q1": frozenset({"a"}),
            "q2": frozenset({"b"}),
            "q3": frozenset(),
        }
        clusters = _clusters(["q1", "q2", "q3"], index_map)
        assert len(clusters) == 3

    def test_cap_enforced(self):
        index_map = {
            f"q{i}": frozenset({f"i{i}"}) for i in range(MAX_DP_INPUT + 10)
        }
        clusters = _clusters(list(index_map), index_map)
        assert len(clusters) <= MAX_DP_INPUT

    def test_all_queries_assigned_exactly_once(self):
        index_map = {
            f"q{i}": frozenset({f"i{i % 20}", f"i{(i * 7) % 20}"})
            for i in range(40)
        }
        clusters = _clusters(list(index_map), index_map, max_clusters=5)
        assigned = [query for cluster in clusters for query in cluster.queries]
        assert sorted(assigned) == sorted(index_map)

    def test_cluster_indexes_are_union_of_members(self):
        index_map = {
            f"q{i}": frozenset({f"i{i % 18}"}) for i in range(30)
        }
        clusters = _clusters(list(index_map), index_map, max_clusters=4)
        for cluster in clusters:
            union = frozenset().union(
                *(index_map[query] for query in cluster.queries)
            )
            assert cluster.indexes == union

    def test_deterministic(self):
        index_map = {
            f"q{i}": frozenset({f"i{(i * 3) % 17}"}) for i in range(25)
        }
        a = _clusters(list(index_map), index_map, max_clusters=6, seed=2)
        b = _clusters(list(index_map), index_map, max_clusters=6, seed=2)
        assert [c.queries for c in a] == [c.queries for c in b]

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 30),
            st.frozensets(st.integers(0, 8), max_size=4),
            max_size=30,
        ),
        st.integers(min_value=1, max_value=MAX_DP_INPUT),
    )
    def test_partition_property(self, raw_map, cap):
        index_map = {f"q{k}": v for k, v in raw_map.items()}
        clusters = _clusters(list(index_map), index_map, max_clusters=cap)
        assert len(clusters) <= max(cap, 1)
        assigned = [q for cluster in clusters for q in cluster.queries]
        assert sorted(assigned) == sorted(index_map)


    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 30),
            st.frozensets(st.integers(0, 8), max_size=4),
            max_size=30,
        ),
        st.integers(min_value=1, max_value=MAX_DP_INPUT),
        st.integers(0, 3),
    )
    def test_warm_label_memo_matches_cold(self, raw_map, cap, seed):
        """The memo holds only labels; handles are regrouped per call, so
        other handles with the same signatures hit and stay exact."""
        index_map = {f"q{k}": v for k, v in raw_map.items()}
        renamed = {f"r{k}": v for k, v in raw_map.items()}
        memo: dict = {}
        for mapping in (index_map, index_map, renamed):
            cold = _clusters(
                list(mapping), mapping, max_clusters=cap, seed=seed
            )
            warm = _clusters(
                list(mapping), mapping, max_clusters=cap, seed=seed, memo=memo
            )
            assert warm == cold
        assert len(memo) <= 1

    def test_warm_label_memo_skips_kmeans(self, monkeypatch):
        import repro.core.clustering as clustering_module

        index_map = {
            f"q{i}": frozenset({f"i{(i * 3) % 17}"}) for i in range(25)
        }
        memo: dict = {}
        cold = _clusters(
            list(index_map), index_map, max_clusters=6, seed=2, memo=memo
        )
        assert len(memo) == 1

        def no_kmeans(*args, **kwargs):
            raise AssertionError("K-means ran on a warm memo")

        monkeypatch.setattr(clustering_module, "kmeans", no_kmeans)
        warm = _clusters(
            list(index_map), index_map, max_clusters=6, seed=2, memo=memo
        )
        assert warm == cold
        with pytest.raises(AssertionError, match="warm memo"):
            _clusters(
                list(index_map), index_map, max_clusters=6, seed=3, memo=memo
            )

    def test_label_memo_shared_across_universes(self):
        """Unused universe bits between the used ones pack away, so the
        same signatures in a wider universe hit the same labels."""
        index_map = {
            f"q{i}": frozenset({f"i{(i * 3) % 17:02d}"}) for i in range(25)
        }
        unused = frozenset(f"i{k:02d}x" for k in range(17))
        memo: dict = {}
        narrow = _clusters(
            list(index_map), index_map, max_clusters=6, seed=2, memo=memo
        )
        wide = _clusters(
            list(index_map), index_map, unused=unused, max_clusters=6, seed=2,
            memo=memo,
        )
        assert len(memo) == 1
        assert wide == narrow


class TestMatchesSetOracle:
    """Mask clustering, decoded, against the frozenset formulation in
    ``tests/oracles/clustering.py``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 40),
            st.frozensets(st.integers(0, 24), max_size=6),
            max_size=40,
        ),
        st.frozensets(st.integers(0, 30), max_size=4),
        st.integers(min_value=1, max_value=MAX_DP_INPUT),
        st.integers(0, 3),
        st.booleans(),
    )
    def test_decoded_clusters_equal_oracle(
        self, raw_map, unused, cap, seed, text_labels
    ):
        """Integer labels sort by ``str`` (``10 < 2``), not by value;
        text labels sort the same way as their own order."""
        label = str if text_labels else int
        index_map = {
            f"q{k}": frozenset(label(i) for i in v) for k, v in raw_map.items()
        }
        unused = frozenset(label(i) for i in unused)
        queries = list(index_map)
        expected = cluster_queries_reference(
            queries, index_map, max_clusters=cap, seed=seed
        )
        assert _clusters(
            queries, index_map, unused=unused, max_clusters=cap, seed=seed
        ) == expected
        assert _clusters(
            queries, index_map, unused=unused, max_clusters=cap, seed=seed, memo={}
        ) == expected


class TestQueryClusterObject:
    def test_hashable(self):
        cluster = QueryCluster(queries=["a"], indexes=0b1)
        assert hash(cluster) == hash(QueryCluster(queries=["a"]))
