"""Two-stage retrieval tests: index determinism, typed staleness
degradation through the serving ladder, and index-synced promotion.

The three contracts under test:

* **determinism** — same seed + same vectors ⇒ bitwise-identical index
  contents (fingerprints), candidate sets, and recall, across rebuilds
  and against a frozen reference build (``ReferenceIvf``);
* **typed degradation** — a stale, missing, or fault-injected index never
  surfaces as an exception or an empty response: the candidate rung
  raises :class:`IndexStaleError`, the ladder answers through the exact
  rung, and the outcome is ``degraded``;
* **atomic promotion** — ``ModelRegistry.promote`` rebuilds the index
  against the candidate's embedding generation before the swap, so no
  live model ever pairs an index from one generation with embeddings
  from another.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ManualClock
from repro.core.exceptions import (
    ConfigError,
    IndexStaleError,
    PromotionError,
    RetrievalError,
)
from repro.data import MOVIE_SCHEMA, generate_dataset
from repro.kg.triples import TripleStore
from repro.kge.translational import TransE
from repro.retrieval import (
    ArrayEmbeddingRecommender,
    IvfIndex,
    TwoStageRecommender,
    exact_topk,
    recall_at_k,
)
import repro.retrieval.ivf as ivf
from repro.retrieval.base import pairwise_scores
from repro.retrieval.ivf import (
    PROBE_BUDGET,
    PROBE_FLOOR,
    RECALL_TARGET,
    _cell_order,
)
from repro.runtime.faults import Fault, FaultInjector, FaultPlan
from repro.runtime.guards import validate_scores
from repro.serving import RecommenderService, ServeRequest
from repro.store import MmapShardStore, StoredEmbeddingRecommender
from repro.telemetry import Telemetry, activated

KINDS = {"ivf": IvfIndex}


def shape_builds(monkeypatch, lists=None, rounds=None, train_size=None):
    """Pin the builds' cell count (capped at the row count as the
    default is), cold k-means rounds or training-subsample cap."""
    if lists is not None:
        monkeypatch.setattr(ivf, "_num_lists", lambda n: min(lists, n))
    if rounds is not None:
        monkeypatch.setattr(ivf, "_COLD_ROUNDS", rounds)
    if train_size is not None:
        monkeypatch.setattr(ivf, "_TRAIN_SIZE", train_size)


def clustered(num_rows, dim, seed, num_centers=16, spread=0.25):
    """Mixture-of-Gaussians vectors — the geometry learned embeddings have."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_centers, dim))
    rows = centers[rng.integers(num_centers, size=num_rows)]
    return (rows + spread * rng.standard_normal((num_rows, dim))).astype(np.float32)


def assert_search_contract(index, queries, n, ks):
    """Strictly increasing int64 ids inside ``[0, n)``, at least
    ``min(k, n)`` of them, for every query and k."""
    for k in ks:
        for q in queries:
            ids = index.search(q, k)
            assert ids.dtype == np.int64
            assert ids.size >= min(k, n)
            assert np.all(ids[1:] > ids[:-1])
            assert 0 <= ids[0] and ids[-1] < n


@pytest.fixture(scope="module")
def catalog():
    items = clustered(600, 16, seed=1)
    queries = clustered(8, 16, seed=2)
    return items, queries


# ---------------------------------------------------------------------- #
# determinism + the index contract
# ---------------------------------------------------------------------- #
class TestIndexDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_seed_same_vectors_is_bitwise_identical(self, kind, catalog):
        items, queries = catalog
        first = KINDS[kind](seed=3).build(items, generation=5)
        second = KINDS[kind](seed=3).build(items, generation=5)
        assert first.fingerprint() == second.fingerprint()
        # The calibrated probe count and its estimate rebuild too.
        assert (first.nprobe, first.estimated_recall) == (
            second.nprobe, second.estimated_recall
        )
        truth = [exact_topk(items, q, 10) for q in queries]
        recalls = []
        for q, true_ids in zip(queries, truth):
            a, b = first.search(q, 64), second.search(q, 64)
            assert np.array_equal(a, b)
            recalls.append(recall_at_k(a, true_ids))
        again = [
            recall_at_k(second.search(q, 64), t) for q, t in zip(queries, truth)
        ]
        assert recalls == again  # reported recall identical across builds

    @pytest.mark.parametrize("kind", KINDS)
    def test_different_seed_differs(self, kind, catalog):
        items, __ = catalog
        assert (
            KINDS[kind](seed=0).build(items).fingerprint()
            != KINDS[kind](seed=1).build(items).fingerprint()
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_search_contract(self, kind, catalog):
        """Strictly increasing int64 ids inside ``[0, n)``, at least k of
        them whenever possible — the order the serving guard relies on
        for speed — over several seeds, sizes and k."""
        items, queries = catalog
        for seed in (0, 1, 2):
            for n in (1, 37, items.shape[0]):
                index = KINDS[kind](seed=seed).build(items[:n])
                assert_search_contract(index, queries, n, (1, 5, 50, n))
        index = KINDS[kind](seed=0).build(items)
        assert index.search(queries[0], items.shape[0]).size == items.shape[0]

    def test_unbuilt_and_invalid_inputs_raise_typed(self):
        index = IvfIndex()
        with pytest.raises(RetrievalError):
            index.search(np.zeros(4, dtype=np.float32), 5)
        with pytest.raises(RetrievalError):
            index.build(np.array([[np.nan, 0.0]], dtype=np.float32))

    def test_generation_is_assigned_last(self, catalog):
        """A failed rebuild leaves the index stale, never half-fresh."""
        items, __ = catalog
        index = IvfIndex(seed=0).build(items, generation=1)
        with pytest.raises(RetrievalError):
            index.build(np.full((10, 16), np.nan, dtype=np.float32), generation=2)
        assert index.generation == 1


# ---------------------------------------------------------------------- #
# the IVF build against its frozen reference
# ---------------------------------------------------------------------- #
class ReferenceIvf(IvfIndex):
    """``IvfIndex`` with the k-means loops as they were first written:
    ``np.add.at`` centroid sums, 65,536-row assignment blocks and a
    separate ``*= -2.0`` pass.  The build must match it bit for bit."""

    @staticmethod
    def _assign(vectors, centroids):
        c_norm = np.einsum("ij,ij->i", centroids, centroids)
        out = np.empty(vectors.shape[0], dtype=np.int64)
        for start in range(0, vectors.shape[0], 65_536):
            block = vectors[start : start + 65_536]
            scores = block @ centroids.T
            scores *= -2.0
            scores += c_norm[None, :]
            out[start : start + 65_536] = np.argmin(scores, axis=1)
        return out

    def _kmeans(self, vectors, num_lists):
        rng = np.random.default_rng(self.seed)
        n = vectors.shape[0]
        train = vectors
        if n > ivf._TRAIN_SIZE:
            take = max(ivf._TRAIN_SIZE, min(n, 64 * num_lists))
            train = vectors[np.sort(rng.choice(n, size=take, replace=False))]
        centroids = train[
            np.sort(rng.choice(train.shape[0], size=num_lists, replace=False))
        ].astype(np.float32, copy=True)
        for __ in range(ivf._COLD_ROUNDS):
            assign = self._assign(train, centroids)
            sums = np.zeros_like(centroids, dtype=np.float64)
            np.add.at(sums, assign, train.astype(np.float64))
            counts = np.bincount(assign, minlength=num_lists)
            filled = counts > 0
            centroids[filled] = (sums[filled] / counts[filled, None]).astype(np.float32)
            empty = np.nonzero(~filled)[0]
            if empty.size:
                dist = np.einsum(
                    "ij,ij->i", train - centroids[assign], train - centroids[assign]
                )
                worst = np.argsort(-dist, kind="stable")[: empty.size]
                centroids[empty] = train[worst]
        return centroids


def duplicated(num_rows, distinct, dim, seed):
    """``num_rows`` rows drawn from only ``distinct`` different vectors."""
    rows = clustered(distinct, dim, seed=seed)
    return rows[np.random.default_rng(seed).integers(distinct, size=num_rows)]


def empty_cells(index):
    return int(np.count_nonzero(np.diff(index._state_arrays()["offsets"]) == 0))


class TestIvfBuildOracle:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("n", (1, 37, 600, 5_000))
    def test_fingerprint_equals_reference(self, seed, n):
        items = clustered(n, 16, seed=10 + seed)
        built = IvfIndex(seed=seed).build(items, generation=3)
        assert built.fingerprint() == ReferenceIvf(seed=seed).build(
            items, generation=3
        ).fingerprint()

    @pytest.mark.parametrize("seed", (0, 1))
    def test_subsample_path_equals_reference(self, seed, monkeypatch):
        items = clustered(5_000, 16, seed=seed)
        shape_builds(monkeypatch, lists=40, train_size=1_000)
        assert IvfIndex(seed=seed).build(items).fingerprint() == (
            ReferenceIvf(seed=seed).build(items).fingerprint()
        )

    @pytest.mark.parametrize("seed", (0, 1))
    def test_cancelling_rows_sum_in_row_order(self, seed, monkeypatch):
        # A +1e12 row first and a -1e12 row last in one cell: the float64
        # centroid sum rounds, so only the reference's row-order
        # accumulation gives the same float32 centroid.
        items = clustered(3_000, 16, seed=seed)
        items[0] = 1e12
        items[-1] = -1e12
        shape_builds(monkeypatch, lists=1)
        assert IvfIndex(seed=seed).build(items).fingerprint() == (
            ReferenceIvf(seed=seed).build(items).fingerprint()
        )

    def test_reseed_path_equals_reference(self, monkeypatch):
        items = duplicated(400, 5, 16, seed=3)
        shape_builds(monkeypatch, lists=20)
        built = IvfIndex(seed=0).build(items)
        assert empty_cells(built) > 0  # the re-seed ran and could not fill all
        assert built.fingerprint() == (
            ReferenceIvf(seed=0).build(items).fingerprint()
        )

    def test_many_lists_span_several_blocks(self, monkeypatch):
        # 2,000 lists give 524-row assignment blocks: four blocks here.
        items = clustered(2_000, 8, seed=5)
        shape_builds(monkeypatch, lists=2_000, rounds=2)
        assert IvfIndex(seed=1).build(items).fingerprint() == (
            ReferenceIvf(seed=1).build(items).fingerprint()
        )

    def test_degenerate_table_leaves_cells_empty_and_meets_search_contract(
        self, monkeypatch
    ):
        """400 rows of 5 distinct vectors in 20 lists: a re-seed cannot
        fill more cells than there are distinct rows, so 15 stay empty,
        and search still returns strictly increasing in-range ids, at
        least ``min(k, n)`` of them."""
        items = duplicated(400, 5, 16, seed=3)
        n = items.shape[0]
        queries = clustered(6, 16, seed=4)
        shape_builds(monkeypatch, lists=20)
        for nprobe in (1, 16):
            index = IvfIndex(seed=0).build(items)
            index.nprobe = nprobe
            assert empty_cells(index) == 15
            assert_search_contract(index, queries, n, (1, 5, n))


class TestCellOrder:
    """The members order: keys cast to int16 when they fit, int64 above."""

    @given(
        num_lists=st.integers(1, 40_000)
        | st.sampled_from([32_766, 32_767, 32_768, 32_769, 65_536]),
        n=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_is_the_stable_int64_argsort(self, num_lists, n, seed):
        assign = np.random.default_rng(seed).integers(num_lists, size=n)
        assign[: min(n, 3)] = num_lists - 1  # the largest key always present
        order = _cell_order(assign, num_lists)
        assert order.dtype == np.int64
        np.testing.assert_array_equal(order, np.argsort(assign, kind="stable"))

    @pytest.mark.parametrize("n", (1, 600, 5_000))
    def test_build_members_are_the_assignment_argsort(self, n):
        items = clustered(n, 16, seed=n)
        index = IvfIndex(seed=0).build(items)
        assign = index._assign(items, index._centroids)
        np.testing.assert_array_equal(
            index._members, np.argsort(assign, kind="stable")
        )


# ---------------------------------------------------------------------- #
# successor (warm-started) builds
# ---------------------------------------------------------------------- #
def drift(items, seed, scale=0.05):
    """``items`` after a small update, like a few batches of training."""
    rng = np.random.default_rng(seed)
    return (items + scale * rng.standard_normal(items.shape)).astype(np.float32)


class TestIvfSuccessor:
    """A warm build changes the index, so it is held to determinism, the
    search contract and recall against a cold build, not to a fingerprint
    oracle.  Cold builds keep theirs (``TestIvfBuildOracle``)."""

    def test_same_config_and_unbuilt(self, catalog):
        items, __ = catalog
        live = IvfIndex(seed=4).build(items)
        live.nprobe = 3
        nxt = live.successor()
        assert not nxt.is_built
        # The seed, the count, the estimate and the start centroids.
        assert nxt.seed == 4
        assert (nxt.nprobe, nxt.estimated_recall) == (3, live.estimated_recall)
        assert nxt._start is live._centroids

    def test_unbuilt_index_has_no_successor(self):
        with pytest.raises(RetrievalError):
            IvfIndex().successor()

    def test_two_successors_build_identically(self, catalog):
        items, __ = catalog
        live = IvfIndex(seed=2).build(items, generation=1)
        moved = drift(items, seed=0)
        first = live.successor().build(moved, generation=2)
        second = live.successor().build(moved, generation=2)
        assert first.fingerprint() == second.fingerprint()
        # A warm build is not the cold one, and leaves the live index be.
        assert first.fingerprint() != IvfIndex(seed=2).build(
            moved, generation=2
        ).fingerprint()
        assert live.fingerprint() == IvfIndex(seed=2).build(
            items, generation=1
        ).fingerprint()

    @pytest.mark.parametrize("n", (400, 37))
    def test_start_that_does_not_fit_builds_cold(self, catalog, n):
        # 600 rows resolve to 24 lists; 400 and 37 rows to 20 and 6.
        items, __ = catalog
        live = IvfIndex(seed=1).build(items)
        built = live.successor().build(items[:n], generation=7)
        assert built.fingerprint() == IvfIndex(seed=1).build(
            items[:n], generation=7
        ).fingerprint()

    def test_other_dim_builds_cold(self, catalog, monkeypatch):
        items, __ = catalog
        shape_builds(monkeypatch, lists=10)
        live = IvfIndex(seed=1).build(items)
        narrow = np.ascontiguousarray(items[:, :8])
        assert live.successor().build(narrow).fingerprint() == (
            IvfIndex(seed=1).build(narrow).fingerprint()
        )

    def test_search_contract(self, catalog, monkeypatch):
        items, queries = catalog
        n = items.shape[0]
        for seed in (0, 1, 2):
            live = IvfIndex(seed=seed).build(items)
            warm = live.successor().build(drift(items, seed))
            assert_search_contract(warm, queries, n, (1, 5, 50, n))
        # Subsampled training keeps its seeded draw on a warm build.
        shape_builds(monkeypatch, lists=4, train_size=200)
        live = IvfIndex(seed=0).build(items)
        warm = live.successor().build(drift(items, 3))
        assert_search_contract(warm, queries, n, (1, 5, 50))

    def test_empty_cells_meet_search_contract(self, monkeypatch):
        # The degenerate table: the warm round re-seeds empty cells the
        # same way a cold round does, and 15 of 20 still stay empty.
        items = duplicated(400, 5, 16, seed=3)
        n = items.shape[0]
        queries = clustered(6, 16, seed=4)
        shape_builds(monkeypatch, lists=20)
        for nprobe in (1, 16):
            live = IvfIndex(seed=0).build(items)
            live.nprobe = nprobe
            warm = live.successor().build(items)
            assert empty_cells(warm) == 15
            assert_search_contract(warm, queries, n, (1, 5, n))

    def test_recall_matches_a_cold_build(self):
        # Few probes over 5,000 rows, so recall is below 1 and can differ.
        items = clustered(5_000, 16, seed=1)
        moved = drift(items, seed=9)
        queries = clustered(64, 16, seed=2)
        truth = [exact_topk(moved, q, 10) for q in queries]

        def recall(index):
            return np.mean(
                [recall_at_k(index.search(q, 64), t) for q, t in zip(queries, truth)]
            )

        warm, cold = [], []
        for seed in (0, 1, 2):
            live = IvfIndex(seed=seed).build(items)
            live.nprobe = 4
            warm.append(recall(live.successor().build(moved)))
            fresh = IvfIndex(seed=seed).build(moved)
            fresh.nprobe = 4
            cold.append(recall(fresh))
        assert np.mean(warm) >= np.mean(cold) - 0.02


# ---------------------------------------------------------------------- #
# recall-targeted probing
# ---------------------------------------------------------------------- #
class TestExactTopk:
    @pytest.mark.parametrize("metric", ("ip",))
    def test_ties_resolve_lowest_id_first(self, metric):
        # Small integer vectors score exactly, so many ids tie bitwise.
        rng = np.random.default_rng(0)
        for __ in range(200):
            n = int(rng.integers(12, 60))
            vectors = rng.integers(-2, 3, size=(n, 4)).astype(np.float32)
            query = rng.integers(-2, 3, size=4).astype(np.float32)
            k = int(rng.integers(1, n + 1))
            scores = pairwise_scores(vectors, query)
            expected = np.argsort(-scores, kind="stable")[:k]
            assert np.array_equal(exact_topk(vectors, query, k), expected)


def oracle_calibration(index, vectors):
    """The calibration by brute force: a full sort per sample row, then
    ``p = floor .. budget`` cells probed through ``_probe_order``."""
    n = vectors.shape[0]
    k = min(10, n - 1)
    if k < 1:
        return 1, 1.0
    offsets, members = index._offsets, index._members
    budget = min(PROBE_BUDGET, offsets.size - 1)
    sample = index._calibration_sample(n)
    found = np.zeros(budget, dtype=np.int64)
    exact = vectors.astype(np.float64)
    for item in sample:
        scores = pairwise_scores(exact, exact[item])
        scores[item] = -np.inf
        truth = np.argsort(-scores, kind="stable")[:k]
        order = index._probe_order(vectors[item])
        for p in range(1, budget + 1):
            cells = [members[offsets[c] : offsets[c + 1]] for c in order[:p]]
            found[p - 1] += np.isin(truth, np.concatenate(cells)).sum()
    recall = found / (sample.size * k)
    floor = min(PROBE_FLOOR, budget)
    met = [p for p in range(floor, budget + 1) if recall[p - 1] >= RECALL_TARGET]
    probes = met[0] if met else budget
    return probes, float(recall[probes - 1])


def mixture_with_queries(num_rows, num_queries, dim, seed, num_centers):
    """Catalog rows and fresh queries drawn from one Gaussian mixture."""
    rows = clustered(num_rows + num_queries, dim, seed, num_centers=num_centers)
    return rows[:num_rows], rows[num_rows:]


class TestProbeCalibration:
    ORACLE_CATALOGS = {
        "clustered": lambda: clustered(3_000, 8, seed=11),
        "gaussian": lambda: np.random.default_rng(12)
        .standard_normal((3_000, 8)).astype(np.float32),
        "n=1": lambda: clustered(1, 8, seed=13),
        "n=5": lambda: clustered(5, 8, seed=14),
        "n=10": lambda: clustered(10, 8, seed=15),
        "n=11": lambda: clustered(11, 8, seed=16),
    }

    @pytest.mark.parametrize("metric", ("ip",))
    @pytest.mark.parametrize("catalog", ORACLE_CATALOGS)
    def test_histogram_picks_the_brute_force_count(self, catalog, metric):
        items = self.ORACLE_CATALOGS[catalog]()
        index = IvfIndex(seed=3).build(items)
        assert index._meta()["metric"] == metric
        assert (index.nprobe, index.estimated_recall) == oracle_calibration(
            index, items
        )

    @pytest.mark.parametrize("metric", ("ip",))
    def test_duplicated_catalog_with_empty_cells(self, metric, monkeypatch):
        items = duplicated(400, 5, 16, seed=3)
        shape_builds(monkeypatch, lists=20)
        index = IvfIndex(seed=0).build(items)
        assert index._meta()["metric"] == metric
        assert empty_cells(index) == 15
        assert (index.nprobe, index.estimated_recall) == oracle_calibration(
            index, items
        )

    def test_counts_span_the_budget(self):
        # The oracle catalogs exercise an early stop and a capped count.
        counts = {
            name: IvfIndex(seed=3).build(make()).nprobe
            for name, make in self.ORACLE_CATALOGS.items()
        }
        assert counts["clustered"] < PROBE_BUDGET
        assert counts["gaussian"] == PROBE_BUDGET
        assert counts["n=1"] == 1

    def test_floor_bounds_the_count_from_below(self, monkeypatch):
        items = self.ORACLE_CATALOGS["clustered"]()
        floored = IvfIndex(seed=3).build(items)
        monkeypatch.setattr(ivf, "PROBE_FLOOR", 1)
        unfloored = IvfIndex(seed=3).build(items)
        # The target is met below the floor, and the floor still holds.
        assert unfloored.nprobe < PROBE_FLOOR == floored.nprobe
        assert floored.estimated_recall >= unfloored.estimated_recall >= RECALL_TARGET

    # -- the recall contract: fresh queries meet the build's estimate ---- #
    def assert_recall_contract(self, index, items, queries):
        recall = np.mean([
            recall_at_k(index.search(q, 10), exact_topk(items, q, 10))
            for q in queries
        ])
        assert recall >= min(RECALL_TARGET, index.estimated_recall) - 0.02

    def test_clustered_1e5_ip(self):
        items, queries = mixture_with_queries(100_000, 100, 32, 0, 256)
        index = IvfIndex(seed=0).build(items)
        self.assert_recall_contract(index, items, queries)

    def test_online_world_bootstrap_is_capped(self, tmp_path):
        from repro.online.harness import ChurnConfig, build_world
        from repro.online.stream import StreamConfig

        config = ChurnConfig(
            model_dim=32, rows_per_shard=1024, k_candidates=128,
            stream=StreamConfig(
                num_users=256, num_items=2_000, warm_users=192,
                warm_items=1_600, session_size=16,
            ),
        )
        world = build_world(tmp_path, 0, config=config)
        live = world.service.registry.live
        items = np.ascontiguousarray(live.base.item_vectors(), dtype=np.float32)
        queries = [
            np.asarray(live.base.query_vector(u), dtype=np.float32)
            for u in range(config.stream.num_users)
        ]
        assert live.index.nprobe == PROBE_BUDGET
        assert live.index.estimated_recall < RECALL_TARGET
        self.assert_recall_contract(live.index, items, queries)
        world.loop.close()

    def test_unclustered_gaussian_is_capped(self):
        rng = np.random.default_rng(2)
        items = rng.standard_normal((20_000, 32)).astype(np.float32)
        queries = rng.standard_normal((200, 32)).astype(np.float32)
        index = IvfIndex(seed=2).build(items)
        assert index.nprobe == PROBE_BUDGET
        assert index.estimated_recall < RECALL_TARGET
        self.assert_recall_contract(index, items, queries)

    # -- everything else a count touches --------------------------------- #
    def test_successor_inherits_the_count(self, catalog, monkeypatch):
        items, __ = catalog
        live = IvfIndex(seed=2).build(items)
        live.nprobe = 5  # a count the drifted table would not calibrate to
        nxt = live.successor()

        def refuse(self, vectors):
            raise AssertionError("a warm build must not calibrate")

        monkeypatch.setattr(IvfIndex, "_calibrate", refuse)
        warm = nxt.build(drift(items, seed=0))
        assert (warm.nprobe, warm.estimated_recall) == (5, live.estimated_recall)

    def test_cold_successor_build_calibrates(self, catalog):
        items, __ = catalog
        live = IvfIndex(seed=1).build(items)
        live.nprobe = 5
        cold = live.successor().build(items[:400])  # 20 lists, not 24
        fresh = IvfIndex(seed=1).build(items[:400])
        assert (cold.nprobe, cold.estimated_recall) == (
            fresh.nprobe, fresh.estimated_recall
        )

    def test_forced_sync_index_recalibrates(self):
        dataset = generate_dataset(MOVIE_SCHEMA, num_users=12, num_items=3_000, seed=0)
        rng = np.random.default_rng(4)
        base = ArrayEmbeddingRecommender(
            clustered(dataset.num_users, 8, seed=7),
            rng.standard_normal((dataset.num_items, 8)),
        )
        model = TwoStageRecommender(base, IvfIndex(seed=0), k_candidates=64)
        model.fit(dataset)
        model.sync_index()
        assert model.index.nprobe == PROBE_BUDGET
        moved = clustered(dataset.num_items, 8, seed=11)
        base.set_embeddings(moved)
        model.sync_index(force=True)
        fresh = IvfIndex(seed=0).build(moved)
        assert model.index.nprobe == fresh.nprobe < PROBE_BUDGET

    def test_build_span_reports_the_calibration(self, catalog):
        items, __ = catalog
        tel = Telemetry()
        with activated(tel):
            index = IvfIndex(seed=3).build(items)
            probes, index.nprobe = index.nprobe, 4
            index.successor().build(drift(items, seed=0))
        calibrated, warm = [
            r.attrs for r in tel.tracer.records() if r.name == "retrieval/build"
        ]
        assert calibrated["start"] == "cold"
        assert calibrated["probes"] == probes
        assert calibrated["estimated_recall"] == index.estimated_recall
        assert calibrated["capped"] is (index.estimated_recall < RECALL_TARGET)
        # A warm build reports the count and estimate it inherited.
        assert warm["start"] == "warm"
        assert (warm["probes"], warm["estimated_recall"]) == (
            4, index.estimated_recall
        )
        assert warm["capped"] is calibrated["capped"]

    def test_calibration_buffers_fit_the_block(self, monkeypatch):
        # A block far smaller than the table forces 47 item blocks.
        block = 256 * 64
        monkeypatch.setattr(ivf, "_BLOCK_SCORES", block)
        items = clustered(3_000, 8, seed=11)
        index = IvfIndex(seed=3).build(items)
        sizes = []
        matmul = np.matmul

        def spy(a, b, out=None):
            sizes.append(out.size if out is not None else a.shape[0] * b.shape[1])
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        probes, recall = index._calibrate(items)
        monkeypatch.undo()
        assert len(sizes) == 47 and max(sizes) <= block
        assert (probes, recall) == oracle_calibration(index, items)


# ---------------------------------------------------------------------- #
# the two-stage wrapper
# ---------------------------------------------------------------------- #
@pytest.fixture()
def two_stage():
    dataset = generate_dataset(MOVIE_SCHEMA, num_users=12, num_items=300, seed=0)
    base = ArrayEmbeddingRecommender(
        clustered(dataset.num_users, 16, seed=7),
        clustered(dataset.num_items, 16, seed=8),
        generation=1,
    )
    model = TwoStageRecommender(base, IvfIndex(seed=0), k_candidates=64)
    model.fit(dataset)
    model.sync_index()
    return dataset, base, model


class TestTwoStage:
    def test_protocol_is_checked_at_init(self, two_stage):
        from repro.models.baselines import MostPopular

        with pytest.raises(ConfigError, match="retrieval protocol"):
            TwoStageRecommender(MostPopular(), IvfIndex())

    def test_candidate_scores_are_exact(self, two_stage):
        dataset, base, model = two_stage
        for user in range(4):
            ids, scores = model.score_candidates(user)
            assert ids.size >= model.k_candidates
            np.testing.assert_array_equal(scores, base.score_all(user)[ids])

    def test_score_all_ranks_candidates_like_the_base(self, two_stage):
        """Among served items the order is exactly the base model's."""
        dataset, base, model = two_stage
        ids, __ = model.score_candidates(2)
        full = model.score_all(2)
        exact = base.score_all(2)
        np.testing.assert_array_equal(full[ids], exact[ids])
        assert full[np.setdiff1d(np.arange(dataset.num_items), ids)].max() < full[
            ids
        ].min()

    def test_stale_generation_refuses_typed(self, two_stage):
        dataset, base, model = two_stage
        base.set_embeddings(base.item_vectors() * 1.01)
        with pytest.raises(IndexStaleError, match="generation"):
            model.score_candidates(0)
        # score_all degrades to the exact path instead of raising.
        np.testing.assert_array_equal(model.score_all(0), base.score_all(0))

    def test_exact_fallback_is_counted_with_telemetry_off(self, two_stage):
        dataset, base, model = two_stage
        model.score_all(0)
        assert model.exact_fallbacks == 0
        base.set_embeddings(base.item_vectors() * 1.01)
        model.score_all(0)
        model.score_all(1)
        assert model.exact_fallbacks == 2
        tel = Telemetry()
        with activated(tel):
            model.score_all(2)
        assert model.exact_fallbacks == 3
        assert tel.metrics.find("counter", "retrieval.exact_fallbacks").value == 1

    def test_unbuilt_index_refuses_typed(self, two_stage):
        dataset, base, __ = two_stage
        model = TwoStageRecommender(base, IvfIndex(seed=0)).fit(dataset)
        with pytest.raises(IndexStaleError, match="never been built"):
            model.score_candidates(0)

    def test_sync_index_is_idempotent_when_fresh(self, two_stage):
        dataset, base, model = two_stage
        before = model.index.fingerprint()
        assert model.sync_index() == base.generation
        assert model.index.fingerprint() == before


# ---------------------------------------------------------------------- #
# serving-ladder degradation + promotion atomicity
# ---------------------------------------------------------------------- #
def build_service(dataset, base, model, faults=None):
    return RecommenderService(
        dataset,
        primary=("ann", model),
        fallbacks=[("exact", base)],
        faults=faults,
        clock=ManualClock(),
    )


class TestServingDegradation:
    def test_injected_index_stale_degrades_never_raises(self, two_stage):
        """Fault-injected staleness: typed ``degraded`` outcome, never an
        exception, never an empty response."""
        dataset, base, model = two_stage
        stale_steps = (1, 3, 4)
        plan = FaultPlan([Fault(step=s, kind="index_stale") for s in stale_steps])
        service = build_service(dataset, base, model, FaultInjector(plan))
        for step in range(8):
            response = service.serve(ServeRequest(user_id=step % 4, k=5))
            assert response.ok
            assert len(response.items) > 0
            if step in stale_steps:
                assert response.status == "degraded"
                assert response.model == "exact"
            else:
                assert response.status == "ok"
                assert response.model == "ann"
        assert service.metrics.snapshot()["rung_errors::ann"] == len(stale_steps)

    def test_real_staleness_then_promote_heals(self, two_stage):
        dataset, base, model = two_stage
        service = build_service(dataset, base, model)
        assert service.serve(ServeRequest(user_id=0, k=5)).status == "ok"

        base.set_embeddings(base.item_vectors() * 1.01)
        stale = service.serve(ServeRequest(user_id=0, k=5))
        assert stale.status == "degraded" and stale.model == "exact"

        record = service.promote("ann", model)
        assert record.generation == base.generation == model.index.generation
        healed = service.serve(ServeRequest(user_id=0, k=5))
        assert healed.status == "ok" and healed.model == "ann"

    def test_candidate_rung_excludes_seen_items(self, two_stage):
        dataset, base, model = two_stage
        seen = dataset.interactions.items_of(1)
        response = build_service(dataset, base, model).serve(
            ServeRequest(user_id=1, k=10)
        )
        assert response.status == "ok"
        assert not set(response.items) & set(seen.tolist())

    def test_promotion_probes_the_candidate_path(self, two_stage):
        """A candidate whose index cannot be rebuilt is rejected with the
        previous live model untouched."""
        dataset, base, model = two_stage
        service = build_service(dataset, base, model)

        broken = TwoStageRecommender(base, IvfIndex(seed=0), k_candidates=64)
        broken.fit(dataset)
        broken.sync_index = lambda force=False: (_ for _ in ()).throw(
            RetrievalError("disk full")
        )
        with pytest.raises(PromotionError, match="index sync failed"):
            service.promote("ann-broken", broken)
        record = service.registry.history[-1]
        assert not record.promoted and "disk full" in record.reason
        assert service.registry.live_name == "ann"
        assert service.serve(ServeRequest(user_id=0, k=5)).status == "ok"


# ---------------------------------------------------------------------- #
# store-backed: ANN over MmapShardStore serve-mode views
# ---------------------------------------------------------------------- #
def train_store(workdir, num_users, num_items, generations=2, seed=0):
    num_entities = num_users + num_items
    rng = np.random.default_rng(seed)
    triples = TripleStore(
        rng.integers(num_users, size=40),
        np.zeros(40, dtype=np.int64),
        rng.integers(num_users, num_entities, size=40),
        num_entities=num_entities,
        num_relations=1,
    )
    store = MmapShardStore.create(workdir, rows_per_shard=8, seed=seed)
    model = TransE(num_entities, 1, dim=4, seed=seed, store=store)
    for __ in range(generations):
        model.fit(triples, epochs=1, batch_size=8, seed=seed)
        store.commit()
    store.close()


@pytest.fixture()
def stored_two_stage(tmp_path):
    dataset = generate_dataset(MOVIE_SCHEMA, num_users=8, num_items=20, seed=0)
    train_store(tmp_path / "store", dataset.num_users, dataset.num_items)
    store = MmapShardStore.open(tmp_path / "store", mode="serve")
    base = StoredEmbeddingRecommender(
        store,
        user_entities=np.arange(dataset.num_users),
        item_entities=np.arange(
            dataset.num_users, dataset.num_users + dataset.num_items
        ),
    ).fit(dataset)
    model = TwoStageRecommender(base, IvfIndex(seed=0), k_candidates=8)
    model.fit(dataset)
    yield dataset, store, base, model
    store.close()


class TestStoreBackedRetrieval:
    def test_candidates_score_off_the_store(self, stored_two_stage):
        dataset, store, base, model = stored_two_stage
        model.sync_index()
        assert model.index.generation == store.generation
        ids, scores = model.score_candidates(3)
        np.testing.assert_allclose(scores, base.score_all(3)[ids])

    def test_generation_remap_staleness_and_promote(self, stored_two_stage):
        """Promotion swaps index and store generation as one unit."""
        dataset, store, base, model = stored_two_stage
        service = build_service(dataset, base, model)
        newest = store.generation
        assert model.index.generation == newest  # promote() built it

        # Re-point the base at the previous generation; the index is now stale.
        base.store = MmapShardStore.open(
            store.directory, mode="serve", generation=newest - 1
        )
        assert "generation" in model.index_report()
        degraded = service.serve(ServeRequest(user_id=0, k=5))
        assert degraded.status == "degraded" and degraded.model == "exact"

        record = service.promote("ann", model)
        assert record.generation == newest - 1
        assert model.index.generation == base.generation == newest - 1
        assert service.serve(ServeRequest(user_id=0, k=5)).status == "ok"
        base.store.close()


# ---------------------------------------------------------------------- #
# satellite: validate_scores candidate-subset mode
# ---------------------------------------------------------------------- #
class TestValidateScoresSubset:
    def test_ok_subset(self):
        report = validate_scores(
            np.array([1.0, 2.0, 3.0]), 100, expected_indices=np.array([5, 7, 99])
        )
        assert report.ok and report.num_scored == 3
        assert "candidate scores" in report.describe()

    def test_full_mode_unchanged(self):
        report = validate_scores(np.zeros(4), 4)
        assert report.ok and report.num_scored is None

    @pytest.mark.parametrize(
        "scores, indices, why",
        [
            (np.zeros(2), np.array([1, 2, 3]), "length mismatch"),
            (np.zeros(3), np.array([1, 2, 2]), "duplicate indices"),
            (np.zeros(3), np.array([1, 2, 100]), "index out of range"),
            (np.zeros(3), np.array([-1, 2, 3]), "negative index"),
            (np.zeros(3), np.array([0.5, 2.0, 3.0]), "float indices"),
            (np.zeros(0), np.zeros(0, dtype=np.int64), "empty candidate set"),
            (np.array([1.0, np.nan, 3.0]), np.array([1, 2, 3]), "NaN scores"),
        ],
    )
    def test_rejects(self, scores, indices, why):
        assert not validate_scores(scores, 100, expected_indices=indices).ok, why
