"""Oracle tests for the serving hot path's fast paths.

Each fast path is checked against the straightforward code it replaces:

* the candidate-subset score guard (strictly increasing ids proven
  distinct in one comparison, anything else sorted once) against the
  ``np.unique`` guard, and its ``dtype.kind`` tests against
  ``np.issubdtype``;
* the service's seen-item mask (binary search over candidate ids the
  guard found strictly increasing) against ``np.isin``;
* ``ArrayEmbeddingRecommender.score_all``'s in-place product against the
  gathered copy it replaced, and its candidate scoring through
  ``np.take`` against fancy-indexed gathers, bitwise;
* ``ServiceMetrics`` counter handles against the registry series;
* the two-stage rung's served response against the exact rung's,
  whenever the exact top-k lies inside the IVF candidate set.

The index contract the guard relies on for speed (strictly
increasing int64 ids inside ``[0, n)``) is checked in
``tests/test_retrieval.py::TestIndexDeterminism::test_search_contract``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ManualClock
from repro.core.dataset import Dataset
from repro.core.interactions import InteractionMatrix
from repro.retrieval import ArrayEmbeddingRecommender, IvfIndex, TwoStageRecommender
from repro.runtime.guards import ScoreReport, validate_scores
from repro.serving import RecommenderService, ServeRequest
from repro.serving.metrics import PREFIX, ServiceMetrics
from repro.telemetry.metrics import MetricRegistry


# ---------------------------------------------------------------------- #
# the candidate-subset guard
# ---------------------------------------------------------------------- #
def unique_guard(scores, num_items: int, expected_indices) -> ScoreReport:
    """The candidate-subset guard as it was, proving distinctness with np.unique."""
    arr = np.asarray(scores)
    shape = tuple(int(s) for s in arr.shape)
    idx = np.asarray(expected_indices)

    def bad(reason, **counts):
        return ScoreReport(ok=False, expected_items=num_items, actual_shape=shape,
                           reason=reason, **counts)

    if idx.ndim != 1 or idx.size < 1:
        return bad(f"expected a non-empty 1-d candidate set, got shape "
                   f"{tuple(int(s) for s in idx.shape)}")
    if not np.issubdtype(idx.dtype, np.integer):
        return bad(f"candidate indices must be integers, got dtype {idx.dtype}")
    if idx.min() < 0 or idx.max() >= num_items:
        return bad(f"candidate indices out of range for {num_items} items "
                   f"(min {int(idx.min())}, max {int(idx.max())})")
    if np.unique(idx).size != idx.size:
        return bad("candidate indices contain duplicates")
    if arr.ndim != 1 or shape != (int(idx.size),):
        return bad(f"expected shape {(int(idx.size),)}, got {shape}")
    if not np.issubdtype(arr.dtype, np.number):
        return bad(f"expected numeric scores, got dtype {arr.dtype}")
    if not np.isfinite(arr).all():
        num_nan, num_inf = int(np.isnan(arr).sum()), int(np.isinf(arr).sum())
        return bad(f"non-finite scores: {num_nan} NaN, {num_inf} Inf",
                   num_nan=num_nan, num_inf=num_inf)
    return ScoreReport(ok=True, expected_items=num_items, actual_shape=shape,
                       num_scored=int(arr.size))


SHAPES = ("sorted", "unsorted", "duplicated", "single", "as_drawn")


@st.composite
def guard_inputs(draw):
    num_items = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(SHAPES))
    values = draw(st.lists(st.integers(-3, 45), min_size=1, max_size=30))
    if shape == "single":
        values = values[:1]
    elif shape == "sorted":
        values = sorted(set(values))
    elif shape == "unsorted":
        values = sorted(set(values), reverse=True)
    elif shape == "duplicated":
        values = values + [values[draw(st.integers(0, len(values) - 1))]]
    dtype = draw(st.sampled_from(("int64", "int32", "uint16", "float64")))
    if dtype == "uint16":
        values = [abs(v) for v in values]
    ids = np.asarray(values, dtype=dtype)
    length = ids.size + draw(st.sampled_from((0, 0, 0, -1, 1)))
    scores = np.asarray(
        draw(st.lists(st.floats(-5, 5), min_size=length, max_size=length)),
        dtype=np.float64,
    )
    if scores.size and draw(st.booleans()):
        at = draw(st.integers(0, scores.size - 1))
        scores[at] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    return scores, num_items, ids


class TestCandidateGuardOracle:
    @settings(max_examples=400, deadline=None)
    @given(guard_inputs())
    def test_report_equals_unique_guard(self, case):
        scores, num_items, ids = case
        assert validate_scores(scores, num_items, expected_indices=ids) == unique_guard(
            scores, num_items, ids
        )

    @pytest.mark.parametrize(
        "ids",
        [
            np.array([3, 1, 2]),  # unsorted, distinct
            np.array([1, 2, 2, 3]),  # sorted with a duplicate
            np.array([2, 1, 2]),  # unsorted with a duplicate
            np.array([7]),  # size 1
            np.array([-2, 0, 5]),  # negative
            np.array([5, 0, 40]),  # out of range, unsorted
            np.zeros(0, dtype=np.int64),  # empty
            np.zeros((2, 2), dtype=np.int64),  # not 1-d
            np.array([0.0, 1.0]),  # not integers
        ],
    )
    def test_named_shapes(self, ids):
        scores = np.zeros(max(ids.size, 1))
        assert validate_scores(scores, 10, expected_indices=ids) == unique_guard(
            scores, 10, ids
        )


#: Every dtype kind numpy has, with a representative of each.
ALL_DTYPES = (
    np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
    np.uint32, np.uint64, np.float16, np.float32, np.float64, np.longdouble,
    np.complex64, np.complex128, np.object_, np.str_, np.bytes_,
    "datetime64[s]", "timedelta64[s]", "V8", [("a", "<i4")],
)


class TestScoreGuardVerdicts:
    @pytest.mark.parametrize("dtype", ALL_DTYPES, ids=str)
    def test_kind_tests_match_issubdtype(self, dtype):
        """The guard's ``dtype.kind`` sets give ``np.issubdtype``'s verdicts."""
        from repro.runtime.guards import _INTEGER_KINDS, _NUMBER_KINDS

        dtype = np.dtype(dtype)
        assert (dtype.kind in _INTEGER_KINDS) == np.issubdtype(dtype, np.integer)
        assert (dtype.kind in _NUMBER_KINDS) == np.issubdtype(dtype, np.number)

    @pytest.mark.parametrize(
        "scores, ids, reason",
        [
            (np.ones(3, dtype=bool), None, "expected numeric scores, got dtype bool"),
            (np.ones(3, dtype=bool), np.array([0, 1, 2]),
             "expected numeric scores, got dtype bool"),
            (np.array([1.0, 2.0, 3.0], dtype=object), None,
             "expected numeric scores, got dtype object"),
            (np.array(["a", "b", "c"]), None, "expected numeric scores, got dtype <U1"),
            (np.ones(2), np.array([0.0, 1.0]),
             "candidate indices must be integers, got dtype float64"),
            (np.ones(2), np.array([True, False]),
             "candidate indices must be integers, got dtype bool"),
            (np.ones(2), np.array([1, 0], dtype=object),
             "candidate indices must be integers, got dtype object"),
            (np.ones(3), np.array([2, 0, 1]), None),
            (np.ones(3), np.array([0, 2, 2]), "candidate indices contain duplicates"),
            (np.ones(3), np.array([2, 0, 2]), "candidate indices contain duplicates"),
            (np.array([1.0, np.nan, 2.0]), None, "non-finite scores: 1 NaN, 0 Inf"),
            (np.array([np.nan, np.inf]), np.array([0, 1]),
             "non-finite scores: 1 NaN, 1 Inf"),
            (np.ones(3, dtype=np.int32), None, None),
            (np.ones(3, dtype=np.complex64), None, None),
            (np.ones(3, dtype=np.float16), np.array([0, 1, 2], dtype=np.uint8), None),
        ],
    )
    def test_verdict_table(self, scores, ids, reason):
        report = validate_scores(scores, 3, expected_indices=ids)
        assert report.ok == (reason is None)
        if reason is not None:
            assert report.reason == reason
        if ids is not None:
            assert report == unique_guard(scores, 3, ids)


# ---------------------------------------------------------------------- #
# the seen-item mask
# ---------------------------------------------------------------------- #
def isin_rank(scores, seen, ids, k):
    """``RecommenderService._rank`` over a candidate subset as it was,
    masking seen items with ``np.isin``."""
    scores = np.array(scores, dtype=np.float64, copy=True)
    scores[np.isin(ids, seen)] = -np.inf
    k = min(k, scores.size)
    top = np.argpartition(-scores, k - 1)[:k]
    top = top[np.argsort(-scores[top], kind="stable")]
    keep = np.isfinite(scores[top])
    return np.asarray(ids, dtype=np.int64)[top[keep]], scores[top][keep]


@st.composite
def seen_mask_cases(draw):
    num_items = draw(st.integers(1, 60))
    ids = draw(st.lists(st.integers(0, num_items - 1), min_size=1,
                        max_size=num_items, unique=True))
    if draw(st.booleans()):
        ids = sorted(ids)
    seen = draw(st.lists(st.integers(0, num_items - 1), max_size=num_items, unique=True))
    scores = draw(st.lists(st.floats(-4, 4, width=16), min_size=len(ids),
                           max_size=len(ids)))
    k = draw(st.integers(1, num_items + 3))
    return num_items, np.asarray(ids, dtype=np.int64), sorted(seen), scores, k


def seen_service(num_users, num_items, seen):
    """A static-only service whose user 0 has seen exactly ``seen``."""
    users = np.zeros(len(seen), dtype=np.int64)
    dataset = Dataset(
        name="seen-mask",
        interactions=InteractionMatrix(
            users, np.asarray(seen, dtype=np.int64), num_users, num_items
        ),
    )
    base = ArrayEmbeddingRecommender(np.ones((num_users, 2)), np.ones((num_items, 2)))
    return RecommenderService(dataset, primary=("m", base.fit(dataset)),
                              clock=ManualClock())


class TestSeenMaskOracle:
    @settings(max_examples=300, deadline=None)
    @given(seen_mask_cases())
    def test_rank_equals_the_isin_mask(self, case):
        """Sorted or unsorted ids, empty ``seen``, seen items outside the
        candidate set, and k past the unseen count all rank as ``np.isin``
        masks them, whether ``_rank`` takes the guard's order verdict
        (what ``serve`` passes) or is told nothing of the order."""
        num_items, ids, seen, scores, k = case
        service = seen_service(1, num_items, seen)
        report = validate_scores(np.asarray(scores), num_items, expected_indices=ids)
        assert report.ok
        assert report.increasing == bool((ids[1:] > ids[:-1]).all())
        want_items, want_top = isin_rank(scores, seen, ids, k)
        for increasing in {report.increasing, False}:
            items, top = service._rank(np.asarray(scores), 0, k, True, ids=ids,
                                       increasing=increasing)
            assert items.dtype == np.int64
            assert items.tobytes() == want_items.tobytes()
            assert top.tobytes() == want_top.tobytes()

    def test_the_order_verdict_takes_no_part_in_report_equality(self):
        scores = np.zeros(3)
        ordered = validate_scores(scores, 9, expected_indices=np.array([1, 4, 7]))
        shuffled = validate_scores(scores, 9, expected_indices=np.array([4, 1, 7]))
        assert (ordered.increasing, shuffled.increasing) == (True, False)
        assert ordered == shuffled
        assert not validate_scores(np.zeros(9), 9).increasing

    @pytest.mark.parametrize(
        "ids, seen, k",
        [
            ([0, 2, 4, 6], [], 3),  # empty seen
            ([0, 2, 4, 6], [1, 3, 7, 9], 4),  # seen items all outside the ids
            ([0, 2, 4, 6], [0, 6], 4),  # both ends seen
            ([6, 0, 4, 2], [0, 6], 4),  # unsorted ids take np.isin
            ([3], [3], 5),  # one candidate, seen: nothing to serve
            ([1, 5, 8], [1, 2, 5, 8, 9], 10),  # k past the unseen count
        ],
    )
    def test_named_cases(self, ids, seen, k):
        ids = np.asarray(ids, dtype=np.int64)
        scores = np.linspace(1.0, 0.0, ids.size)
        service = seen_service(1, 10, seen)
        increasing = validate_scores(scores, 10, expected_indices=ids).increasing
        items, top = service._rank(scores, 0, k, True, ids=ids, increasing=increasing)
        want_items, want_top = isin_rank(scores, seen, ids, k)
        assert items.tolist() == want_items.tolist()
        assert top.tobytes() == want_top.tobytes()


# ---------------------------------------------------------------------- #
# exact scoring and rerank
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=["ip"])
def array_model(request):
    rng = np.random.default_rng(4)
    users, items = rng.standard_normal((6, 12)), rng.standard_normal((257, 12))
    dataset = Dataset(
        name="oracle",
        interactions=InteractionMatrix(
            np.arange(6, dtype=np.int64), np.arange(6, dtype=np.int64), 6, 257
        ),
    )
    model = ArrayEmbeddingRecommender(users, items)
    return model.fit(dataset), items


def fancy_scores(items, q, ids):
    """Scores of ``items[ids]`` computed the straightforward way."""
    return items[ids] @ q


class TestArrayScoringOracle:
    def test_score_all_is_bitwise_the_gathered_product(self, array_model):
        model, items = array_model
        for user in range(6):
            q = model.query_vector(user)
            expected = fancy_scores(items, q, np.arange(items.shape[0]))
            assert model.score_all(user).tobytes() == expected.tobytes()

    def test_score_items_over_a_whole_table_permutation(self, array_model):
        model, items = array_model
        ids = np.random.default_rng(9).permutation(items.shape[0])
        expected = fancy_scores(items, model.query_vector(1), ids)
        assert model.score_items(1, ids).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        user=st.integers(0, 5),
        ids=st.lists(st.integers(0, 256), min_size=1, max_size=300),
        ordered=st.booleans(),
    )
    def test_score_items_is_bitwise_fancy_indexing(self, array_model, user, ids, ordered):
        model, items = array_model
        ids = np.asarray(sorted(set(ids)) if ordered else ids, dtype=np.int64)
        expected = fancy_scores(items, model.query_vector(user), ids)
        assert model.score_items(user, ids).tobytes() == expected.tobytes()
        assert model.score_items(user, ids.tolist()).tobytes() == expected.tobytes()


@st.composite
def in_place_cases(draw):
    """A table of any row count (``n mod 4`` covers each ``gemv`` tail),
    handed in as an offset view or not, then maybe swapped by
    ``set_embeddings``."""
    rows = draw(st.integers(1, 70) | st.sampled_from((257, 1_001, 4_099)))
    dim = draw(st.sampled_from((1, 2, 3, 5, 8, 16, 31, 32, 33)))
    offset = draw(st.integers(0, 3))
    swap = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    return rows, dim, offset, swap, seed


def in_place_model(rows, dim, offset, swap, seed):
    rng = np.random.default_rng(seed)
    users = rng.standard_normal((3, dim))
    big = rng.standard_normal((rows + offset, dim))
    model = ArrayEmbeddingRecommender(users, big[offset:])
    if swap:
        big = rng.standard_normal((rows + offset + 1, dim))
        model.set_embeddings(big[offset + 1:])
    dataset = Dataset(
        name="in-place",
        interactions=InteractionMatrix(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 3, rows
        ),
    )
    return model.fit(dataset)


class TestInPlaceScoreAllOracle:
    """``score_all`` scores the table in place; the code it replaced
    gathered a copy first (``items[np.arange(n)] @ q``).  Same bits."""

    @staticmethod
    def assert_gathered_bits(model):
        items = model.item_vectors()
        gathered = items[np.arange(items.shape[0])]
        for user in range(3):
            scores = model.score_all(user)
            assert scores.dtype == np.float64 and scores.flags.owndata
            assert scores.tobytes() == (gathered @ model.query_vector(user)).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(in_place_cases())
    def test_in_place_product_is_bitwise_the_gathered_one(self, case):
        self.assert_gathered_bits(in_place_model(*case))

    @pytest.mark.parametrize("rows", (20_000, 20_003))
    @pytest.mark.parametrize("offset", (0, 1))
    def test_at_the_ledger_catalog_size(self, rows, offset):
        """The ``serve-exact-2e4`` shape (dim 32), whole and as ``big[1:]``
        (which ``np.ascontiguousarray`` does not copy)."""
        model = in_place_model(rows, 32, offset, False, seed=rows + offset)
        if offset:
            assert not model.item_vectors().flags.owndata
        self.assert_gathered_bits(model)


# ---------------------------------------------------------------------- #
# bound counter handles
# ---------------------------------------------------------------------- #
class TestServiceMetricsHandles:
    def test_incr_reuses_the_registry_counter(self):
        registry = MetricRegistry()
        metrics = ServiceMetrics(registry)
        metrics.incr("requests")
        handle = metrics.counter("requests")
        assert handle is registry.counter(PREFIX + "requests")
        metrics.incr("requests", 6)
        assert handle.value == 7
        assert metrics.count("requests") == 7
        assert metrics.snapshot()["requests"] == 7


# ---------------------------------------------------------------------- #
# the two-stage rung against the exact rung
# ---------------------------------------------------------------------- #
def clustered(rng, centers, num_rows, spread=0.3):
    rows = centers[rng.integers(centers.shape[0], size=num_rows)]
    return rows + spread * rng.standard_normal(rows.shape)


def rung_services(seed):
    """A two-stage service and an exact-only service over one catalog.

    Two probed lists and a 32-candidate floor leave the exact top-k
    outside the candidate set on roughly a quarter of the requests, so
    the oracle's condition splits the requests both ways."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((24, 16))
    users, items = clustered(rng, centers, 40), clustered(rng, centers, 3_000)
    hist_users = np.repeat(np.arange(40), 8)
    dataset = Dataset(
        name=f"rungs-s{seed}",
        interactions=InteractionMatrix(
            hist_users, rng.integers(3_000, size=hist_users.size), 40, 3_000
        ),
    )
    base = ArrayEmbeddingRecommender(users, items).fit(dataset)
    index = IvfIndex(seed=seed)
    two_stage = TwoStageRecommender(base, index, k_candidates=32)
    two_stage.fit(dataset).sync_index()
    index.nprobe = 2
    services = {
        name: RecommenderService(dataset, primary=(name, model), clock=ManualClock())
        for name, model in (("ann", two_stage), ("exact", base))
    }
    return base, two_stage, services


def dot_rounding_bound(base, user, items):
    """Largest gap two float64 evaluations of ``items . q`` can have:
    twice the classic ``d * u * sum |x_i q_i|`` dot-product error bound."""
    rows = base.item_vectors()[np.asarray(items)]
    q = base.query_vector(user)
    return rows.shape[1] * np.finfo(np.float64).eps * (np.abs(rows) @ np.abs(q))


class TestTwoStageRungOracle:
    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_covered_requests_serve_the_exact_response(self, seed):
        """Whenever the exact top-k lies inside the candidate set, the
        two-stage rung serves the exact rung's items in the same order.

        Scores agree to the dot product's rounding, not bit for bit: BLAS
        ``gemv`` rounds the last rows of a product (the ``m mod 4``
        remainder under OpenBLAS) through a different kernel, so a
        candidate that lands there in the gathered subset can differ from
        its full-table score in the last bits.
        """
        base, two_stage, services = rung_services(seed)
        covered = 0
        for user in range(40):
            for k in (1, 5, 10, 20):
                ids = set(two_stage.score_candidates(user, k)[0].tolist())
                for exclude_seen in (True, False):
                    request = ServeRequest(user_id=user, k=k, exclude_seen=exclude_seen)
                    exact = services["exact"].serve(request)
                    assert exact.status == "ok" and len(exact.items) == k
                    if not set(exact.items) <= ids:
                        continue
                    covered += 1
                    ann = services["ann"].serve(request)
                    assert (ann.status, ann.model) == ("ok", "ann")
                    assert ann.items == exact.items
                    gap = np.abs(np.subtract(ann.scores, exact.scores))
                    assert np.all(gap <= dot_rounding_bound(base, user, exact.items))
        assert covered >= 160  # at least half of the 320 requests are checked
