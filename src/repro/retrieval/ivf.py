"""Inverted-file (coarse k-means) candidate index.

The index is a **candidate generator**: given a query vector it returns a
small set of item ids whose *exact* scores are then computed by the
second stage (:class:`~repro.retrieval.two_stage.TwoStageRecommender`).
Because the rerank is exact, the index never changes *which order*
surviving candidates are ranked in, only *which* items survive; so the
quality knob is recall@k of the candidate set, and the cost knob is how
many candidates the second stage has to score.

The layout is the classic production one: partition the ``n`` item
vectors into ``round(sqrt(n))`` cells (capped at ``n``) with
``_COLD_ROUNDS`` rounds of seeded k-means, store each cell's member ids
contiguously (CSR: offsets + one flat id array), and at query time score
only the ``nprobe`` cells whose centroids have the largest inner product
with the query (inner product is the serving rerank's geometry).  Cells
of ~``sqrt(n)`` members make probe cost grow as ``O(sqrt(n))`` instead
of ``O(n)``; probing more cells trades latency for recall.

Everything is vectorized NumPy and seed-deterministic:

* centroid init is a seeded no-replacement draw of data points;
* assignment runs in cache-sized row blocks (~4 MiB of scores each) with
  the ``||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2`` expansion (the
  ``||x||^2`` term is constant per row and dropped from the argmin; the
  ``-2`` is folded into the centroid operand, which is exact);
* centroid sums are one ``np.bincount`` over (cell, dimension) bins,
  adding each cell's rows in row order in float64;
* k-means trains on a seeded subsample when the table has more than
  ``_TRAIN_SIZE`` rows (the standard scale trick), then one full blocked
  assignment builds the lists;
* empty cells are re-seeded deterministically to the points currently
  worst-served by their centroid.  A re-seed cannot fill more cells than
  the table has distinct rows, so a degenerate table (many duplicates)
  can still leave cells empty; search skips them.

**Recall-targeted probing.**  Every cold build picks its own probe
count: the fewest cells, from ``PROBE_FLOOR`` up to ``PROBE_BUDGET``, at
which the index reaches a mean recall@10 of ``RECALL_TARGET``.  Recall
is measured on a seeded sample of the index's own rows, each used as a
query with its own id excluded, in one pass:
the exact top-10 of every sample row (item blocks scored against all
sample rows at once, no score buffer above ``_BLOCK_SCORES``), the rank
of each neighbour's cell in that row's probe order, and a cumulative
histogram of those ranks, which is recall at every probe count at once.
The estimate at the chosen count is :attr:`IvfIndex.estimated_recall`;
when the budget cannot reach the target the count is the budget and the
estimate says how far short it falls.  The floor is there because the
sample cannot tell small counts apart.  One sample row that misses its
neighbours costs 1/256 of the recall, most of the target's 0.005
allowance, so below the floor the count follows one or two rows rather
than the catalog: catalogs drawn from one generator calibrated anywhere
from 3 to 16 cells, and their serving cost followed.  Self-queries also
overrate the recall of fresh queries most at small counts.

A *successor* (:meth:`IvfIndex.successor`) is the rebuild path for a
table that drifted a little since the last build (the online loop's
promotions): its build starts k-means from the predecessor's centroids
and refines them for ``_WARM_ROUNDS`` Lloyd rounds instead of drawing
seeded centroids and running ``_COLD_ROUNDS`` rounds.  A successor
carries only the seed, the start centroids, the probe count and the
recall estimate.  A warm build changes the index, so it is judged by
recall against a cold build, not by fingerprint.  It inherits its
predecessor's probe count (and estimate) instead of calibrating again.
When the start centroids do not fit (another cell count or ``dim``) the
build is cold, bit for bit, and calibrates.

Two builds from the same seed and vectors are bitwise identical (equal
:meth:`IvfIndex.fingerprint`).  ``generation`` records which
embedding-store generation (or model version) the index was built
against; the two-stage rung compares it to its base recommender's
generation on every request and refuses to serve from a stale index
(:class:`~repro.core.exceptions.IndexStaleError`).

Builds are traced (``retrieval/build`` spans) and searches counted
(``retrieval.probes``, labeled ``index=ivf``) through the active
telemetry, guarded on ``enabled`` like every other instrumented hot path.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core.exceptions import RetrievalError
from repro.telemetry.base import get_active

__all__ = ["IvfIndex"]

#: Float32 scores per assignment block (4 MiB): rows per block is this
#: over ``num_lists``, so the block stays cache-sized at any list count.
_BLOCK_SCORES = 2**20
#: Floor on rows per block, so huge list counts still batch the matmul.
_MIN_BLOCK_ROWS = 256
#: Lloyd rounds of a cold build, from a seeded draw of data points.
_COLD_ROUNDS = 8
#: Lloyd rounds of a successor's warm build: one refines centroids that
#: already fit a slightly drifted table (two cost more and recalled no
#: better on the online loop).
_WARM_ROUNDS = 1
#: Cap on the rows k-means trains on (the full table is always assigned
#: to lists); a larger table trains on a seeded subsample.
_TRAIN_SIZE = 100_000

#: Recall-targeted probing: the calibrated count never exceeds this many
#: cells (the fixed default it replaced)...
PROBE_BUDGET = 16
#: ...never falls below this many (see the module docstring)...
PROBE_FLOOR = PROBE_BUDGET // 2
#: ...and is the fewest that reach this mean recall@10 on the sample.
RECALL_TARGET = 0.995
#: Sample rows the calibration queries with, and its recall depth.
_CALIBRATION_SAMPLE = 256
_CALIBRATION_K = 10


def _num_lists(n: int) -> int:
    """Coarse cells for an ``n``-row table: ``round(sqrt(n))``, at most ``n``."""
    return min(max(1, int(round(float(n) ** 0.5))), n)


def _cell_order(assign: np.ndarray, num_lists: int) -> np.ndarray:
    """Row ids grouped by cell, ascending id within a cell: the stable
    argsort of ``assign``.

    Keys below 2**15 sort as int16, where NumPy's stable sort is a radix
    sort (~10x faster at 20,000 rows); the permutation is the same.
    """
    if num_lists <= np.iinfo(np.int16).max:
        assign = assign.astype(np.int16)
    return np.argsort(assign, kind="stable")


def _sample_topk(vectors: np.ndarray, sample: np.ndarray, k: int) -> np.ndarray:
    """Exact top-``k`` ids of each ``sample`` row among the other rows.

    Descending score, ties lowest id first (``exact_topk``'s rule).
    Item blocks are scored against every sample row at once, each block's
    scores fitting ``_BLOCK_SCORES``, and a running top-``k`` per row
    admits only entries above its current ``k``-th best: blocks run in
    id order, so a later tie never wins.
    """
    n, s = vectors.shape[0], sample.size
    queries = vectors[sample]
    width = max(1, _BLOCK_SCORES // s)
    best = np.full((s, k), -np.inf, dtype=np.float32)
    best_ids = np.full((s, k), n, dtype=np.int64)  # n sorts after every id
    rows = np.arange(s)
    score_buf = np.empty((s, min(width, n)), dtype=np.float32)
    above_buf = np.empty(score_buf.shape, dtype=bool)
    for start in range(0, n, width):
        block = vectors[start : start + width]
        scores = score_buf[:, : block.shape[0]]
        above = above_buf[:, : block.shape[0]]
        np.matmul(queries, block.T, out=scores)
        own = (sample >= start) & (sample < start + block.shape[0])
        scores[rows[own], sample[own] - start] = -np.inf
        np.greater(scores, best[:, -1:], out=above)
        hits = np.flatnonzero(above)
        if hits.size > 8 * best.size:  # so the block is wider than 8k
            # The first block (or an unlucky order): cut at the block's
            # own k-th best, keeping its ties for the id rule below.
            cut = block.shape[0] - k
            kth = np.maximum(np.partition(scores, cut, axis=1)[:, cut], best[:, -1])
            np.greater_equal(scores, kth[:, None], out=above)
            hits = np.flatnonzero(above)
        if not hits.size:
            continue
        hit_rows, hit_cols = np.divmod(hits, block.shape[0])
        cand_rows = np.concatenate([np.repeat(rows, k), hit_rows])
        cand = np.concatenate([best.ravel(), scores[hit_rows, hit_cols]])
        cand_ids = np.concatenate([best_ids.ravel(), hit_cols + start])
        order = np.lexsort((cand_ids, -cand, cand_rows))
        per_row = k + np.bincount(hit_rows, minlength=s)
        firsts = np.cumsum(per_row) - per_row
        take = order[(firsts[:, None] + np.arange(k)).ravel()]
        best = cand[take].reshape(s, k)
        best_ids = cand_ids[take].reshape(s, k)
    return best_ids


class IvfIndex:
    """K-means inverted-file index with a calibrated probe count.

    ``seed`` drives every draw of a build: the centroid init, the
    training subsample and the calibration sample.  After a build,
    :attr:`nprobe` is the calibrated count (a caller may set it to probe
    another count) and :attr:`estimated_recall` its recall estimate.
    """

    #: Identifier on telemetry labels.
    kind = "ivf"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        #: Cells probed per query (clamped to the cell count at search
        #: time); each cold build calibrates it.
        self.nprobe: int | None = None
        #: Mean recall@10 of the calibration sample at ``nprobe``.
        self.estimated_recall: float | None = None
        self.generation: int | None = None
        self.num_vectors = 0
        self.dim = 0
        self._centroids: np.ndarray | None = None  # (L, dim) float32
        self._offsets: np.ndarray | None = None  # (L + 1,) int64
        self._members: np.ndarray | None = None  # (n,) int64, grouped by cell
        #: A successor's k-means start (the predecessor's centroids),
        #: consumed by the next build.
        self._start: np.ndarray | None = None

    @property
    def is_built(self) -> bool:
        return self.num_vectors > 0

    def _require_built(self) -> None:
        if not self.is_built:
            raise RetrievalError("IvfIndex has not been built")

    def successor(self) -> "IvfIndex":
        """A new, unbuilt index whose next build warm-starts from this one.

        Same seed; its :meth:`build` refines a copy of this index's
        centroids for ``_WARM_ROUNDS`` rounds instead of running
        ``_COLD_ROUNDS`` rounds from a seeded draw, and keeps this index's
        probe count and recall estimate instead of calibrating.  A build
        whose cell count or ``dim`` differs from this index's is cold,
        bit for bit what a fresh ``IvfIndex(seed)`` builds.
        """
        self._require_built()
        nxt = type(self)(seed=self.seed)
        nxt.nprobe, nxt.estimated_recall = self.nprobe, self.estimated_recall
        nxt._start = self._centroids
        return nxt

    def _warm_start(self, num_lists: int, dim: int) -> np.ndarray | None:
        """The successor start when it fits a build of this shape."""
        start = self._start
        if start is not None and start.shape == (num_lists, dim):
            return start
        return None

    # ------------------------------------------------------------------ #
    # build
    # ------------------------------------------------------------------ #
    @staticmethod
    def _assign(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Blocked nearest-centroid assignment (L2, the k-means geometry)."""
        num_rows, num_lists = vectors.shape[0], centroids.shape[0]
        c_norm = np.einsum("ij,ij->i", centroids, centroids)
        # ||x||^2 is constant per row: argmin over x.(-2c) + ||c||^2.
        # Scaling by a power of two is exact, so x.(-2c) == -2(x.c).
        neg2_t = (centroids * np.float32(-2.0)).T
        rows = max(_MIN_BLOCK_ROWS, _BLOCK_SCORES // num_lists)
        scores = np.empty((min(rows, num_rows), num_lists), dtype=np.float32)
        out = np.empty(num_rows, dtype=np.int64)
        for start in range(0, num_rows, rows):
            block = vectors[start : start + rows]
            view = scores[: block.shape[0]]
            np.matmul(block, neg2_t, out=view)
            view += c_norm
            np.argmin(view, axis=1, out=out[start : start + rows])
        return out

    def _kmeans(self, vectors: np.ndarray, num_lists: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        n = vectors.shape[0]
        train = vectors
        if n > _TRAIN_SIZE:
            take = max(_TRAIN_SIZE, min(n, 64 * num_lists))
            train = vectors[np.sort(rng.choice(n, size=take, replace=False))]
        start = self._warm_start(num_lists, train.shape[1])
        if start is None:
            centroids = train[
                np.sort(rng.choice(train.shape[0], size=num_lists, replace=False))
            ].astype(np.float32, copy=True)
            rounds = _COLD_ROUNDS
        else:
            centroids = start.copy()
            rounds = _WARM_ROUNDS
        # Centroid sums are one bincount over (cell, dimension) bins,
        # ``cell * dim + d``: it adds each cell's rows in row order, in
        # float64, so every sum is the row-by-row accumulation bit for bit.
        dim = train.shape[1]
        values = train.astype(np.float64).ravel()
        lanes = np.arange(dim)
        bins = np.empty(train.shape, dtype=np.int64)
        for __ in range(rounds):
            assign = self._assign(train, centroids)
            np.add((assign * dim)[:, None], lanes, out=bins)
            sums = np.bincount(
                bins.ravel(), weights=values, minlength=num_lists * dim
            ).reshape(num_lists, dim)
            counts = np.bincount(assign, minlength=num_lists)
            filled = counts > 0
            centroids[filled] = (
                sums[filled] / counts[filled, None]
            ).astype(np.float32)
            empty = np.nonzero(~filled)[0]
            if empty.size:
                # Deterministic re-seed: hand each empty cell one of the
                # points farthest from its current centroid.
                resid = train - centroids[assign]
                dist = np.einsum("ij,ij->i", resid, resid)
                worst = np.argsort(-dist, kind="stable")[: empty.size]
                centroids[empty] = train[worst]
        return centroids

    def build(self, vectors: np.ndarray, generation: int | None = None) -> "IvfIndex":
        """Index ``vectors`` (rows are item ids); returns ``self``.

        ``generation`` is assigned last: a build that raises midway
        leaves the index stale, never half-fresh.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] < 1:
            raise RetrievalError(
                f"index vectors must be a non-empty 2-d array, got shape "
                f"{vectors.shape}"
            )
        if not np.isfinite(vectors).all():
            raise RetrievalError("index vectors must be finite")
        n, dim = vectors.shape
        num_lists = _num_lists(n)
        tel = get_active()
        warm = self._warm_start(num_lists, dim) is not None
        span = (
            tel.begin(
                "retrieval/build", kind=self.kind, vectors=n, dim=dim,
                lists=num_lists, generation=generation,
                start="warm" if warm else "cold",
                rounds=_WARM_ROUNDS if warm else _COLD_ROUNDS,
            )
            if tel.enabled
            else None
        )
        centroids = self._kmeans(vectors, num_lists)
        assign = self._assign(vectors, centroids)
        order = _cell_order(assign, num_lists)
        counts = np.bincount(assign, minlength=num_lists)
        offsets = np.zeros(num_lists + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._centroids = centroids
        self._offsets = offsets
        self._members = order.astype(np.int64)
        self.num_vectors, self.dim = n, dim
        if not warm:
            self.nprobe, self.estimated_recall = self._calibrate(vectors)
        self._start = None
        self.generation = int(generation) if generation is not None else None
        if span is not None:
            tel.counter("retrieval.index_builds", index=self.kind).inc()
            recall = self.estimated_recall
            tel.end(
                span, outcome="ok", probes=self.nprobe, estimated_recall=recall,
                capped=recall < RECALL_TARGET,
            )
        return self

    # ------------------------------------------------------------------ #
    # probe calibration
    # ------------------------------------------------------------------ #
    def _calibration_sample(self, n: int) -> np.ndarray:
        """The sorted, seeded rows a calibration queries with."""
        # A seed stream apart from k-means's draws.
        rng = np.random.default_rng([self.seed, 1])
        size = min(_CALIBRATION_SAMPLE, n)
        return np.sort(rng.choice(n, size=size, replace=False))

    def _calibrate(self, vectors: np.ndarray) -> tuple[int, float]:
        """``(probes, estimated recall)``: the fewest probes, from the
        floor to the budget, whose mean recall@10 over the sample reaches
        the target, or the budget when none does."""
        n, num_lists = vectors.shape[0], self._centroids.shape[0]
        budget = min(PROBE_BUDGET, num_lists)
        k = min(_CALIBRATION_K, n - 1)
        if k < 1:  # a one-row table has no neighbours to miss
            return 1, 1.0
        sample = self._calibration_sample(n)
        neighbours = _sample_topk(vectors, sample, k)
        cell_of = np.empty(n, dtype=np.int64)
        cell_of[self._members] = np.repeat(
            np.arange(num_lists), np.diff(self._offsets)
        )
        # Where each neighbour's cell falls in its query's probe order.
        rank = np.empty(num_lists, dtype=np.int64)
        ranks = np.empty(neighbours.shape, dtype=np.int64)
        positions = np.arange(num_lists)
        for row, item in enumerate(sample):
            rank[self._probe_order(vectors[item])] = positions
            ranks[row] = rank[cell_of[neighbours[row]]]
        # Every sample row has k neighbours, so the mean recall at p
        # probes is the share of all neighbours ranked below p.
        found = np.cumsum(np.bincount(ranks.ravel(), minlength=num_lists))
        recall = found[:budget] / ranks.size
        met = np.flatnonzero(recall >= RECALL_TARGET)
        probes = int(met[0]) + 1 if met.size else budget
        probes = max(probes, min(PROBE_FLOOR, budget))
        return probes, float(recall[probes - 1])

    # ------------------------------------------------------------------ #
    # search
    # ------------------------------------------------------------------ #
    def _probe_order(self, query: np.ndarray) -> np.ndarray:
        """Cell indices by decreasing inner product with ``query``."""
        return np.argsort(-(self._centroids @ query), kind="stable")

    def search(self, query: np.ndarray, k: int) -> np.ndarray:
        """Sorted unique candidate ids for one query.

        The ids are strictly increasing int64 inside ``[0, num_vectors)``,
        at least ``k`` of them whenever the index holds that many vectors
        (the probe widens past ``nprobe`` cells until the quota is met),
        possibly more: whole probed cells are returned, and the exact
        rerank pays per candidate, so callers cap cost with ``k``, not by
        truncation.  The serving path relies on the order for speed only:
        the candidate guard (``validate_scores``) skips a sort when the ids
        are strictly increasing, and still judges any other order
        correctly, just slower.
        """
        self._require_built()
        query = np.asarray(query, dtype=np.float32).ravel()
        if query.size != self.dim:
            raise RetrievalError(
                f"query has dimension {query.size}, index has {self.dim}"
            )
        if k < 1:
            raise RetrievalError("k must be >= 1")
        order = self._probe_order(query)
        quota = min(int(k), self.num_vectors)
        chunks: list[np.ndarray] = []
        count = 0
        probed = 0
        for cell in order:
            members = self._members[
                self._offsets[cell] : self._offsets[cell + 1]
            ]
            probed += 1
            if members.size:
                chunks.append(members)
                count += members.size
            # Probe nprobe cells, then keep widening only until the k
            # quota is met (sparse cells must not starve the rerank).
            if probed >= self.nprobe and count >= quota:
                break
        tel = get_active()
        if tel.enabled:
            tel.counter("retrieval.probes", index=self.kind).inc(probed)
        # Cells may be empty (see the module docstring), but the probe
        # widens until quota >= 1 ids are in hand, so chunks is never empty.
        if not chunks:  # pragma: no cover - unreachable, see above
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(chunks))

    # ------------------------------------------------------------------ #
    # fingerprint
    # ------------------------------------------------------------------ #
    def _meta(self) -> dict:
        return {
            "kind": self.kind,
            "metric": "ip",
            "seed": self.seed,
            "generation": self.generation,
            "num_vectors": self.num_vectors,
            "dim": self.dim,
        }

    def _state_arrays(self) -> dict[str, np.ndarray]:
        self._require_built()
        return {
            "centroids": self._centroids,
            "offsets": self._offsets,
            "members": self._members,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the full index state (meta + every array, in order).

        Two builds from the same seed and vectors must produce equal
        fingerprints: the determinism contract tests and the bench smoke
        assert.
        """
        digest = hashlib.sha256(json.dumps(self._meta(), sort_keys=True).encode())
        arrays = self._state_arrays()
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            digest.update(name.encode())
            digest.update(str(arr.dtype).encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()
