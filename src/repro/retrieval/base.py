"""The :class:`AnnIndex` interface, its persistence framing, and recall helpers.

An ANN index in this repo is a **candidate generator**: given a query
vector it returns a small set of item ids whose *exact* scores are then
computed by the second stage (:class:`~repro.retrieval.two_stage.TwoStageRecommender`).
Because the rerank is exact, an index never changes *which order*
surviving candidates are ranked in — only *which* items survive — so the
quality knob is recall@k of the candidate set, and the cost knob is how
many candidates the second stage has to score.

Contract shared by every implementation:

* ``build(vectors, generation=...)`` is **seed-deterministic**: the same
  seed and the same vector table produce bitwise-identical index contents
  (asserted by :meth:`AnnIndex.fingerprint` equality in tests and the
  bench smoke).
* ``search(query, k)`` returns **sorted unique** (strictly increasing
  int64) candidate ids, at least ``k`` of them whenever the index holds
  that many vectors (implementations widen their probe until the quota
  is met), possibly more — candidate
  generation returns whole probed cells/buckets, and the exact rerank pays
  per candidate, so callers cap cost with ``k``, not by truncation.
* ``save``/``load`` round-trip the full index state through one ``.npz``
  file; a loaded index searches bitwise-identically to the one saved.
* ``generation`` records which embedding-store generation (or model
  version) the index was built against; the two-stage rung compares it to
  its base recommender's generation on every request and refuses to serve
  from a stale index (:class:`~repro.core.exceptions.IndexStaleError`).

Index builds are traced (``retrieval/build`` spans) and searches counted
(``retrieval.probes`` / ``retrieval.candidates``, labeled by index kind)
through the active telemetry, guarded on ``enabled`` like every other
instrumented hot path in the repo.
"""

from __future__ import annotations

import abc
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.exceptions import RetrievalError

__all__ = [
    "METRICS",
    "AnnIndex",
    "load_index",
    "register_index_kind",
    "exact_topk",
    "recall_at_k",
]

#: Supported similarity metrics: ``"ip"`` ranks by descending inner
#: product; ``"l2"`` by ascending squared euclidean distance (the TransE
#: scoring geometry, where the query is ``u + r``).
METRICS: tuple[str, ...] = ("ip", "l2")

#: Save-file schema version.
FORMAT_VERSION = 1

_KINDS: dict[str, type["AnnIndex"]] = {}


def register_index_kind(cls: type["AnnIndex"]) -> type["AnnIndex"]:
    """Class decorator: make ``cls`` loadable by :func:`load_index`."""
    _KINDS[cls.kind] = cls
    return cls


class AnnIndex(abc.ABC):
    """Approximate top-k candidate index over a fixed vector table."""

    #: Short identifier stored in save files (``"ivf"`` / ``"lsh"``).
    kind: str = ""

    def __init__(self, seed: int = 0, metric: str = "ip") -> None:
        if metric not in METRICS:
            raise RetrievalError(f"unknown metric {metric!r}; known: {METRICS}")
        self.seed = int(seed)
        self.metric = metric
        self.generation: int | None = None
        self.num_vectors = 0
        self.dim = 0

    # ------------------------------------------------------------------ #
    # to be implemented by subclasses
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def build(self, vectors: np.ndarray, generation: int | None = None) -> "AnnIndex":
        """Index ``vectors`` (rows are item ids); returns ``self``."""

    @abc.abstractmethod
    def search(self, query: np.ndarray, k: int) -> np.ndarray:
        """Sorted unique candidate ids for one query (>= ``k`` when possible).

        The ids are strictly increasing int64 inside ``[0, num_vectors)``.
        The serving path relies on that order for speed only: the
        candidate guard (``validate_scores``) skips a sort when the ids
        are strictly increasing, and still judges any other order
        correctly, just slower.
        """

    @abc.abstractmethod
    def _state_arrays(self) -> dict[str, np.ndarray]:
        """Every array needed to reconstruct the index, by stable name."""

    @abc.abstractmethod
    def _restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`_state_arrays` (meta fields already set)."""

    def _config(self) -> dict:
        """Kind-specific scalar knobs persisted alongside the arrays."""
        return {}

    def _apply_config(self, config: dict) -> None:
        for key, value in config.items():
            setattr(self, key, value)

    # ------------------------------------------------------------------ #
    # shared surface
    # ------------------------------------------------------------------ #
    @property
    def is_built(self) -> bool:
        return self.num_vectors > 0

    def _require_built(self) -> None:
        if not self.is_built:
            raise RetrievalError(f"{type(self).__name__} has not been built")

    def _check_vectors(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[0] < 1:
            raise RetrievalError(
                f"index vectors must be a non-empty 2-d array, got shape "
                f"{vectors.shape}"
            )
        if not np.isfinite(vectors).all():
            raise RetrievalError("index vectors must be finite")
        return vectors

    def _check_query(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float32).ravel()
        if query.size != self.dim:
            raise RetrievalError(
                f"query has dimension {query.size}, index has {self.dim}"
            )
        return query

    def search_batch(self, queries: np.ndarray, k: int) -> list[np.ndarray]:
        """Per-query candidate id arrays (list of sorted unique int64)."""
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        return [self.search(queries[i], k) for i in range(queries.shape[0])]

    def fingerprint(self) -> str:
        """SHA-256 over the full index state (meta + every array, in order).

        Two builds from the same seed and vectors must produce equal
        fingerprints — the determinism contract tests and the bench smoke
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

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _meta(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "kind": self.kind,
            "metric": self.metric,
            "seed": self.seed,
            "generation": self.generation,
            "num_vectors": self.num_vectors,
            "dim": self.dim,
            "config": self._config(),
        }

    def save(self, path: str | Path) -> str:
        """Persist the built index as one ``.npz``; returns the path."""
        self._require_built()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {f"arr::{k}": v for k, v in self._state_arrays().items()}
        np.savez(
            path,
            meta=np.frombuffer(
                json.dumps(self._meta(), sort_keys=True).encode(), dtype=np.uint8
            ),
            **arrays,
        )
        return str(path)

    @classmethod
    def load(cls, path: str | Path) -> "AnnIndex":
        """Load an index saved by :meth:`save` (kind must match ``cls``)."""
        index = load_index(path)
        if cls is not AnnIndex and not isinstance(index, cls):
            raise RetrievalError(
                f"{path} holds a {type(index).__name__}, not a {cls.__name__}"
            )
        return index


def load_index(path: str | Path) -> AnnIndex:
    """Load any saved :class:`AnnIndex`, dispatching on its ``kind``."""
    path = Path(path)
    if not path.is_file():
        raise RetrievalError(f"no index file at {path}")
    try:
        with np.load(path) as bundle:
            meta = json.loads(bytes(bundle["meta"].tobytes()).decode())
            arrays = {
                name[len("arr::"):]: bundle[name]
                for name in bundle.files
                if name.startswith("arr::")
            }
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise RetrievalError(f"{path} is not a readable index file: {exc}") from exc
    if meta.get("format") != FORMAT_VERSION:
        raise RetrievalError(
            f"{path} has index format {meta.get('format')!r}, "
            f"this build reads {FORMAT_VERSION}"
        )
    kind = meta.get("kind")
    if kind not in _KINDS:
        raise RetrievalError(f"{path} holds unknown index kind {kind!r}")
    index = _KINDS[kind](seed=meta["seed"], metric=meta["metric"])
    index.generation = meta["generation"]
    index.num_vectors = int(meta["num_vectors"])
    index.dim = int(meta["dim"])
    index._apply_config(meta.get("config", {}))
    index._restore_arrays(arrays)
    return index


# --------------------------------------------------------------------- #
# exact references (ground truth for recall and the rerank stage)
# --------------------------------------------------------------------- #
def pairwise_scores(
    vectors: np.ndarray, query: np.ndarray, metric: str
) -> np.ndarray:
    """Exact scores of every row of ``vectors`` against one query.

    Higher is better for both metrics (``l2`` returns negated squared
    distances), matching the ``score_all`` convention.
    """
    vectors = np.asarray(vectors)
    query = np.asarray(query, dtype=vectors.dtype).ravel()
    if metric == "ip":
        return vectors @ query
    delta = vectors - query[None, :]
    return -np.einsum("ij,ij->i", delta, delta)


def exact_topk(
    vectors: np.ndarray, query: np.ndarray, k: int, metric: str = "ip"
) -> np.ndarray:
    """The true top-``k`` ids (descending score, stable ties) — ground truth."""
    scores = pairwise_scores(vectors, query, metric)
    k = min(int(k), scores.size)
    top = np.argpartition(-scores, k - 1)[:k]
    return top[np.argsort(-scores[top], kind="stable")].astype(np.int64)


def recall_at_k(candidates: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of the true top-k present in the candidate set."""
    truth = np.asarray(truth)
    if truth.size == 0:
        return 1.0
    return float(np.isin(truth, candidates).mean())
