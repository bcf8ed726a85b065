"""User-item interaction matrices (Section 3 of the survey, "User Feedback").

The survey defines the binary feedback matrix ``R \\in R^{m x n}`` with
``R_ij = 1`` iff an (implicit) interaction between user ``u_i`` and item
``v_j`` was observed.  :class:`InteractionMatrix` is that object: a sparse,
immutable matrix with fast per-user and per-item access, optional explicit
ratings, and negative-sampling utilities used by ranking losses (BPR etc.).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .exceptions import DataError
from .rng import ensure_rng

__all__ = ["InteractionMatrix"]


class InteractionMatrix:
    """Immutable sparse user-item feedback matrix.

    Parameters
    ----------
    user_ids, item_ids:
        Parallel integer arrays of observed interactions.  Duplicate
        (user, item) pairs are collapsed (ratings keep the last value).
    num_users, num_items:
        Matrix dimensions ``m`` and ``n``.  Ids must lie in range.
    ratings:
        Optional explicit feedback values aligned with the id arrays.  When
        omitted the matrix is binary implicit feedback.
    """

    def __init__(
        self,
        user_ids: np.ndarray,
        item_ids: np.ndarray,
        num_users: int,
        num_items: int,
        ratings: np.ndarray | None = None,
    ) -> None:
        user_ids = np.asarray(user_ids, dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if user_ids.shape != item_ids.shape or user_ids.ndim != 1:
            raise DataError("user_ids and item_ids must be parallel 1-d arrays")
        if num_users <= 0 or num_items <= 0:
            raise DataError("num_users and num_items must be positive")
        if user_ids.size and (user_ids.min() < 0 or user_ids.max() >= num_users):
            raise DataError("user id out of range")
        if item_ids.size and (item_ids.min() < 0 or item_ids.max() >= num_items):
            raise DataError("item id out of range")
        if ratings is not None:
            ratings = np.asarray(ratings, dtype=np.float64)
            if ratings.shape != user_ids.shape:
                raise DataError("ratings must align with user_ids/item_ids")

        self._num_users = int(num_users)
        self._num_items = int(num_items)
        values = np.ones(user_ids.size) if ratings is None else ratings
        # COO -> CSR collapses duplicates by summing; deduplicate first so a
        # repeated pair keeps its last rating instead of an accumulated sum.
        key = user_ids * num_items + item_ids
        __, last_index = np.unique(key[::-1], return_index=True)
        keep = user_ids.size - 1 - last_index
        keep.sort()
        self._csr = sparse.csr_matrix(
            (values[keep], (user_ids[keep], item_ids[keep])),
            shape=(num_users, num_items),
        )
        self._csr.sort_indices()
        self._csc = self._csr.tocsc()
        self._has_ratings = ratings is not None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_pairs(
        cls,
        pairs: "np.ndarray | list[tuple[int, int]]",
        num_users: int,
        num_items: int,
    ) -> "InteractionMatrix":
        """Build a binary matrix from an ``(n, 2)`` array of (user, item) pairs."""
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise DataError("pairs must have shape (n, 2)")
        return cls(arr[:, 0], arr[:, 1], num_users, num_items)

    @classmethod
    def empty(cls, num_users: int, num_items: int) -> "InteractionMatrix":
        """An all-zero matrix (useful as a placeholder split)."""
        zero = np.empty(0, dtype=np.int64)
        return cls(zero, zero, num_users, num_items)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_users(self) -> int:
        return self._num_users

    @property
    def num_items(self) -> int:
        return self._num_items

    @property
    def shape(self) -> tuple[int, int]:
        return (self._num_users, self._num_items)

    @property
    def nnz(self) -> int:
        """Number of observed interactions."""
        return int(self._csr.nnz)

    @property
    def density(self) -> float:
        """Fraction of the matrix that is observed."""
        return self.nnz / (self._num_users * self._num_items)

    def __len__(self) -> int:
        return self.nnz

    def __repr__(self) -> str:
        kind = "explicit" if self._has_ratings else "implicit"
        return (
            f"InteractionMatrix({self._num_users}x{self._num_items}, "
            f"nnz={self.nnz}, {kind})"
        )

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def items_of(self, user_id: int) -> np.ndarray:
        """Item ids interacted with by ``user_id`` (sorted ascending)."""
        self._check_user(user_id)
        start, end = self._csr.indptr[user_id], self._csr.indptr[user_id + 1]
        return self._csr.indices[start:end].astype(np.int64)

    def contains(self, user_id: int, item_id: int) -> bool:
        """Whether (user, item) was observed."""
        items = self.items_of(user_id)
        pos = np.searchsorted(items, item_id)
        return bool(pos < items.size and items[pos] == item_id)

    def user_degrees(self) -> np.ndarray:
        """Per-user interaction counts, shape ``(m,)``."""
        return np.diff(self._csr.indptr).astype(np.int64)

    def item_degrees(self) -> np.ndarray:
        """Per-item interaction counts, shape ``(n,)``."""
        return np.diff(self._csc.indptr).astype(np.int64)

    def pairs(self) -> np.ndarray:
        """All observed (user, item) pairs as an ``(nnz, 2)`` array."""
        coo = self._csr.tocoo()
        return np.column_stack([coo.row, coo.col]).astype(np.int64)

    def to_dense(self) -> np.ndarray:
        """Dense ``(m, n)`` float array (small matrices / tests only)."""
        return np.asarray(self._csr.todense(), dtype=np.float64)

    def to_csr(self) -> sparse.csr_matrix:
        """A copy of the underlying CSR matrix."""
        return self._csr.copy()

    # ------------------------------------------------------------------ #
    # negative sampling
    # ------------------------------------------------------------------ #
    def sample_bpr_triples(
        self,
        size: int,
        seed: int | np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample ``(user, positive_item, negative_item)`` triples for BPR.

        Users are sampled proportionally to their interaction counts, the
        positive uniformly from their history, and the negative by rejection.
        """
        if self.nnz == 0:
            raise DataError("cannot sample from an empty interaction matrix")
        rng = ensure_rng(seed)
        all_pairs = self.pairs()
        idx = rng.integers(0, all_pairs.shape[0], size=size)
        users = all_pairs[idx, 0]
        positives = all_pairs[idx, 1]
        negatives = rng.integers(0, self._num_items, size=size)
        for i in range(size):
            while self.contains(users[i], negatives[i]):
                negatives[i] = rng.integers(0, self._num_items)
        return users, positives, negatives.astype(np.int64)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _check_user(self, user_id: int) -> None:
        if not 0 <= user_id < self._num_users:
            raise DataError(f"user id {user_id} out of range [0, {self._num_users})")
