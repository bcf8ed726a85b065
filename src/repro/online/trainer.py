"""Shadow trainer: sparse online updates into a durable embedding store.

The :class:`ShadowTrainer` owns the *train-mode* side of the online
loop's shadow copy.  Users and items share one ``"entity"`` table (users
occupy rows ``[0, num_users)``, items ``[num_users, num_users +
num_items)`` — the same lifted layout CFKG-style models use), backed by
a :class:`~repro.store.mmap.MmapShardStore`:

* :meth:`apply` validates one interaction batch — a poisoned batch
  raises a typed :class:`~repro.core.exceptions.OnlineUpdateError`
  *before* any array is touched, so quarantine never leaves a
  half-applied update — then takes one BPR step whose row-sparse
  gradient is coalesced with :func:`repro.autograd.sparse.coalesce_rows`
  and recorded via ``store.mark_dirty``, so a commit rewrites only the
  shards those rows live in;
* :meth:`commit` persists the dirty shards as a new store generation
  (the manifest rename is the single commit point — a crash in between
  recovers to the previous generation);
* :meth:`table_bytes` snapshots the exact ``<f4`` bytes a commit
  persists, which is what the churn harness compares served models
  against bitwise.

:class:`ManifestCrashIO` is the fault seam for the ``"commit_crash"``
online fault kind: the loop arms it right before a planned crashing
commit, and the next manifest rename dies with
:class:`~repro.runtime.faults.InjectedCrash` — after every shard of the
new generation is durable but before any of it is reachable.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.autograd.sparse import coalesce_rows
from repro.core.exceptions import ConfigError, OnlineUpdateError
from repro.core.rng import ensure_rng
from repro.runtime.faults import InjectedCrash
from repro.store.io import StoreIO
from repro.store.mmap import MmapShardStore

__all__ = ["ShadowTrainer", "ManifestCrashIO", "ENTITY_TABLE"]

#: The single embedding table the online world trains and serves.
ENTITY_TABLE = "entity"
#: BPR step size, L2 weight and passes per batch of every update.
LR = 0.2
REG = 0.01
EPOCHS = 3
#: Standard deviation of the seeded initial embeddings.
INIT_SCALE = 0.1


class ManifestCrashIO(StoreIO):
    """A :class:`StoreIO` that can be armed to die on the next manifest rename.

    Unlike :class:`~repro.store.io.FaultingStoreIO` (which faults at a
    planned global IO-op index), this seam targets a *semantic* point —
    the rename that would make a new generation reachable — regardless
    of how many IO ops preceded it.  That is exactly the
    ``"commit_crash"`` online fault: the segment durable, the manifest
    not.
    """

    def __init__(self) -> None:
        super().__init__()
        self._armed = False

    def arm_manifest_crash(self) -> None:
        self._armed = True

    def _do_replace(self, step: int, tmp: Path, final: Path) -> None:
        if self._armed and final.name.startswith("manifest-"):
            self._armed = False
            raise InjectedCrash(
                f"injected crash before manifest rename {final.name} "
                f"(io op {step})"
            )
        super()._do_replace(step, tmp, final)


class ShadowTrainer:
    """Validated sparse-row BPR updates against a train-mode store."""

    def __init__(
        self,
        store: MmapShardStore,
        num_users: int,
        num_items: int,
        dim: int = 16,
        seed: int = 0,
    ) -> None:
        if store.mode != "train":
            raise ConfigError(
                f"ShadowTrainer needs a train-mode store (got {store.mode!r})"
            )
        if num_users < 1 or num_items < 1:
            raise ConfigError("need at least one user and one item")
        if dim < 1:
            raise ConfigError("dim must be >= 1")
        self.store = store
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.dim = int(dim)
        self._rng = ensure_rng(seed)
        rows = self.num_users + self.num_items
        init = INIT_SCALE * ensure_rng(seed).standard_normal((rows, self.dim))
        # register() overwrites ``init`` from disk when the table already
        # exists (reopen after a crash), else dirties every row so the
        # first commit persists the full init.
        self.entity = store.register(ENTITY_TABLE, init)
        self.updates_applied = 0
        self.batches_quarantined = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def bootstrap(
        cls,
        directory: str | Path,
        num_users: int,
        num_items: int,
        dim: int = 16,
        seed: int = 0,
        rows_per_shard: int = 32,
        io: StoreIO | None = None,
    ) -> tuple["ShadowTrainer", int]:
        """Create the store, seed the entity table, commit generation 1.

        Returns ``(trainer, generation)`` — the generation the first
        served model (and the frozen freshness baseline) reads from.
        """
        store = MmapShardStore.create(
            directory, rows_per_shard=rows_per_shard, seed=seed, io=io
        )
        trainer = cls(store, num_users, num_items, dim=dim, seed=seed)
        generation = trainer.commit(tag="bootstrap")
        return trainer, generation

    # ------------------------------------------------------------------ #
    def validate_batch(
        self, users: np.ndarray, items: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Typed admission check for one batch; raises ``OnlineUpdateError``.

        Everything a broken upstream feed can deliver — NaN/Inf weights,
        out-of-range or negated ids, mismatched lengths — is rejected
        here, before any embedding row is touched.
        """
        users = np.asarray(users)
        items = np.asarray(items)
        weights = np.asarray(weights, dtype=np.float64)
        if users.ndim != 1 or items.ndim != 1 or weights.ndim != 1:
            raise OnlineUpdateError("batch arrays must be 1-d")
        if not (users.size == items.size == weights.size):
            raise OnlineUpdateError(
                f"batch length mismatch: {users.size} users, "
                f"{items.size} items, {weights.size} weights"
            )
        if users.size == 0:
            raise OnlineUpdateError("empty interaction batch")
        if not np.issubdtype(users.dtype, np.integer) or not np.issubdtype(
            items.dtype, np.integer
        ):
            raise OnlineUpdateError(
                f"ids must be integers (got {users.dtype}, {items.dtype})"
            )
        if not np.all(np.isfinite(weights)):
            raise OnlineUpdateError(
                f"{int((~np.isfinite(weights)).sum())}/{weights.size} "
                "weights are not finite"
            )
        if np.any(weights < 0):
            raise OnlineUpdateError("negative interaction weights")
        if np.any(users < 0) or np.any(users >= self.num_users):
            raise OnlineUpdateError(
                f"user ids outside [0, {self.num_users})"
            )
        if np.any(items < 0) or np.any(items >= self.num_items):
            raise OnlineUpdateError(
                f"item ids outside [0, {self.num_items})"
            )
        return users.astype(np.int64), items.astype(np.int64), weights

    def apply(
        self, users: np.ndarray, items: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Validated BPR update; returns the touched entity rows (sorted).

        Runs ``EPOCHS`` passes over the batch, each pairing every
        (user, item) positive with one fresh seeded negative; each
        pass's row gradient is coalesced (``coalesce_rows``, the
        sparse-gradient kernel, bitwise-equal to ``np.add.at``) and
        applied in one fancy
        assignment, and exactly those rows are marked dirty in the
        store.  A batch that fails validation raises
        :class:`OnlineUpdateError` with the arrays untouched.
        """
        try:
            users, items, weights = self.validate_batch(users, items, weights)
        except OnlineUpdateError:
            self.batches_quarantined += 1
            raise
        E = self.entity
        u_rows = users
        i_rows = self.num_users + items
        touched: np.ndarray | None = None
        for __ in range(EPOCHS):
            negatives = self._rng.integers(self.num_items, size=items.size)
            j_rows = self.num_users + negatives
            u, i, j = E[u_rows], E[i_rows], E[j_rows]
            x = np.sum(u * (i - j), axis=1)
            sig = 1.0 / (1.0 + np.exp(x))  # d(-log sigmoid(x))/dx = -sig
            w = (weights * sig)[:, None]
            gu = -w * (i - j) + REG * u
            gi = -w * u + REG * i
            gj = w * u + REG * j
            rows = np.concatenate([u_rows, i_rows, j_rows])
            vals = np.concatenate([gu, gi, gj])
            rows, vals = coalesce_rows(rows, vals)
            E[rows] -= LR * vals
            self.store.mark_dirty(ENTITY_TABLE, rows)
            touched = rows if touched is None else np.union1d(touched, rows)
        self.updates_applied += 1
        return touched

    # ------------------------------------------------------------------ #
    def commit(
        self, tag: str = "", overlap: Callable[[int], object] | None = None
    ) -> int:
        """Persist dirty shards as a new generation; ``overlap`` runs on
        this thread while the store's worker writes (see
        :meth:`MmapShardStore.commit`)."""
        return self.store.commit(tag, overlap)

    def table_bytes(self) -> bytes:
        """The exact ``<f4`` bytes a commit of the current arrays persists."""
        return np.ascontiguousarray(self.entity, dtype="<f4").tobytes()

