"""Deterministic fault injection for exercising the resilience layer.

Every guard in :mod:`repro.runtime` must be testable without flaky sleeps
or monkey-patched randomness, so faults are *planned*: a
:class:`FaultPlan` maps global step indices to fault kinds, either listed
explicitly or drawn once from a seeded RNG.  A :class:`FaultInjector`
executes the plan inside a training loop — called with the current step
and parameter list right before ``optimizer.step()``:

* ``"nan_grad"`` — overwrite every gradient with NaN (exercises the
  ``skip_nonfinite`` policies and :class:`~repro.runtime.guards.DivergenceDetector`),
* ``"raise"`` — raise :class:`InjectedFault` mid-epoch (exercises retry,
  panel isolation, and checkpoint/resume),
* ``"stall"`` — invoke the injector's ``sleep`` callable for
  ``Fault.seconds`` (exercises time budgets; tests pass a fake clock's
  ``advance`` so nothing actually sleeps).

The serving layer (:mod:`repro.serving`) reuses the same plan/injector
machinery with *serving-shaped* faults, where ``step`` is the global
request index instead of the training step:

* ``"latency"`` — invoke ``sleep`` for ``Fault.seconds`` while a model is
  scoring (exercises deadlines and load shedding),
* ``"exception"`` — raise :class:`InjectedFault` from inside a model call
  (exercises circuit breakers and fallback chains),
* ``"nan_scores"`` — poison the model's score vector with NaN (exercises
  :func:`~repro.runtime.guards.validate_scores` at the serving boundary),
* ``"index_stale"`` — raise
  :class:`~repro.core.exceptions.IndexStaleError` from inside the model
  call, as a live ANN index that no longer matches its embeddings would
  (exercises the candidate rung's typed degradation to the exact rung).

Training hooks ignore serving kinds and vice versa, so one plan can drive
both layers.

The durable embedding store (:mod:`repro.store`) adds *IO-shaped* faults,
where ``step`` is the store's global IO-operation index (every byte-level
write/rename the store performs advances it, see
:class:`repro.store.io.StoreIO`):

* ``"torn_write"`` — only a prefix of the payload reaches the file, then
  the process "dies" (:class:`InjectedCrash`) — a torn page,
* ``"bitrot"`` — the write completes but one byte is silently flipped
  (latent media corruption; discovered only by checksum verification),
* ``"crash_before_rename"`` — the process dies with the temp file written
  but the atomic rename not yet issued,
* ``"crash_after_rename"`` — the rename is durable, then the process dies
  (everything after the commit point is lost),
* ``"fsync_fail"`` — ``fsync`` raises ``OSError`` (the write's durability
  is unknown); unlike a crash this is *returned* to the store, which must
  abort the commit cleanly.

IO faults are applied by :class:`repro.store.io.FaultingStoreIO`, which
wraps these kinds around the store's write hooks; the store's crash
cells (:func:`repro.store.harness.crash_cells`) sweep them across every
IO op of a train→checkpoint→promote scenario.

The online learning loop (:mod:`repro.online`) adds *churn-shaped* faults,
where ``step`` is the global interaction-batch index of the stream:

* ``"poison_batch"`` — the arriving interaction batch is corrupted (NaN
  weights, negated item ids), as a broken upstream event feed would
  deliver; the shadow trainer must quarantine it with a typed
  :class:`~repro.core.exceptions.OnlineUpdateError`, never train on it,
* ``"trainer_stall"`` — the shadow trainer stalls for ``Fault.seconds``
  before applying the batch (exercises freshness under a lagging trainer),
* ``"commit_crash"`` — the process dies between the shadow store's shard
  commit and the manifest rename (the loop arms the store IO's
  manifest-crash hook; recovery must land on the previous generation),
* ``"sync_fail"`` — ``sync_index`` raises mid-promotion, so the candidate
  is rejected with the previous live model untouched,
* ``"canary_regress"`` — the candidate scores NaN on the canary probe and
  the promotion is rejected,
* ``"late_regress"`` — the candidate passes its canary but regresses
  immediately after the swap; the loop's post-promotion watch must detect
  the degradation and roll the live model back.

:func:`run_matrix` is the one fault-matrix runner behind
``python -m repro fault-matrix``.  Each subsystem owns one cell function
that replays its faults for a seed and returns :class:`FaultCell`
verdicts; the runner sweeps every seed through every subsystem, checks
that each kind a subsystem owns fired in at least one cell, and reports
every violation at once.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.exceptions import ConfigError, IndexStaleError
from repro.core.rng import check_seeds, ensure_rng
from repro.runtime.guards import raw_grad

__all__ = [
    "FAULT_KINDS",
    "TRAINING_FAULT_KINDS",
    "SERVING_FAULT_KINDS",
    "IO_FAULT_KINDS",
    "ONLINE_FAULT_KINDS",
    "PROMOTION_FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "FaultCell",
    "run_matrix",
]

TRAINING_FAULT_KINDS: tuple[str, ...] = ("nan_grad", "raise", "stall")
SERVING_FAULT_KINDS: tuple[str, ...] = (
    "latency",
    "exception",
    "nan_scores",
    "index_stale",
)
IO_FAULT_KINDS: tuple[str, ...] = (
    "torn_write",
    "bitrot",
    "crash_before_rename",
    "crash_after_rename",
    "fsync_fail",
)
ONLINE_FAULT_KINDS: tuple[str, ...] = (
    "poison_batch",
    "trainer_stall",
    "commit_crash",
    "sync_fail",
    "canary_regress",
    "late_regress",
)
#: The subset of online kinds that fire at a commit/promote cycle rather
#: than at batch arrival (the loop consults these once per cycle).
PROMOTION_FAULT_KINDS: tuple[str, ...] = (
    "commit_crash",
    "sync_fail",
    "canary_regress",
    "late_regress",
)
FAULT_KINDS: tuple[str, ...] = (
    TRAINING_FAULT_KINDS + SERVING_FAULT_KINDS + IO_FAULT_KINDS
    + ONLINE_FAULT_KINDS
)


class InjectedFault(RuntimeError):
    """Raised by a planned ``"raise"`` fault (deliberately *not* a KgrecError,
    mimicking an arbitrary crash escaping a model's ``fit``)."""


class InjectedCrash(RuntimeError):
    """Simulated process death in the middle of a store IO operation.

    Deliberately not a KgrecError: nothing in the write path may catch it,
    exactly as nothing catches SIGKILL.  The durability harness catches it
    at the very top, discards every in-memory object, and re-opens the
    store from disk — the software equivalent of pulling the plug.
    """


@dataclass(frozen=True)
class Fault:
    """One planned fault at a global step index."""

    step: int
    kind: str
    seconds: float = 0.0  # stall duration; ignored for other kinds

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.step < 0:
            raise ConfigError("fault step must be >= 0")


class FaultPlan:
    """An immutable schedule of faults, queryable by step."""

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._by_step: dict[int, list[Fault]] = {}
        for fault in faults:
            self._by_step.setdefault(fault.step, []).append(fault)

    @classmethod
    def random(
        cls,
        num_steps: int,
        rate: float = 0.05,
        kinds: tuple[str, ...] = ("nan_grad",),
        seed: int = 0,
        seconds: float = 1.0,
    ) -> "FaultPlan":
        """A seeded random plan: each step faults with probability ``rate``."""
        if not 0.0 <= rate <= 1.0:
            raise ConfigError("rate must lie in [0, 1]")
        rng = ensure_rng(seed)
        faults = []
        for step in range(num_steps):
            if rng.random() < rate:
                kind = kinds[int(rng.integers(len(kinds)))]
                faults.append(Fault(step=step, kind=kind, seconds=seconds))
        return cls(faults)

    def at(self, step: int) -> list[Fault]:
        return self._by_step.get(step, [])

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_step.values())

    def __iter__(self):
        for step in sorted(self._by_step):
            yield from self._by_step[step]


class FaultInjector:
    """Executes a :class:`FaultPlan` inside a training loop.

    Call :meth:`before_step` with the global step index and the parameter
    list right after ``backward()`` and before ``optimizer.step()``.
    ``injected`` records every fault that fired, in order.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self.sleep = sleep
        self.injected: list[Fault] = []

    def before_step(self, step: int, params=()) -> None:
        for fault in self.plan.at(step):
            if fault.kind not in TRAINING_FAULT_KINDS:
                continue
            self.injected.append(fault)
            if fault.kind == "nan_grad":
                for p in params:
                    g = raw_grad(p)
                    if g is None:
                        continue
                    # Poison the stored entries — for sparse row gradients
                    # that is every touched row, without densifying.
                    (g if isinstance(g, np.ndarray) else g.vals)[...] = np.nan
            elif fault.kind == "stall":
                self.sleep(fault.seconds)
            else:  # "raise"
                raise InjectedFault(f"injected fault at step {step}")

    # ------------------------------------------------------------------ #
    # serving-shaped hooks (step = global request index)
    # ------------------------------------------------------------------ #
    def on_request(self, step: int) -> None:
        """Fire ``latency``/``exception`` faults planned for request ``step``.

        Call from inside the protected model call, so the injected delay is
        attributed to scoring (deadline checks see it) and the injected
        exception escapes the model, not the service.
        """
        for fault in self.plan.at(step):
            if fault.kind == "latency":
                self.injected.append(fault)
                self.sleep(fault.seconds)
            elif fault.kind == "exception":
                self.injected.append(fault)
                raise InjectedFault(f"injected serving fault at request {step}")
            elif fault.kind == "index_stale":
                self.injected.append(fault)
                raise IndexStaleError(
                    f"injected stale ANN index at request {step}"
                )

    # ------------------------------------------------------------------ #
    # IO-shaped hooks (step = the store's global IO-operation index)
    # ------------------------------------------------------------------ #
    def io_faults(self, step: int) -> list["Fault"]:
        """IO faults planned for store IO op ``step`` (recorded as injected).

        The *semantics* of each kind live in
        :class:`repro.store.io.FaultingStoreIO`, which consults this hook
        from inside the store's write/rename primitives; this method only
        selects and records them, keeping the plan/injector machinery the
        single source of truth for what fired when.
        """
        faults = [f for f in self.plan.at(step) if f.kind in IO_FAULT_KINDS]
        self.injected.extend(faults)
        return faults

    def corrupt_scores(self, step: int, scores: np.ndarray) -> np.ndarray:
        """Apply any ``nan_scores`` fault planned for request ``step``."""
        for fault in self.plan.at(step):
            if fault.kind == "nan_scores":
                self.injected.append(fault)
                scores = np.asarray(scores, dtype=np.float64).copy()
                scores[...] = np.nan
        return scores

    # ------------------------------------------------------------------ #
    # online-loop hooks (step = global interaction-batch index)
    # ------------------------------------------------------------------ #
    def on_online_batch(self, step: int) -> None:
        """Fire any ``trainer_stall`` fault planned for batch ``step``."""
        for fault in self.plan.at(step):
            if fault.kind == "trainer_stall":
                self.injected.append(fault)
                self.sleep(fault.seconds)

    def corrupt_interactions(
        self, step: int, users: np.ndarray, items: np.ndarray,
        weights: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply any ``poison_batch`` fault planned for batch ``step``.

        The corruption is the shape a broken upstream feed produces: every
        weight becomes NaN and the item ids are negated — both violations
        the shadow trainer's batch validation must catch and quarantine.
        """
        for fault in self.plan.at(step):
            if fault.kind == "poison_batch":
                self.injected.append(fault)
                weights = np.full(np.asarray(weights).shape, np.nan)
                items = -(np.asarray(items, dtype=np.int64) + 1)
        return users, items, weights

    def promotion_faults(self, step: int) -> list["Fault"]:
        """Promotion-cycle faults planned for batch ``step`` (recorded).

        The *semantics* live in :mod:`repro.online.loop`, which arms the
        store IO's manifest-crash hook (``commit_crash``) or wraps the
        candidate model (``sync_fail`` / ``canary_regress`` /
        ``late_regress``); this method only selects and records them,
        keeping the plan/injector machinery the single source of truth.
        """
        faults = [
            f for f in self.plan.at(step) if f.kind in PROMOTION_FAULT_KINDS
        ]
        self.injected.extend(faults)
        return faults


# ---------------------------------------------------------------------- #
# the fault matrix
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class FaultCell:
    """One verdict of the fault matrix.

    ``kind`` is the fault kind the cell injects, or a label such as
    ``"none"`` for a fault-free check; ``fired`` lists the kinds its
    injectors actually recorded, which the coverage check reads.
    """

    subsystem: str
    seed: int
    kind: str
    problems: tuple[str, ...] = ()
    fired: tuple[str, ...] = ()
    summary: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


#: ``cell_fn(seed, directory)`` -> that seed's cells for one subsystem.
CellFn = Callable[[int, Path], Iterable[FaultCell]]


def run_matrix(
    cell_fns: Mapping[str, tuple[tuple[str, ...], CellFn]],
    seeds: Iterable[int],
    workdir: str | Path | None = None,
) -> str:
    """Run every seed through every subsystem's cell function.

    ``cell_fns`` maps a subsystem name to ``(owned kinds, cell function)``;
    each call gets its own empty directory under ``workdir`` (a temporary
    directory when ``None``).  Every cell runs before anything is judged:
    failed cells, cell functions that raised, and owned kinds that fired
    in no cell all go into one :class:`AssertionError`.  Returns the
    printable summary when the matrix is clean.  Seeds must be distinct
    and non-negative and ``workdir`` empty or absent, else
    :class:`ConfigError`.
    """
    seeds = check_seeds(seeds)
    if workdir is not None:
        root = Path(workdir)
        if root.exists() and (not root.is_dir() or any(root.iterdir())):
            raise ConfigError(f"workdir {root} is not an empty directory")

    cells: list[FaultCell] = []
    with tempfile.TemporaryDirectory(prefix="fault-matrix-") as tmp:
        root = Path(workdir if workdir is not None else tmp)
        for name, (__, cell_fn) in cell_fns.items():
            for seed in seeds:
                directory = root / name / f"seed{seed}"
                directory.mkdir(parents=True)
                try:
                    cells.extend(cell_fn(seed, directory))
                except Exception as exc:  # judged with the rest, not fatal
                    cells.append(FaultCell(
                        name, seed, "error",
                        problems=(f"raised {type(exc).__name__}: {exc}",),
                    ))

    problems = [
        f"{c.subsystem} seed={c.seed} {c.kind}: {p}"
        for c in cells for p in c.problems
    ]
    for name, (owned, __) in cell_fns.items():
        fired = {k for c in cells if c.subsystem == name for k in c.fired}
        problems += [
            f"{name}: owned fault kind {k!r} fired in no cell"
            for k in owned if k not in fired
        ]
    lines = [
        f"{c.subsystem:<9s} seed={c.seed} {c.kind:<19s} "
        f"{'ok  ' if c.ok else 'FAIL'} {c.summary}"
        for c in cells
    ]
    if problems:
        raise AssertionError("\n".join(
            lines + [f"fault matrix FAILED: {len(problems)} violation(s)"]
            + [f"  {p}" for p in problems]
        ))
    return "\n".join(lines + [
        f"fault matrix OK: {len(cells)} cells, {len(seeds)} seed(s) x "
        f"{len(cell_fns)} subsystem(s), every owned fault kind fired"
    ])
