"""Resilient training runtime: guards, retries, checkpoints, fault injection.

This package is the robustness layer every iterative trainer and
experiment harness runs through:

* :mod:`repro.runtime.guards` — gradient/parameter finiteness checks,
  global-norm clipping, and loss-divergence detection.
* :mod:`repro.runtime.retry` — :class:`RetryPolicy`, seeded exponential
  backoff usable as a decorator, a direct call, or an attempt loop.
* :mod:`repro.runtime.checkpoint` — ``.npz`` snapshot/restore of
  parameters + optimizer + RNG state, with periodic saves and
  resume-from-latest.
* :mod:`repro.runtime.faults` — deterministic fault injection so every
  guard is testable without flaky sleeps.

:class:`TrainingRuntime` bundles the pieces into a single object that
iterative ``fit`` loops accept (see :meth:`repro.kge.base.KGEModel.fit`).
Telemetry is not one of them: a fit reports to the active telemetry,
installed with :func:`repro.telemetry.activated`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import Checkpoint, Checkpointer, load_checkpoint, save_checkpoint
from .faults import (
    FAULT_KINDS,
    IO_FAULT_KINDS,
    SERVING_FAULT_KINDS,
    TRAINING_FAULT_KINDS,
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
)
from .guards import (
    NONFINITE_POLICIES,
    DivergenceDetector,
    ScoreReport,
    clip_grad_norm,
    grad_norm,
    has_nonfinite_grad,
    raw_grad,
    validate_scores,
    zero_nonfinite_grads,
)
from .retry import Attempt, RetryPolicy

__all__ = [
    "raw_grad",
    "grad_norm",
    "clip_grad_norm",
    "has_nonfinite_grad",
    "zero_nonfinite_grads",
    "validate_scores",
    "ScoreReport",
    "NONFINITE_POLICIES",
    "DivergenceDetector",
    "RetryPolicy",
    "Attempt",
    "Checkpoint",
    "Checkpointer",
    "save_checkpoint",
    "load_checkpoint",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "FAULT_KINDS",
    "TRAINING_FAULT_KINDS",
    "SERVING_FAULT_KINDS",
    "IO_FAULT_KINDS",
    "TrainingRuntime",
]


@dataclass
class TrainingRuntime:
    """Bundle of runtime services threaded through an iterative ``fit``.

    All fields are optional; a default-constructed runtime is a no-op, so
    trainers can call the hook methods unconditionally.
    """

    divergence: DivergenceDetector | None = None
    checkpointer: Checkpointer | None = None
    faults: FaultInjector | None = None

    def before_step(self, step: int, params=()) -> None:
        """Fault-injection hook: call after ``backward``, before ``step``."""
        if self.faults is not None:
            self.faults.before_step(step, params)

    def observe_loss(self, loss: float) -> float:
        """Divergence hook: call once per optimizer step with the batch loss."""
        if self.divergence is not None:
            return self.divergence.update(loss)
        return float(loss)

    def resume(self, params, optimizer=None, rng: np.random.Generator | None = None) -> Checkpoint | None:
        """Restore the latest checkpoint into live objects, if one exists."""
        if self.checkpointer is None:
            return None
        return self.checkpointer.restore_latest(params, optimizer=optimizer, rng=rng)

    def maybe_checkpoint(
        self,
        step: int,
        params,
        optimizer=None,
        rng: np.random.Generator | None = None,
        extra: dict | None = None,
    ):
        """Periodic-save hook: call at the end of each epoch/step unit."""
        if self.checkpointer is None:
            return None
        return self.checkpointer.maybe_save(
            step, params, optimizer=optimizer, rng=rng, extra=extra
        )
