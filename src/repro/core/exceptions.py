"""Exception hierarchy for the kgrec reproduction framework.

All library errors derive from :class:`KgrecError` so callers can catch one
base class.  Specific subclasses signal configuration problems, data problems,
and misuse of model APIs (e.g. predicting before fitting).
"""

from __future__ import annotations


class KgrecError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(KgrecError):
    """An invalid hyper-parameter or option combination was supplied."""


class DataError(KgrecError):
    """Input data is malformed (bad shapes, ids out of range, empty sets)."""


class NotFittedError(KgrecError):
    """A model method requiring training was called before ``fit``."""


class GraphError(KgrecError):
    """A knowledge-graph operation received inconsistent graph inputs."""


class EvaluationError(KgrecError):
    """An evaluation protocol could not be carried out on the given split."""


class TrainingDivergedError(KgrecError):
    """A training run produced non-finite values or a runaway loss series."""


class CheckpointError(KgrecError):
    """A training checkpoint could not be written, read, or restored."""


class StoreError(KgrecError):
    """An embedding store operation failed (IO, missing generation, misuse)."""


class StoreCorruptionError(StoreError):
    """On-disk store data failed verification (bad magic, checksum, torn file)."""


class RetrievalError(KgrecError):
    """An ANN retrieval index operation failed (build or search)."""


class IndexStaleError(RetrievalError):
    """The ANN index does not match the embeddings currently being served.

    Raised by the two-stage retrieval rung when its candidate index was
    built against a different embedding generation (or catalog size) than
    the one its base recommender now scores with.  The serving ladder
    treats it like any rung failure: the request degrades to the exact
    rung — a typed outcome, never a mixed-generation answer.
    """


class OnlineError(KgrecError):
    """Base class for errors raised by the online learning loop."""


class OnlineUpdateError(OnlineError):
    """An online interaction batch failed validation and was quarantined.

    Raised by the shadow trainer when a batch carries non-finite weights
    or out-of-range ids (e.g. a poisoned upstream event feed).  The loop
    records the batch as *quarantined* — a typed outcome with the reason
    attached — and skips it; it is never silently dropped, and a bounded
    run of consecutive quarantines aborts the loop with
    :class:`OnlineError` instead of training on garbage forever.
    """


class ServingError(KgrecError):
    """Base class for errors raised at the online serving boundary."""


class RequestError(ServingError):
    """A serve request failed validation (unknown ids, malformed k, ...)."""


class DeadlineExceeded(ServingError):
    """A request overran its per-request deadline budget."""


class Overloaded(ServingError):
    """The admission queue is full; the request was shed, not queued."""


class ModelUnavailableError(ServingError):
    """No live model is registered (or every fallback rung failed)."""


class PromotionError(ServingError):
    """A candidate model failed its canary probe and was not promoted."""
