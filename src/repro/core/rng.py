"""Seeding helpers.

Every stochastic component in the library takes either an integer ``seed`` or
a :class:`numpy.random.Generator`.  :func:`ensure_rng` normalizes both forms.
:func:`check_seeds` validates the seed lists that the seed-sweeping runners
(the fault matrix, the claims table) run over.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .exceptions import ConfigError

__all__ = ["ensure_rng", "check_seeds"]


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a non-deterministic generator, an ``int`` a deterministic
    one, and an existing generator is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_seeds(seeds: Iterable[int]) -> tuple[int, ...]:
    """Return ``seeds`` as a tuple; :class:`ConfigError` unless the list is
    non-empty, non-negative and free of repeats."""
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("a sweep needs at least one seed")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {min(seeds)}")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"seeds must be distinct, got {repeated} twice")
    return seeds
