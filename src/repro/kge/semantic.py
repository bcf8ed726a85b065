"""Semantic-matching KGE models: DistMult and ComplEx.

These score triples by similarity in a latent space rather than by
translation distance.  DistMult is the model RCF uses to preserve
relational structure between items; ComplEx is included as the natural
extension handling asymmetric relations (a "future directions" item).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor

from .base import KGEModel

__all__ = ["DistMult", "ComplEx", "RotatE"]


class DistMult(KGEModel):
    """DistMult: ``score = sum(h * r * t)`` (a diagonal bilinear form)."""

    loss_type = "logistic"
    normalize_entities = False

    def score(self, heads, relations, tails) -> Tensor:
        h = self.entity(heads)
        r = self.relation(relations)
        t = self.entity(tails)
        return (h * r * t).sum(axis=1)


class ComplEx(KGEModel):
    """ComplEx: Hermitian product ``Re(<h, r, conj(t)>)``.

    Embeddings are stored with real and imaginary halves concatenated in a
    single ``2 * dim``-wide table, so the base-class trainer applies
    unchanged.
    """

    loss_type = "logistic"
    normalize_entities = False

    def __init__(self, num_entities: int, num_relations: int, dim: int = 16, seed=None) -> None:
        self.half = dim
        super().__init__(num_entities, num_relations, dim * 2, seed=seed)

    def _split(self, x: Tensor) -> tuple[Tensor, Tensor]:
        return x[:, : self.half], x[:, self.half :]

    def score(self, heads, relations, tails) -> Tensor:
        h_re, h_im = self._split(self.entity(heads))
        r_re, r_im = self._split(self.relation(relations))
        t_re, t_im = self._split(self.entity(tails))
        real = (h_re * r_re * t_re).sum(axis=1)
        real = real + (h_im * r_re * t_im).sum(axis=1)
        real = real + (h_re * r_im * t_im).sum(axis=1)
        return real - (h_im * r_im * t_re).sum(axis=1)


class RotatE(KGEModel):
    """RotatE: relations as rotations in the complex plane (extension).

    ``t ~ h o r`` with ``|r_i| = 1``; the score is the negated squared
    modulus of ``h o r - t``.  Post-survey but the natural next point on
    the translation-family axis, included for the E5 comparison.  The unit
    modulus is enforced by construction: the relation table stores phase
    angles and the rotation is ``(cos theta, sin theta)``.
    """

    loss_type = "margin"
    normalize_entities = True

    def __init__(self, num_entities: int, num_relations: int, dim: int = 16, seed=None) -> None:
        self.half = dim
        super().__init__(num_entities, num_relations, dim * 2, seed=seed)

    def _build(self, rng) -> None:
        # Relation embeddings are phases; re-init to a sensible range.
        self.relation.weight.data[:] = rng.uniform(
            -np.pi, np.pi, size=self.relation.weight.shape
        )

    def _split(self, x: Tensor) -> tuple[Tensor, Tensor]:
        return x[:, : self.half], x[:, self.half :]

    def score(self, heads, relations, tails) -> Tensor:
        h_re, h_im = self._split(self.entity(heads))
        t_re, t_im = self._split(self.entity(tails))
        phase = self.relation(relations)[:, : self.half]
        # cos/sin through the engine: cos(x) = sin(x + pi/2) not available,
        # so build both from tanh-free primitives: use exp of imaginary
        # parts is unavailable too -> express via the available ops:
        # cos(x), sin(x) implemented with numpy in forward and exact
        # derivatives via the chain rule below.
        cos = _cosine(phase)
        sin = _sine(phase)
        rot_re = h_re * cos - h_im * sin
        rot_im = h_re * sin + h_im * cos
        d_re = rot_re - t_re
        d_im = rot_im - t_im
        return -((d_re * d_re).sum(axis=1) + (d_im * d_im).sum(axis=1))


def _cosine(x: Tensor) -> Tensor:
    out_data = np.cos(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(-grad * np.sin(x.data))

    return Tensor._make(out_data, (x,), backward)


def _sine(x: Tensor) -> Tensor:
    out_data = np.sin(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.cos(x.data))

    return Tensor._make(out_data, (x,), backward)
