"""CKE — Collaborative Knowledge base Embedding (Zhang et al., KDD 2016).

Unifies structural, textual, and collaborative signals (survey Eq. 2-3):
the item latent is ``v_j = eta_j + x_j + z_j`` where ``eta_j`` is a trainable
CF offset, ``x_j`` the TransR embedding of the item's KG entity, and ``z_j``
an autoencoder code of the item's content features (when present).  The
preference score is the inner product ``u_i^T v_j`` trained with BPR.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import nn
from repro.autograd.tensor import Tensor
from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError
from repro.core.registry import register_model
from repro.kge import KGE_MODELS

from ..common import GradientRecommender
from .content import train_autoencoder

__all__ = ["CKE"]


@register_model("CKE")
class CKE(GradientRecommender):
    """Collaborative knowledge base embedding with TransR structure.

    ``kge`` selects the structural-knowledge encoder (the paper uses
    TransR; any model in :data:`repro.kge.KGE_MODELS` may be substituted,
    enabling the KGE-choice ablation of Study E5).
    """

    requires_kg = True

    def __init__(
        self,
        dim: int = 16,
        kge: str = "TransR",
        kge_epochs: int = 15,
        ae_epochs: int = 30,
        finetune_structure: bool = False,
        **kwargs,
    ) -> None:
        super().__init__(dim=dim, loss="bpr", **kwargs)
        if kge not in KGE_MODELS:
            raise ConfigError(f"unknown KGE model {kge!r}; pick from {sorted(KGE_MODELS)}")
        self.kge_name = kge
        self.kge_epochs = kge_epochs
        self.ae_epochs = ae_epochs
        self.finetune_structure = finetune_structure

    def _build(self, dataset: Dataset, rng: np.random.Generator) -> None:
        kg = dataset.kg
        kge = KGE_MODELS[self.kge_name](
            kg.num_entities, kg.num_relations, dim=self.dim, seed=rng
        )
        kge.fit(kg.store, epochs=self.kge_epochs, seed=rng)
        structural = kge.entity_embeddings()[dataset.item_entities]
        if structural.shape[1] != self.dim:  # ComplEx doubles the width
            structural = structural[:, : self.dim]

        content = np.zeros((dataset.num_items, self.dim))
        if dataset.item_text is not None:
            content = train_autoencoder(
                dataset.item_text, self.dim, epochs=self.ae_epochs, seed=rng
            )

        if self.finetune_structure:
            self.structure = nn.Parameter(structural.copy())
        else:
            self.structure = Tensor(structural)
        self.content = Tensor(content)
        self.user = nn.Embedding(dataset.num_users, self.dim, seed=rng)
        self.offset = nn.Embedding(dataset.num_items, self.dim, seed=rng)

    def _score_batch(self, users: np.ndarray, items: np.ndarray) -> Tensor:
        u = self.user(users)
        v = self.offset(items) + self.structure[items] + self.content[items]
        return (u * v).sum(axis=1)

