"""Alignment validation and degenerate-input edge cases."""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.exceptions import DataError
from repro.core.interactions import InteractionMatrix


class TestAlignmentValidation:
    def test_unaligned_items_rejected_by_kg_models(self, tiny_kg):
        from repro.models.unified import RippleNet

        broken = Dataset(
            name="broken",
            interactions=InteractionMatrix.from_pairs([(0, 0), (1, 1)], 2, 2),
            kg=tiny_kg,
            item_entities=np.asarray([0, -1]),  # item 1 unaligned
        )
        with pytest.raises(DataError, match="aligned"):
            RippleNet(epochs=1).fit(broken)

    def test_missing_alignment_rejected(self, tiny_kg):
        from repro.models.unified import KGCN

        broken = Dataset(
            name="broken",
            interactions=InteractionMatrix.from_pairs([(0, 0), (1, 1)], 2, 2),
            kg=tiny_kg,
        )
        with pytest.raises(DataError):
            KGCN(epochs=1).fit(broken)


class TestDegenerateInputs:
    def test_user_with_no_interactions_scores(self, tiny_kg):
        """Models must score users with empty history without crashing."""
        from repro.models.baselines import MostPopular
        from repro.models.embedding_based import SED

        data = Dataset(
            name="sparse-user",
            interactions=InteractionMatrix.from_pairs([(0, 0), (0, 1)], 3, 2),
            kg=tiny_kg,
            item_entities=np.asarray([0, 1]),
        )
        for model in (MostPopular(), SED()):
            model.fit(data)
            scores = model.score_all(2)  # user 2 has no history
            assert scores.shape == (2,)
            assert np.isfinite(scores).all()

    def test_single_relation_graph_metapaths(self):
        """Meta-path selection must survive a one-relation KG."""
        from repro.data import AttributeSpec, ScenarioSchema, generate_dataset
        from repro.models.path_based import HeteRec

        schema = ScenarioSchema(
            scenario="mono",
            item_type="thing",
            attributes=(AttributeSpec("tag", "tagged", count=6, per_item=(1, 2)),),
        )
        data = generate_dataset(schema, num_users=8, num_items=12, seed=0)
        model = HeteRec(theta_epochs=2, nmf_iterations=10, seed=0).fit(data)
        assert np.isfinite(model.score_all(0)).all()
