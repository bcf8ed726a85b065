"""Smoke tests for the comparative studies (E1-E8, E5b) at reduced scale.

``python -m repro claims`` runs every study at full size and judges its
checks (``tests/test_claims.py`` tests those checks on recorded rows);
here each study runs on a tiny world to cover its code path and row
schema inside the normal test budget.
"""

import numpy as np
import pytest

from repro.experiments import comparative
from repro.experiments.harness import results_table


@pytest.fixture(autouse=True)
def tiny_world(monkeypatch):
    monkeypatch.setattr(
        comparative,
        "DEFAULT_DATA_KWARGS",
        dict(num_users=16, num_items=24, mean_interactions=6.0),
    )


def _names(results):
    return [r.model for r in results]


class TestPanels:
    def test_e1_embedding(self):
        results = comparative.study_embedding_methods(seed=0, epochs=2)
        assert "CKE" in _names(results) and "BPR-MF" in _names(results)
        for r in results:
            assert 0.0 <= r["AUC"] <= 1.0

    def test_e2_path(self):
        results = comparative.study_path_methods(seed=0, epochs=1)
        assert "HeteRec" in _names(results)
        assert all(np.isfinite(r["AUC"]) for r in results)

    def test_e3_unified(self):
        results = comparative.study_unified_methods(seed=0, epochs=2)
        assert "RippleNet" in _names(results)

    def test_e6_aggregators(self):
        results = comparative.study_aggregators(seed=0, epochs=2)
        assert len(results) == 4

    def test_results_render(self):
        results = comparative.study_aggregators(seed=0, epochs=1)
        text = results_table(results)
        assert "KGCN[sum]" in text


class TestSweeps:
    def test_e1b_signal_rows(self):
        rows = comparative.study_kg_signal_sweep(seed=0, signals=(1.0, 0.0), epochs=2)
        assert {r["kg_signal"] for r in rows} == {1.0, 0.0}
        assert {r["model"] for r in rows} == {"BPR-MF", "KGCN", "RCF"}

    def test_e2b_metapath_counts(self):
        rows = comparative.study_metapath_count(seed=0, counts=(1, 2))
        assert [r["num_metapaths"] for r in rows] == [1, 2]

    def test_e3b_hops(self):
        rows = comparative.study_hop_depth(seed=0, hops=(1,))
        assert all(r["hops"] == 1 for r in rows)
        assert len(rows) == 2  # RippleNet + KGCN

    def test_e4_cold_start(self):
        rows = comparative.study_cold_start(seed=0)
        assert {r["model"] for r in rows} == {"BPR-MF", "ItemKNN", "CKE", "KGCN", "CFKG"}
        for r in rows:
            assert 0.0 <= r["value"] <= 1.0

    def test_e4b_sparsity(self):
        rows = comparative.study_sparsity(seed=0, levels=(8.0, 4.0))
        assert {r["mean_interactions"] for r in rows} == {8.0, 4.0}

    def test_e5_link_prediction(self):
        rows = comparative.study_kge_link_prediction(seed=0, epochs=3)
        assert len(rows) == len(comparative.KGE_MODELS)
        for row in rows:
            assert 0.0 <= row["MRR"] <= 1.0

    def test_e5b_downstream(self):
        results = comparative.study_kge_downstream(
            seed=0, kge_models=("TransE",), epochs=2
        )
        assert _names(results) == ["CKE[TransE]", "CFKG[TransE]"]

    def test_e7_explainability(self):
        rows = comparative.study_explainability(seed=0)
        assert {r["model"] for r in rows} == {"CFKG", "RKGE", "KPRN", "PGPR", "KGAT"}
        for r in rows:
            assert r["validity"] <= r["coverage"] + 1e-9

    def test_e8_multitask(self):
        rows = comparative.study_multitask(
            seed=0, weights=(0.0, 1.0), epochs=2, num_seeds=1
        )
        assert {r["lambda"] for r in rows} == {0.0, 1.0}
        assert len(rows) == 4  # 2 models x 2 weights
