"""Tests for the experiment harness itself."""

from repro.experiments.harness import K_VALUES, results_table, run_panel
from repro.models.baselines import BPRMF, MostPopular


class TestRunPanel:
    def test_deterministic_across_invocations(self, movie_dataset):
        factories = {"bpr": lambda: BPRMF(epochs=2, seed=0)}
        a = run_panel(movie_dataset, factories, max_users=8, seed=1)
        b = run_panel(movie_dataset, factories, max_users=8, seed=1)
        assert a[0].values == b[0].values

    def test_models_share_the_split(self, movie_dataset):
        """Both models must be evaluated on identical users/negatives."""
        results = run_panel(
            movie_dataset,
            {"pop": lambda: MostPopular(), "pop2": lambda: MostPopular()},
            max_users=8,
            seed=0,
        )
        assert results[0].values == results[1].values
        assert results[0].num_users == results[1].num_users

    def test_rows_are_scored_at_k_values(self, movie_dataset):
        results = run_panel(
            movie_dataset, {"pop": lambda: MostPopular()}, max_users=8, seed=0
        )
        assert K_VALUES == (5, 10)
        assert "NDCG@5" in results[0].values
        assert "NDCG@10" in results[0].values
        assert "NDCG@3" not in results[0].values


class TestResultsTable:
    def test_missing_column_renders_nan(self, movie_dataset):
        results = run_panel(
            movie_dataset, {"pop": lambda: MostPopular()}, max_users=8, seed=0
        )
        text = results_table(results, columns=("AUC", "NotAMetric"))
        assert "nan" in text

    def test_row_method(self, movie_dataset):
        results = run_panel(
            movie_dataset, {"pop": lambda: MostPopular()}, max_users=8, seed=0
        )
        row = results[0].row(["AUC", "MRR"])
        assert len(row) == 2
        assert row[0] == results[0]["AUC"]
