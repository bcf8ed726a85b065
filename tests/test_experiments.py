"""Tests for table regeneration, Figure 1, and the experiment harness."""

from repro.experiments import figure1, tables
from repro.experiments.harness import results_table, run_panel
from repro.models.baselines import MostPopular, Random


class TestTables:
    def test_table1_contains_all_kgs(self):
        text = tables.table1()
        for name in ("YAGO", "Freebase", "DBpedia", "Satori", "CN-DBPedia",
                     "NELL", "Wikidata", "Bio2RDF", "KnowLife"):
            assert name in text

    def test_table2_resolves(self):
        text = tables.table2(resolve=True)
        assert "InteractionMatrix" in text

    def test_table3_has_39_method_rows(self):
        rows = tables.table3_rows()
        assert len(rows) == 39

    def test_table3_matches_survey_cells(self):
        text = tables.table3()
        assert "RippleNet" in text
        assert "CIKM" in text
        # CKE row: embedding-based with AE.
        cke_row = next(r for r in tables.table3_rows() if r[0] == "CKE")
        assert cke_row[3] == "v"  # Emb.
        assert cke_row[4] == ""  # Path
        headers_offset = 6  # name, venue, year, emb, path, uni
        from repro.core.registry import TECHNIQUES

        ae_col = headers_offset + TECHNIQUES.index("AE")
        assert cke_row[ae_col] == "v"

    def test_table4_has_all_scenarios(self):
        text = tables.table4()
        for scenario in ("movie", "book", "news", "product", "poi", "music", "social"):
            assert scenario in text

    def test_render_table_alignment(self):
        text = tables.render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # all lines equal width


class TestFigure1:
    def test_dataset_structure(self):
        data = figure1.build_figure1_dataset()
        assert data.num_users == 2
        assert data.num_items == 5
        kg = data.kg
        assert kg.has_fact(
            kg.entity_id("Avatar"), kg.relation_id("has_genre"), kg.entity_id("Sci-Fi")
        )

    def test_reproduces_survey_claims(self):
        result = figure1.run_figure1()
        assert result["top2_matches_figure"]
        assert result["avatar_path_ok"]
        assert result["blood_diamond_path_ok"]

    def test_render_mentions_reasons(self):
        text = figure1.render_figure1()
        assert "Avatar" in text and "Blood Diamond" in text
        assert "Sci-Fi" in text and "Leonardo DiCaprio" in text


class TestHarness:
    def test_run_panel_shapes(self, movie_dataset):
        results = run_panel(
            movie_dataset,
            {"pop": lambda: MostPopular(), "rand": lambda: Random(seed=0)},
            max_users=10,
            seed=0,
        )
        assert [r.model for r in results] == ["pop", "rand"]
        for r in results:
            assert "AUC" in r.values

    def test_results_table_renders(self, movie_dataset):
        results = run_panel(
            movie_dataset, {"pop": lambda: MostPopular()}, max_users=10, seed=0
        )
        text = results_table(results, title="test")
        assert "pop" in text and "AUC" in text
