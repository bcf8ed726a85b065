"""Tests for the synthetic world model and scenario generators."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigError
from repro.data import (
    SCENARIO_SCHEMAS,
    TABLE1,
    TABLE4,
    AttributeSpec,
    ScenarioSchema,
    cross_domain,
    generate_dataset,
    make_movie_dataset,
    scenarios_list,
)


class TestSchemaValidation:
    def test_needs_attributes(self):
        with pytest.raises(ConfigError):
            ScenarioSchema(scenario="x", item_type="i", attributes=())

    def test_needs_informative(self):
        with pytest.raises(ConfigError):
            ScenarioSchema(
                scenario="x",
                item_type="i",
                attributes=(AttributeSpec("a", "r", 3, informative=False),),
            )

    def test_duplicate_names(self):
        with pytest.raises(ConfigError):
            ScenarioSchema(
                scenario="x",
                item_type="i",
                attributes=(
                    AttributeSpec("a", "r1", 3),
                    AttributeSpec("a", "r2", 3),
                ),
            )


class TestGenerator:
    def test_shapes(self, movie_dataset):
        assert movie_dataset.num_users == 40
        assert movie_dataset.num_items == 60
        assert movie_dataset.item_entities.tolist() == list(range(60))

    def test_every_item_has_kg_links(self, movie_dataset):
        kg = movie_dataset.kg
        for item in range(movie_dataset.num_items):
            assert kg.store.outgoing(item).size > 0

    def test_every_user_has_interactions(self, movie_dataset):
        assert (movie_dataset.interactions.user_degrees() >= 2).all()

    def test_entity_types_cover_schema(self, movie_dataset):
        kg = movie_dataset.kg
        expected = ["movie", "genre", "actor", "director", "country"]
        assert kg.type_names == expected

    def test_attribute_links_exist(self, movie_dataset):
        kg = movie_dataset.kg
        born_in = kg.relation_id("born_in")
        assert kg.store.with_relation(born_in).size > 0

    def test_kg_signal_zero_decouples(self):
        """With kg_signal=0 the published links are random rewires."""
        faithful = make_movie_dataset(seed=0, num_users=20, num_items=40, kg_signal=1.0)
        garbage = make_movie_dataset(seed=0, num_users=20, num_items=40, kg_signal=0.0)
        # Same interactions (preference untouched)...
        assert np.array_equal(
            faithful.interactions.pairs(), garbage.interactions.pairs()
        )
        # ...but different published KGs.
        assert not np.array_equal(faithful.kg.triples(), garbage.kg.triples())

    def test_invalid_signal(self):
        with pytest.raises(ConfigError):
            make_movie_dataset(kg_signal=1.5)

    def test_too_small(self):
        with pytest.raises(ConfigError):
            generate_dataset(SCENARIO_SCHEMAS["movie"], num_users=1, num_items=2)

    def test_mean_interactions_scales(self):
        sparse = make_movie_dataset(seed=0, num_users=30, num_items=50, mean_interactions=5.0)
        dense = make_movie_dataset(seed=0, num_users=30, num_items=50, mean_interactions=20.0)
        assert dense.interactions.nnz > sparse.interactions.nnz * 2

    def test_kg_carries_preference_signal(self, movie_dataset):
        """Items sharing a genre should be co-liked more than random pairs.

        This is the generator property every KG-aware method relies on.
        """
        kg = movie_dataset.kg
        dense = movie_dataset.interactions.to_dense()
        co = dense.T @ dense
        genre_rel = kg.relation_id("has_genre")
        n = movie_dataset.num_items

        genre_of: dict[int, set] = {}
        for item in range(n):
            idx = kg.store.outgoing(item)
            genre_of[item] = {
                int(t)
                for r, t in zip(kg.store.relations[idx], kg.store.tails[idx])
                if r == genre_rel
            }
        shared, disjoint = [], []
        for i in range(n):
            for j in range(i + 1, n):
                (shared if genre_of[i] & genre_of[j] else disjoint).append(co[i, j])
        assert np.mean(shared) > np.mean(disjoint)


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIO_SCHEMAS))
    def test_each_scenario_generates(self, name):
        data = generate_dataset(
            SCENARIO_SCHEMAS[name], num_users=10, num_items=20, seed=0
        )
        assert data.num_items == 20
        assert data.kg is not None
        assert data.extra["scenario"] == name

    def test_news_has_text(self, news_dataset):
        assert news_dataset.item_text is not None
        assert news_dataset.item_text.shape == (40, 32)

    def test_movie_has_no_text(self, movie_dataset):
        assert movie_dataset.item_text is None


class TestCatalogs:
    def test_table1_has_eleven_kgs(self):
        assert len(TABLE1) == 11

    def test_table1_partition(self):
        specific = {kg.name for kg in TABLE1} - {kg.name for kg in cross_domain()}
        assert specific == {"Bio2RDF", "KnowLife"}

    def test_table4_scenarios(self):
        assert scenarios_list() == [
            "movie", "book", "news", "product", "poi", "music", "social",
        ]

    def test_table4_has_twenty_datasets(self):
        assert len(TABLE4) == 20

    def test_every_entry_has_papers(self):
        for entry in TABLE4:
            assert entry.papers, entry.dataset


class TestExplicitRatings:
    def test_ratings_in_star_range(self):
        data = make_movie_dataset(
            seed=0, num_users=15, num_items=25, explicit_ratings=True
        )
        ratings = data.interactions.to_csr().data
        assert ratings.min() >= 1.0 and ratings.max() <= 5.0
        assert np.unique(ratings).size > 1  # star values, not implicit 1s

    def test_higher_preference_higher_stars(self):
        data = make_movie_dataset(
            seed=1, num_users=15, num_items=30, explicit_ratings=True
        )
        user_latent = data.extra["user_latent"]
        item_latent = data.extra["item_latent"]
        csr = data.interactions.to_csr()
        agreements = []
        for user in range(data.num_users):
            items = data.interactions.items_of(user)
            ratings = csr.data[csr.indptr[user] : csr.indptr[user + 1]]
            if items.size < 4:
                continue
            true_scores = item_latent[items] @ user_latent[user]
            agreements.append(np.corrcoef(true_scores, ratings)[0, 1])
        assert np.mean(agreements) > 0.3

    def test_implicit_default(self, movie_dataset):
        assert (movie_dataset.interactions.to_csr().data == 1.0).all()
