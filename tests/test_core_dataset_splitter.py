"""Tests for Dataset and the split protocols."""

import numpy as np
import pytest

from repro.core.dataset import Dataset
from repro.core.exceptions import DataError
from repro.core.interactions import InteractionMatrix
from repro.core.splitter import cold_start_item_split, random_split
from repro.data import make_movie_dataset


class TestDataset:
    def test_describe(self, movie_dataset):
        info = movie_dataset.describe()
        assert info["num_users"] == 40
        assert info["has_kg"]
        assert info["kg_triples"] > 0

    def test_entity_alignment_roundtrip(self, movie_dataset):
        entity = movie_dataset.entity_of_item(3)
        assert movie_dataset.item_of_entity(entity) == 3

    def test_item_of_unknown_entity(self, movie_dataset):
        # Attribute entities are not items.
        assert movie_dataset.item_of_entity(
            movie_dataset.kg.num_entities - 1
        ) is None

    def test_alignment_shape_checked(self):
        mat = InteractionMatrix.empty(2, 3)
        with pytest.raises(DataError):
            Dataset(name="bad", interactions=mat, item_entities=np.asarray([0, 1]))

    def test_entity_of_item_without_kg(self):
        mat = InteractionMatrix.empty(2, 3)
        ds = Dataset(name="nokg", interactions=mat)
        with pytest.raises(DataError):
            ds.entity_of_item(0)

    def test_with_interactions_preserves_kg(self, movie_dataset):
        empty = InteractionMatrix.empty(
            movie_dataset.num_users, movie_dataset.num_items
        )
        replaced = movie_dataset.with_interactions(empty)
        assert replaced.kg is movie_dataset.kg
        assert replaced.interactions.nnz == 0

    def test_with_interactions_shape_mismatch(self, movie_dataset):
        with pytest.raises(DataError):
            movie_dataset.with_interactions(InteractionMatrix.empty(2, 2))

    def test_item_text_validation(self):
        mat = InteractionMatrix.empty(2, 3)
        with pytest.raises(DataError):
            Dataset(name="bad", interactions=mat, item_text=np.zeros((5, 4)))


class TestRandomSplit:
    def test_partition(self, movie_dataset):
        train, test = random_split(movie_dataset, seed=0)
        total = train.interactions.nnz + test.interactions.nnz
        assert total == movie_dataset.interactions.nnz
        train_pairs = set(map(tuple, train.interactions.pairs().tolist()))
        test_pairs = set(map(tuple, test.interactions.pairs().tolist()))
        assert train_pairs.isdisjoint(test_pairs)

    def test_fraction_respected(self, movie_dataset):
        train, test = random_split(movie_dataset, test_fraction=0.3, seed=1)
        frac = test.interactions.nnz / movie_dataset.interactions.nnz
        assert 0.2 < frac < 0.4

    def test_every_user_keeps_training_item(self, movie_dataset):
        train, __ = random_split(movie_dataset, seed=2)
        for user in range(movie_dataset.num_users):
            if movie_dataset.interactions.items_of(user).size >= 2:
                assert train.interactions.items_of(user).size >= 1

    def test_deterministic(self, movie_dataset):
        a = random_split(movie_dataset, seed=3)[1].interactions.pairs()
        b = random_split(movie_dataset, seed=3)[1].interactions.pairs()
        assert np.array_equal(a, b)

    def test_bad_fraction(self, movie_dataset):
        with pytest.raises(DataError):
            random_split(movie_dataset, test_fraction=1.5)

    def test_kg_shared(self, movie_dataset):
        train, test = random_split(movie_dataset, seed=0)
        assert train.kg is movie_dataset.kg
        assert test.kg is movie_dataset.kg


class TestColdStart:
    def test_cold_items_have_no_training_feedback(self, movie_dataset):
        train, test, cold = cold_start_item_split(movie_dataset, seed=0)
        degrees = train.interactions.item_degrees()
        assert (degrees[cold] == 0).all()

    def test_test_contains_only_cold(self, movie_dataset):
        __, test, cold = cold_start_item_split(movie_dataset, seed=0)
        cold_set = set(cold.tolist())
        assert set(test.interactions.pairs()[:, 1].tolist()) <= cold_set

    def test_fraction(self, movie_dataset):
        __, __t, cold = cold_start_item_split(movie_dataset, cold_fraction=0.3, seed=1)
        interacted = (movie_dataset.interactions.item_degrees() > 0).sum()
        assert 0.15 < cold.size / interacted < 0.45

    def test_bad_fraction(self, movie_dataset):
        with pytest.raises(DataError):
            cold_start_item_split(movie_dataset, cold_fraction=0.0)


class TestGeneratorContract:
    def test_seed_determinism(self):
        a = make_movie_dataset(seed=11, num_users=10, num_items=20)
        b = make_movie_dataset(seed=11, num_users=10, num_items=20)
        assert np.array_equal(a.interactions.pairs(), b.interactions.pairs())
        assert np.array_equal(a.kg.triples(), b.kg.triples())

    def test_different_seeds_differ(self):
        a = make_movie_dataset(seed=1, num_users=10, num_items=20)
        b = make_movie_dataset(seed=2, num_users=10, num_items=20)
        assert not np.array_equal(a.interactions.pairs(), b.interactions.pairs())
