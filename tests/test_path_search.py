"""Path search and the packed path bank against the original DFS.

``paths_to_targets`` counts the children at ``max_length`` as one run
instead of pushing and popping them one by one; ``PathBank`` keeps each
user's paths packed into index arrays.  Both must reproduce the original
DFS (``path_search_reference.py``) exactly: the same paths per target (the
search records ``(entities, relations)`` pairs, the oracle ``Path`` objects),
the same generator state afterwards, and — through the bank — the
same paths for every (user, item) pair in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import ensure_rng
from repro.data import make_movie_dataset
from repro.models.path_based.common import lift
from repro.models.path_based.pathsampling import PathBank, paths_to_targets

from .path_search_reference import paths_to_targets_reference


@pytest.fixture(scope="module")
def lifted():
    return lift(make_movie_dataset(seed=3, num_users=24, num_items=30))


def _targets(lifted) -> dict[int, int]:
    return {int(e): i for i, e in enumerate(lifted.item_entities)}


def _both(lifted, source, seed, **kwargs):
    rng_new, rng_ref = ensure_rng(seed), ensure_rng(seed)
    targets = _targets(lifted)
    new = paths_to_targets(lifted.kg, source, targets, seed=rng_new, **kwargs)
    ref = paths_to_targets_reference(lifted.kg, source, targets, seed=rng_ref, **kwargs)
    return new, ref, rng_new, rng_ref


def _assert_same(new, ref, rng_new, rng_ref):
    # dict of target -> list of paths, order included
    assert new == {
        t: [(p.entities, p.relations) for p in paths] for t, paths in ref.items()
    }
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestPathsToTargets:
    @pytest.mark.parametrize("max_length", [1, 2, 3, 4])
    @pytest.mark.parametrize("min_length", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_dfs(self, lifted, max_length, min_length, seed):
        source = int(lifted.user_entities[seed])
        new, ref, rng_new, rng_ref = _both(
            lifted,
            source,
            seed,
            max_length=max_length,
            min_length=min_length,
            max_expansions=3000,
        )
        _assert_same(new, ref, rng_new, rng_ref)
        if max_length >= 3:  # user -> item -> attribute -> item exists
            assert any(new.values())

    @pytest.mark.parametrize("max_paths", [1, 3, 50])
    def test_per_target_caps(self, lifted, max_paths):
        source = int(lifted.user_entities[5])
        _assert_same(
            *_both(lifted, source, 7, max_paths_per_target=max_paths, max_expansions=4000)
        )

    @pytest.mark.parametrize("max_length", [2, 3])
    def test_every_small_budget(self, lifted, max_length):
        """Budgets 1..400 end at every point of the search, including
        inside leaf runs (a run of k leaves holds k - 1 such endings)."""
        source = int(lifted.user_entities[4])
        for budget in range(1, 401):
            _assert_same(
                *_both(
                    lifted,
                    source,
                    budget,
                    max_length=max_length,
                    max_expansions=budget,
                )
            )

    def test_item_source_and_zero_length(self, lifted):
        source = int(lifted.item_entities[0])
        _assert_same(*_both(lifted, source, 11, max_length=3, min_length=1))
        _assert_same(*_both(lifted, source, 11, max_length=0, min_length=1))


class TestPathBank:
    def _reference_paths(self, lifted, seed, max_length, max_paths):
        """The old bank: one reference search per user, in first-use order."""
        rng = ensure_rng(seed)
        targets = _targets(lifted)
        out = {}
        for u in range(lifted.num_users):
            out[u] = paths_to_targets_reference(
                lifted.kg,
                int(lifted.user_entities[u]),
                targets,
                max_length=max_length,
                max_paths_per_target=max_paths,
                seed=rng,
            )
        return out

    @pytest.mark.parametrize("max_length,max_paths", [(3, 3), (2, 5), (4, 2)])
    def test_paths_equal_for_every_pair(self, lifted, max_length, max_paths):
        bank = PathBank(lifted, max_length=max_length, max_paths_per_item=max_paths, seed=5)
        ref = self._reference_paths(lifted, 5, max_length, max_paths)
        for u in range(lifted.num_users):
            for i in range(lifted.num_items):
                entity = int(lifted.item_entities[i])
                assert bank.paths(u, i) == ref[u].get(entity, [])

    def test_gather_matches_the_per_path_batch(self, lifted):
        """``gather`` returns the arrays KPRN used to build path by path."""
        bank = PathBank(lifted, seed=2)
        pad = lifted.kg.num_relations
        rng = np.random.default_rng(0)
        for batch in (1, 7, 64):
            users = rng.integers(0, lifted.num_users, size=batch)
            items = rng.integers(0, lifted.num_items, size=batch)
            rows, ents, rels, lengths = bank.gather(users, items)
            exp_rows, exp_ents, exp_rels = [], [], []
            for r, (u, v) in enumerate(zip(users, items)):
                for path in bank.paths(int(u), int(v)):
                    exp_rows.append(r)
                    exp_ents.append(list(path.entities))
                    exp_rels.append(list(path.relations) + [pad])
            assert rows.tolist() == exp_rows
            assert ents.shape == rels.shape == (len(exp_rows), bank.max_length + 1)
            for p, (e, r) in enumerate(zip(exp_ents, exp_rels)):
                assert lengths[p] == len(e) - 1
                assert ents[p, : len(e)].tolist() == e
                assert not ents[p, len(e) :].any()
                assert rels[p, : len(r)].tolist() == r
                assert (rels[p, len(r) :] == pad).all()

    def test_gather_without_paths(self, lifted):
        bank = PathBank(lifted, max_length=1, seed=0)  # min_length 2: none
        rows, ents, rels, lengths = bank.gather(np.array([0, 1]), np.array([0, 1]))
        assert rows.size == ents.shape[0] == rels.shape[0] == lengths.size == 0
        assert ents.shape[1] == 2
