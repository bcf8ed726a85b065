"""The original per-item/per-user loop world generator, kept as an oracle.

This is the seed repo's ``generate_dataset`` verbatim (plus the
``links_per_item`` clamp fix that both implementations share), retained so
the vectorized generator in :mod:`repro.data.synthetic` can be asserted
**bitwise-identical** against it — ``tests/test_synthetic_vectorized.py``
diffs full datasets (interactions, ratings, triples, labels, latents,
text) produced by the two paths from the same seed.  It lives beside the
tests because nothing else calls it; it is deliberately slow.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError
from repro.core.interactions import InteractionMatrix
from repro.core.rng import ensure_rng
from repro.data.synthetic import _validate_attribute_specs
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import TripleStore

__all__ = ["generate_dataset_reference"]


def generate_dataset_reference(
    schema,
    num_users: int = 120,
    num_items: int = 200,
    num_factors: int = 6,
    mean_interactions: float = 18.0,
    kg_signal: float = 1.0,
    item_noise: float = 0.2,
    score_noise: float = 0.25,
    user_latent: np.ndarray | None = None,
    explicit_ratings: bool = False,
    seed: int | np.random.Generator | None = None,
) -> Dataset:
    """Loop reference for :func:`repro.data.synthetic.generate_dataset`."""
    if not 0.0 <= kg_signal <= 1.0:
        raise ConfigError("kg_signal must be in [0, 1]")
    if num_users < 2 or num_items < 4:
        raise ConfigError("need at least 2 users and 4 items")
    _validate_attribute_specs(schema)
    rng = ensure_rng(seed)

    # 1. Attribute entities with factor anchors.
    factor_basis = np.eye(num_factors)
    attr_latents: dict[str, np.ndarray] = {}
    attr_factors: dict[str, np.ndarray] = {}
    for spec in schema.attributes:
        primary = rng.integers(0, num_factors, size=spec.count)
        latents = factor_basis[primary] + rng.normal(0.0, 0.15, (spec.count, num_factors))
        attr_latents[spec.name] = latents
        attr_factors[spec.name] = primary

    # 2. True item-attribute assignments (the preference-generating ones).
    item_primary = rng.integers(0, num_factors, size=num_items)
    true_links: dict[str, list[np.ndarray]] = {s.name: [] for s in schema.attributes}
    for spec in schema.attributes:
        same_factor: dict[int, np.ndarray] = {
            f: np.flatnonzero(attr_factors[spec.name] == f)
            for f in range(num_factors)
        }
        lo, hi = spec.per_item
        for item in range(num_items):
            # Clamp: an attribute type can never supply more distinct links
            # than it has entities (the unclamped draw used to loop forever).
            k = min(int(rng.integers(lo, hi + 1)), spec.count)
            pool = same_factor.get(int(item_primary[item]), np.empty(0, np.int64))
            if spec.informative and pool.size:
                n_primary = max(1, int(round(0.8 * k)))
                chosen = list(
                    rng.choice(pool, size=min(n_primary, pool.size), replace=False)
                )
                while len(chosen) < k:
                    cand = int(rng.integers(0, spec.count))
                    if cand not in chosen:
                        chosen.append(cand)
                links = np.asarray(chosen[:k], dtype=np.int64)
            else:
                links = rng.choice(spec.count, size=min(k, spec.count), replace=False)
            true_links[spec.name].append(np.sort(links))

    # 3. Item latents from informative attributes.
    item_latent = np.zeros((num_items, num_factors))
    for item in range(num_items):
        parts = [
            attr_latents[spec.name][true_links[spec.name][item]]
            for spec in schema.attributes
            if spec.informative and true_links[spec.name][item].size
        ]
        signal = np.concatenate(parts).mean(axis=0)
        item_latent[item] = signal + rng.normal(0.0, item_noise, num_factors)

    # 4. User latents and interactions.
    if user_latent is None:
        user_latent = np.zeros((num_users, num_factors))
        for user in range(num_users):
            user_latent[user] = rng.dirichlet(np.full(num_factors, 0.4))
    else:
        user_latent = np.asarray(user_latent, dtype=np.float64)
        if user_latent.shape != (num_users, num_factors):
            raise ConfigError("user_latent must be (num_users, num_factors)")
    scores = user_latent @ item_latent.T
    scores += rng.normal(0.0, score_noise, scores.shape)

    sigma = 0.6
    degrees = rng.lognormal(np.log(mean_interactions) - sigma**2 / 2, sigma, num_users)
    degrees = np.clip(np.round(degrees), 2, num_items - 2).astype(np.int64)

    users_list: list[int] = []
    items_list: list[int] = []
    ratings_list: list[float] = []
    for user in range(num_users):
        k = int(degrees[user])
        top = np.argpartition(-scores[user], k - 1)[:k]
        users_list.extend([user] * k)
        items_list.extend(int(v) for v in top)
        if explicit_ratings:
            chosen = scores[user, top]
            order = np.argsort(np.argsort(chosen))
            stars = 1.0 + np.floor(5.0 * order / max(1, order.size))
            ratings_list.extend(np.clip(stars, 1.0, 5.0))
    interactions = InteractionMatrix(
        np.asarray(users_list),
        np.asarray(items_list),
        num_users,
        num_items,
        ratings=np.asarray(ratings_list) if explicit_ratings else None,
    )

    # 5. Published KG: optionally degrade link fidelity (kg_signal).
    entity_labels = [f"{schema.item_type}:{i}" for i in range(num_items)]
    entity_types = [0] * num_items
    type_names = [schema.item_type] + [s.name for s in schema.attributes]
    offsets: dict[str, int] = {}
    cursor = num_items
    for type_id, spec in enumerate(schema.attributes, start=1):
        offsets[spec.name] = cursor
        entity_labels.extend(f"{spec.name}:{a}" for a in range(spec.count))
        entity_types.extend([type_id] * spec.count)
        cursor += spec.count
    num_entities = cursor

    relation_labels = [s.relation for s in schema.attributes]
    relation_ids = {s.relation: i for i, s in enumerate(schema.attributes)}
    for __, rel, __, __ in schema.attribute_links:
        if rel not in relation_ids:
            relation_ids[rel] = len(relation_labels)
            relation_labels.append(rel)

    triples: list[tuple[int, int, int]] = []
    for spec in schema.attributes:
        rel = relation_ids[spec.relation]
        for item in range(num_items):
            for attr in true_links[spec.name][item]:
                published = int(attr)
                if rng.random() > kg_signal:
                    published = int(rng.integers(0, spec.count))
                triples.append((item, rel, offsets[spec.name] + published))

    for src_name, rel_label, dst_name, per_src in schema.attribute_links:
        rel = relation_ids[rel_label]
        src_spec = next(s for s in schema.attributes if s.name == src_name)
        dst_spec = next(s for s in schema.attributes if s.name == dst_name)
        for src in range(src_spec.count):
            targets = rng.choice(
                dst_spec.count, size=min(per_src, dst_spec.count), replace=False
            )
            for dst in targets:
                triples.append(
                    (offsets[src_name] + src, rel, offsets[dst_name] + int(dst))
                )

    store = TripleStore.from_triples(
        triples, num_entities=num_entities, num_relations=len(relation_labels)
    )
    kg = KnowledgeGraph(
        store,
        entity_labels=entity_labels,
        relation_labels=relation_labels,
        entity_types=np.asarray(entity_types, dtype=np.int64),
        type_names=type_names,
    )

    # 6. Optional content features (bag of informative attributes + noise).
    item_text = None
    if schema.text_dim > 0:
        proj = rng.normal(0.0, 1.0, (num_factors, schema.text_dim))
        item_text = np.tanh(item_latent @ proj)
        item_text += rng.normal(0.0, 0.3, item_text.shape)

    return Dataset(
        name=f"synthetic-{schema.scenario}",
        interactions=interactions,
        kg=kg,
        item_entities=np.arange(num_items, dtype=np.int64),
        item_text=item_text,
        extra={
            "scenario": schema.scenario,
            "kg_signal": kg_signal,
            "num_factors": num_factors,
            "mean_interactions": mean_interactions,
            "user_latent": user_latent,
            "item_latent": item_latent,
        },
    )
