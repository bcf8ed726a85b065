"""Synthetic world model: interactions driven by KG attributes.

The survey's central premise is that KG side information *carries preference
signal*: users like movies because of their genres, actors, and directors.
The generator here plants exactly that structure so the surveyed methods'
relative behaviour is reproducible:

1. There are ``num_factors`` latent taste factors (think: genres).
2. Every *informative* attribute entity (a genre, an actor, ...) is anchored
   to one primary factor.
3. An item's latent vector is the mean of its informative attributes'
   vectors plus item noise — so the KG links *are* the preference signal.
4. A user samples a sparse mixture over factors and interacts with the
   items scoring highest under a noisy dot product, with a long-tailed
   per-user interaction count.

``kg_signal`` controls how much of the planted structure survives into the
published KG: with probability ``1 - kg_signal`` an item's attribute links
are rewired to random attributes of the same type, decoupling the KG from
preference.  Sweeping it reproduces the survey's "KG helps when informative"
claims (Study E1); ``density``/cold-start knobs reproduce the sparsity
claims (Study E4).

Performance
-----------
The hot loops (item latents, user taste draws, top-k interaction
selection, faithful-link publication) are batched ``Generator`` draws and
grouped ``argpartition`` calls; the default mode consumes the RNG stream
in **exactly** the order the original per-item/per-user loop
implementation did, so seeded datasets are bitwise-identical to the seed
generator (asserted against that loop, kept as the oracle
``tests/generator_reference.py``, by
``tests/test_synthetic_vectorized.py``).  Two draws cannot be reordered
without changing the stream and therefore stay loops in exact mode: the
per-item attribute-link sampling (a ``choice`` interleaved with scalar
fill draws) and the per-link rewiring when ``kg_signal < 1.0`` (a
conditional ``integers`` interleaved with ``random``).  ``fast=True``
batches those too — same distributional structure, different (still
deterministic) stream — which is what lets a 10^5-user / 10^6-interaction
world generate in seconds; see ``docs/synthetic_worlds.md`` for the scale
table.  Score matrices larger than :data:`_SCORE_CHUNK_ELEMENTS` are
processed in fixed-size user chunks (never materialised whole); chunking
draws the per-user degree vector *before* the per-chunk score noise, so
above that threshold even exact mode diverges from the legacy stream —
no legacy artifact exists at those sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import ConfigError, DataError
from repro.core.interactions import InteractionMatrix
from repro.core.rng import ensure_rng
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import TripleStore

__all__ = ["AttributeSpec", "ScenarioSchema", "generate_dataset"]

#: Above this many score-matrix elements (users x items) the generator
#: switches to chunked score computation.  2^22 doubles = 32 MiB per chunk.
_SCORE_CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute entity type linked to items.

    Attributes
    ----------
    name:
        Entity-type name, e.g. ``"genre"``.
    relation:
        Relation label linking item -> attribute, e.g. ``"has_genre"``.
    count:
        Number of attribute entities of this type.
    per_item:
        ``(low, high)`` inclusive range of links per item.  Draws above
        ``count`` are clamped (an item cannot link more distinct entities
        than exist); a ``low`` above ``count`` is rejected outright.
    informative:
        Whether this attribute type carries taste factors; non-informative
        types are pure KG noise (e.g. ``release_year`` buckets).
    """

    name: str
    relation: str
    count: int
    per_item: tuple[int, int] = (1, 1)
    informative: bool = True


@dataclass(frozen=True)
class ScenarioSchema:
    """Entity/relation schema of one application scenario (Table 4 row)."""

    scenario: str
    item_type: str
    attributes: tuple[AttributeSpec, ...]
    #: Optional relations among attribute types: (src_attr, relation,
    #: dst_attr, links_per_src) adding multi-hop structure, e.g. an actor's
    #: ``born_in`` country.
    attribute_links: tuple[tuple[str, str, str, int], ...] = ()
    #: Width of the item_text content features (0 = none).  News uses this.
    text_dim: int = 0

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ConfigError("a scenario needs at least one attribute type")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate attribute type names")
        if not any(a.informative for a in self.attributes):
            raise ConfigError("at least one attribute type must be informative")


def _validate_attribute_specs(schema: ScenarioSchema) -> None:
    """Reject schemas whose link ranges cannot be satisfied.

    ``per_item[0] > count`` used to send the link sampler into an infinite
    ``while len(chosen) < k`` loop (there are no ``k`` distinct entities to
    find); it is now a :class:`DataError` naming the offending field.
    """
    for spec in schema.attributes:
        lo, hi = spec.per_item
        if spec.count < 1:
            raise DataError(
                f"attribute {spec.name!r}: count must be >= 1, got {spec.count}"
            )
        if lo < 0 or lo > hi:
            raise DataError(
                f"attribute {spec.name!r}: per_item must satisfy "
                f"0 <= low <= high, got {spec.per_item}"
            )
        if lo > spec.count:
            raise DataError(
                f"attribute {spec.name!r}: per_item minimum {lo} exceeds "
                f"count={spec.count}; cannot draw that many distinct links"
            )


# --------------------------------------------------------------------- #
# Sampling helpers
# --------------------------------------------------------------------- #
def _draw_degrees(
    rng: np.random.Generator,
    mean_interactions: float,
    num_users: int,
    num_items: int,
) -> np.ndarray:
    """Per-user interaction counts: log-normal with mean ``mean_interactions``."""
    sigma = 0.6
    degrees = rng.lognormal(
        np.log(mean_interactions) - sigma**2 / 2, sigma, num_users
    )
    return np.clip(np.round(degrees), 2, num_items - 2).astype(np.int64)


def _dedupe_rows(
    rng: np.random.Generator,
    cand: np.ndarray,
    k_row: np.ndarray,
    high: int,
    max_rounds: int = 32,
) -> np.ndarray:
    """Make the first ``k_row[i]`` entries of each row distinct.

    Bounded rejection resampling (the ``corrupt_batch`` idiom): rows whose
    active prefix contains a duplicate get the duplicate positions redrawn
    from ``[0, high)``; the handful of rows still colliding after
    ``max_rounds`` (possible only when ``k`` is close to ``high``) fall
    back to a deterministic fill with the smallest unused values.
    """
    n, m = cand.shape
    col = np.arange(m)
    active = col[None, :] < k_row[:, None]
    # Inactive positions get per-column sentinels >= high so they can never
    # collide with anything.
    work = np.where(active, cand, high + col[None, :])
    for _ in range(max_rounds):
        srt = np.sort(work, axis=1)
        bad = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
        if bad.size == 0:
            return np.where(active, work, 0)
        sub = work[bad]
        # A position is a duplicate if an earlier position holds its value.
        dup = ((sub[:, :, None] == sub[:, None, :])
               & (col[None, None, :] < col[None, :, None])).any(axis=2)
        sub[dup] = rng.integers(0, high, int(dup.sum()))
        work[bad] = sub
    srt = np.sort(work, axis=1)
    for r in np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1)):
        taken = set()
        free = iter(range(high))
        row = work[r]
        for j in range(int(k_row[r])):
            if int(row[j]) in taken:
                for v in free:
                    if v not in taken:
                        row[j] = v
                        break
            taken.add(int(row[j]))
    return np.where(active, work, 0)


def _sample_links_exact(
    rng: np.random.Generator,
    schema: ScenarioSchema,
    num_items: int,
    item_primary: np.ndarray,
    attr_factors: dict[str, np.ndarray],
    num_factors: int,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-item attribute links, consuming the RNG in legacy loop order.

    The draw sequence per item — one scalar ``integers`` for ``k``, one
    ``choice`` from the primary-factor pool, then scalar rejection fills —
    interleaves variable-length calls, so it cannot be batched without
    changing the stream.  Returns ``{name: (lengths, flat_links)}`` where
    ``flat_links`` concatenates each item's sorted links in item order.
    """
    links: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for spec in schema.attributes:
        same_factor = {
            f: np.flatnonzero(attr_factors[spec.name] == f)
            for f in range(num_factors)
        }
        lo, hi = spec.per_item
        lengths = np.empty(num_items, dtype=np.int64)
        parts: list[np.ndarray] = []
        for item in range(num_items):
            # Clamp: an attribute type can never supply more distinct links
            # than it has entities (the unclamped draw used to loop forever).
            k = min(int(rng.integers(lo, hi + 1)), spec.count)
            pool = same_factor.get(int(item_primary[item]), np.empty(0, np.int64))
            if spec.informative and pool.size:
                # 80% of links come from the item's primary factor.
                n_primary = max(1, int(round(0.8 * k)))
                chosen = list(
                    rng.choice(pool, size=min(n_primary, pool.size), replace=False)
                )
                while len(chosen) < k:
                    cand = int(rng.integers(0, spec.count))
                    if cand not in chosen:
                        chosen.append(cand)
                sel = np.asarray(chosen[:k], dtype=np.int64)
            else:
                sel = rng.choice(spec.count, size=min(k, spec.count), replace=False)
            sel = np.sort(sel)
            lengths[item] = sel.size
            parts.append(sel)
        flat = (np.concatenate(parts) if parts else np.empty(0, np.int64))
        links[spec.name] = (lengths, flat.astype(np.int64, copy=False))
    return links


def _sample_links_fast(
    rng: np.random.Generator,
    schema: ScenarioSchema,
    num_items: int,
    item_primary: np.ndarray,
    attr_factors: dict[str, np.ndarray],
    num_factors: int,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Batched attribute-link sampling (``fast=True`` stream).

    Preserves the structure — links-per-item drawn from ``per_item``
    (clamped to ``count``), ~80% of an informative type's links from the
    item's primary factor, all links distinct per (item, type) — but draws
    whole matrices at once instead of walking items.
    """
    links: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for spec in schema.attributes:
        lo, hi = spec.per_item
        k_max = min(hi, spec.count)
        k = np.minimum(rng.integers(lo, hi + 1, size=num_items), spec.count)
        cand = rng.integers(0, spec.count, size=(num_items, max(k_max, 1)))
        if spec.informative:
            pools = [
                np.flatnonzero(attr_factors[spec.name] == f)
                for f in range(num_factors)
            ]
            pool_sizes = np.asarray([p.size for p in pools], dtype=np.int64)
            max_pool = int(pool_sizes.max())
            if max_pool > 0:
                pool_matrix = np.zeros((num_factors, max_pool), dtype=np.int64)
                for f, p in enumerate(pools):
                    pool_matrix[f, : p.size] = p
                psz = pool_sizes[item_primary]
                n_primary = np.minimum(
                    np.minimum(np.maximum(1, np.round(0.8 * k).astype(np.int64)), k),
                    psz,
                )
                idx = rng.integers(
                    0, np.maximum(psz, 1)[:, None], size=cand.shape
                )
                primary_cand = pool_matrix[item_primary[:, None], idx]
                col = np.arange(cand.shape[1])[None, :]
                cand = np.where(col < n_primary[:, None], primary_cand, cand)
        cand = _dedupe_rows(rng, cand, k, spec.count)
        col = np.arange(cand.shape[1])[None, :]
        active = col < k[:, None]
        # Sort active entries first per row (inactive become >= count), then
        # flatten row-major: exactly each item's sorted links, concatenated.
        srt = np.sort(np.where(active, cand, spec.count + col), axis=1)
        links[spec.name] = (k.astype(np.int64), srt[active].astype(np.int64))
    return links


# --------------------------------------------------------------------- #
# Generator
# --------------------------------------------------------------------- #
def generate_dataset(
    schema: ScenarioSchema,
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
    fast: bool = False,
) -> Dataset:
    """Generate a :class:`Dataset` with an aligned item knowledge graph.

    Parameters
    ----------
    schema:
        Scenario schema (entity/relation types).
    num_users, num_items:
        Sizes of the user and item sets.
    num_factors:
        Number of latent taste factors.
    mean_interactions:
        Mean per-user interaction count; the main sparsity knob.
    kg_signal:
        In ``[0, 1]``; fraction of item-attribute links kept faithful to the
        preference-generating attributes (the rest are rewired randomly).
    item_noise:
        Std of item-specific latent noise relative to attribute signal.
    score_noise:
        Std of per-(user, item) score noise; raises interaction randomness.
    user_latent:
        Optional pre-drawn ``(num_users, num_factors)`` taste matrix.  Pass
        the same matrix to two scenarios to create *cross-domain* datasets
        with shared users (Section 6's cross-domain direction).
    explicit_ratings:
        When true, interactions carry 1-5 star ratings derived from the
        per-user quintiles of the true preference score (the explicit
        feedback channel SemRec-style methods weight by).
    seed:
        Reproducibility seed.
    fast:
        ``False`` (default) consumes the RNG stream in the legacy loop
        order — seeded output is bitwise-identical to the original
        generator whenever ``num_users * num_items`` fits one score chunk.
        ``True`` batches *every* draw (attribute links, rewiring): same
        world structure and still deterministic per seed, but a different
        stream — use it for large worlds, where it is orders of magnitude
        faster.  The two modes are not cross-comparable draw-for-draw.
    """
    if not 0.0 <= kg_signal <= 1.0:
        raise ConfigError("kg_signal must be in [0, 1]")
    if num_users < 2 or num_items < 4:
        raise ConfigError("need at least 2 users and 4 items")
    _validate_attribute_specs(schema)
    rng = ensure_rng(seed)

    # ---------------------------------------------------------------- #
    # 1. Attribute entities with factor anchors.
    # ---------------------------------------------------------------- #
    factor_basis = np.eye(num_factors)
    attr_latents: dict[str, np.ndarray] = {}
    attr_factors: dict[str, np.ndarray] = {}
    for spec in schema.attributes:
        primary = rng.integers(0, num_factors, size=spec.count)
        latents = factor_basis[primary] + rng.normal(0.0, 0.15, (spec.count, num_factors))
        attr_latents[spec.name] = latents
        attr_factors[spec.name] = primary

    # ---------------------------------------------------------------- #
    # 2. True item-attribute assignments (the preference-generating ones).
    # ---------------------------------------------------------------- #
    # Bias assignments so an item's informative attributes agree on a factor,
    # keeping item latents peaked instead of washing out to the mean.
    item_primary = rng.integers(0, num_factors, size=num_items)
    sample = _sample_links_fast if fast else _sample_links_exact
    true_links = sample(
        rng, schema, num_items, item_primary, attr_factors, num_factors
    )

    # ---------------------------------------------------------------- #
    # 3. Item latents from informative attributes.
    # ---------------------------------------------------------------- #
    # One bincount per factor reproduces the legacy per-item
    # concatenate-and-mean bitwise: bincount accumulates strictly in input
    # order, and the spec-major / item-major / sorted-link layout of the
    # flat link arrays visits each item's rows in exactly the order the
    # loop's np.concatenate did.
    idx_parts = [
        np.repeat(np.arange(num_items), true_links[s.name][0])
        for s in schema.attributes
        if s.informative
    ]
    row_parts = [
        attr_latents[s.name][true_links[s.name][1]]
        for s in schema.attributes
        if s.informative
    ]
    link_items = np.concatenate(idx_parts)
    link_rows = np.concatenate(row_parts)
    counts = np.bincount(link_items, minlength=num_items)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DataError(
            f"item {missing} drew no informative attribute links; raise the "
            "per_item minimum of an informative attribute type"
        )
    sums = np.empty((num_items, num_factors))
    for f in range(num_factors):
        sums[:, f] = np.bincount(
            link_items, weights=link_rows[:, f], minlength=num_items
        )
    item_latent = sums / counts[:, None]
    item_latent += rng.normal(0.0, item_noise, (num_items, num_factors))

    # ---------------------------------------------------------------- #
    # 4. User latents and interactions.
    # ---------------------------------------------------------------- #
    if user_latent is None:
        user_latent = rng.dirichlet(np.full(num_factors, 0.4), size=num_users)
    else:
        user_latent = np.asarray(user_latent, dtype=np.float64)
        if user_latent.shape != (num_users, num_factors):
            raise ConfigError("user_latent must be (num_users, num_factors)")

    chunked = num_users * num_items > _SCORE_CHUNK_ELEMENTS
    scores: np.ndarray | None = None
    if not chunked:
        # Legacy draw order: score noise first, then the degree vector.
        scores = user_latent @ item_latent.T
        scores += rng.normal(0.0, score_noise, scores.shape)
        degrees = _draw_degrees(rng, mean_interactions, num_users, num_items)
    else:
        # Chunked: degrees must exist before per-chunk noise is drawn, so
        # the stream diverges from legacy here (documented in the module
        # docstring; no legacy artifact exists above the chunk threshold).
        degrees = _draw_degrees(rng, mean_interactions, num_users, num_items)

    offsets = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    total = int(offsets[-1])
    users_arr = np.repeat(np.arange(num_users, dtype=np.int64), degrees)
    items_arr = np.empty(total, dtype=np.int64)
    ratings_arr = np.empty(total, dtype=np.float64) if explicit_ratings else None

    chunk_rows = (
        num_users if not chunked else max(1, _SCORE_CHUNK_ELEMENTS // num_items)
    )
    for a in range(0, num_users, chunk_rows):
        b = min(a + chunk_rows, num_users)
        if scores is not None:
            sc = scores[a:b]
        else:
            sc = user_latent[a:b] @ item_latent.T
            sc += rng.normal(0.0, score_noise, sc.shape)
        deg = degrees[a:b]
        neg = -sc
        # Group users by degree: one argpartition per distinct k keeps every
        # row's selection bit-equal to the legacy per-user call.
        for k in np.unique(deg):
            rows = np.flatnonzero(deg == k)
            k = int(k)
            top = np.argpartition(neg[rows], k - 1, axis=1)[:, :k]
            pos = offsets[a + rows][:, None] + np.arange(k)
            items_arr[pos] = top
            if explicit_ratings:
                # 1-5 stars from the user's own preference quintiles.
                chosen = np.take_along_axis(sc[rows], top, axis=1)
                order = np.argsort(np.argsort(chosen, axis=1), axis=1)
                stars = 1.0 + np.floor(5.0 * order / k)
                ratings_arr[pos] = np.clip(stars, 1.0, 5.0)

    interactions = InteractionMatrix(
        users_arr, items_arr, num_users, num_items, ratings=ratings_arr
    )

    # ---------------------------------------------------------------- #
    # 5. Published KG: optionally degrade link fidelity (kg_signal).
    # ---------------------------------------------------------------- #
    entity_labels = [f"{schema.item_type}:{i}" for i in range(num_items)]
    entity_types = [0] * num_items
    type_names = [schema.item_type] + [s.name for s in schema.attributes]
    offsets_by_type: dict[str, int] = {}
    cursor = num_items
    for type_id, spec in enumerate(schema.attributes, start=1):
        offsets_by_type[spec.name] = cursor
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

    head_parts: list[np.ndarray] = []
    rel_parts: list[np.ndarray] = []
    tail_parts: list[np.ndarray] = []

    def _emit(heads: np.ndarray, rel: int, tails: np.ndarray) -> None:
        head_parts.append(heads.astype(np.int64, copy=False))
        rel_parts.append(np.full(heads.size, rel, dtype=np.int64))
        tail_parts.append(tails.astype(np.int64, copy=False))

    for spec in schema.attributes:
        rel = relation_ids[spec.relation]
        lengths, flat = true_links[spec.name]
        base = offsets_by_type[spec.name]
        if fast or kg_signal == 1.0:
            # Batched fidelity draw.  At kg_signal == 1.0 this is the exact
            # legacy stream: the per-link rng.random() calls happen (as one
            # block) and the rewire branch never fires, so no integers draw
            # interleaves.  Below 1.0 the batched mask+integers order only
            # runs in fast mode.
            u = rng.random(flat.size)
            published = flat.copy()
            if kg_signal < 1.0:
                mask = u > kg_signal
                published[mask] = rng.integers(0, spec.count, int(mask.sum()))
            _emit(np.repeat(np.arange(num_items), lengths), rel, base + published)
        else:
            # Exact mode with rewiring: the conditional integers draw
            # interleaves with the random draw per link, so the stream
            # forces a loop.
            item_of_link = np.repeat(np.arange(num_items), lengths)
            published_list: list[int] = []
            for attr in flat:
                published = int(attr)
                if rng.random() > kg_signal:
                    published = int(rng.integers(0, spec.count))
                published_list.append(published)
            _emit(
                item_of_link, rel,
                base + np.asarray(published_list, dtype=np.int64),
            )

    for src_name, rel_label, dst_name, per_src in schema.attribute_links:
        rel = relation_ids[rel_label]
        src_spec = next(s for s in schema.attributes if s.name == src_name)
        dst_spec = next(s for s in schema.attributes if s.name == dst_name)
        k = min(per_src, dst_spec.count)
        if fast:
            cand = rng.integers(0, dst_spec.count, size=(src_spec.count, max(k, 1)))
            cand = _dedupe_rows(
                rng, cand, np.full(src_spec.count, k, dtype=np.int64),
                dst_spec.count,
            )[:, :k]
            srcs = np.repeat(np.arange(src_spec.count), k)
            _emit(
                offsets_by_type[src_name] + srcs, rel,
                offsets_by_type[dst_name] + cand.ravel(),
            )
        else:
            for src in range(src_spec.count):
                targets = rng.choice(dst_spec.count, size=k, replace=False)
                _emit(
                    offsets_by_type[src_name] + np.full(k, src, dtype=np.int64),
                    rel,
                    offsets_by_type[dst_name] + targets,
                )

    store = TripleStore(
        np.concatenate(head_parts) if head_parts else np.empty(0, np.int64),
        np.concatenate(rel_parts) if rel_parts else np.empty(0, np.int64),
        np.concatenate(tail_parts) if tail_parts else np.empty(0, np.int64),
        num_entities=num_entities,
        num_relations=len(relation_labels),
    )
    kg = KnowledgeGraph(
        store,
        entity_labels=entity_labels,
        relation_labels=relation_labels,
        entity_types=np.asarray(entity_types, dtype=np.int64),
        type_names=type_names,
    )

    # ---------------------------------------------------------------- #
    # 6. Optional content features (bag of informative attributes + noise).
    # ---------------------------------------------------------------- #
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
