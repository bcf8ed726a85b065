"""The survey's Table 4: datasets per application scenario.

Catalogs which public dataset each surveyed paper evaluated on, grouped by
the seven scenarios, and maps each public dataset to the synthetic stand-in
shipped in :mod:`repro.data.scenarios`.  The Table 4 bench regenerates the
paper's table from this registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.dataset import Dataset

from . import scenarios

__all__ = ["DatasetEntry", "TABLE4", "scenarios_list", "stand_in_for"]


@dataclass(frozen=True)
class DatasetEntry:
    """One dataset row of Table 4."""

    scenario: str
    dataset: str
    #: Citation numbers of the surveyed papers evaluating on this dataset.
    papers: tuple[int, ...]
    #: Factory for the synthetic stand-in shipped by this library.
    stand_in: Callable[..., Dataset]


TABLE4: tuple[DatasetEntry, ...] = (
    DatasetEntry(
        "movie", "MovieLens-100K", (1, 73, 75, 76, 77, 80), scenarios.make_movie_dataset
    ),
    DatasetEntry(
        "movie",
        "MovieLens-1M",
        (2, 14, 44, 45, 66, 70, 81, 83, 87, 92, 93, 95, 96),
        scenarios.make_movie_dataset,
    ),
    DatasetEntry(
        "movie", "MovieLens-20M", (44, 86, 88, 89, 91, 93), scenarios.make_movie_dataset
    ),
    DatasetEntry("movie", "DoubanMovie", (69, 79, 82), scenarios.make_movie_dataset),
    DatasetEntry("book", "DBbook2014", (70, 87), scenarios.make_book_dataset),
    DatasetEntry(
        "book",
        "Book-Crossing",
        (14, 45, 88, 89, 91, 92, 93, 95),
        scenarios.make_book_dataset,
    ),
    DatasetEntry("book", "Amazon-Book", (44, 90, 93), scenarios.make_book_dataset),
    DatasetEntry("book", "IntentBooks", (2,), scenarios.make_book_dataset),
    DatasetEntry("book", "DoubanBook", (82,), scenarios.make_book_dataset),
    DatasetEntry("news", "Bing-News", (14, 45, 48, 88), scenarios.make_news_dataset),
    DatasetEntry(
        "product",
        "Amazon Product data",
        (3, 13, 67, 84, 85, 94),
        scenarios.make_product_dataset,
    ),
    DatasetEntry(
        "product", "Alibaba Taobao", (74, 94), scenarios.make_product_dataset
    ),
    DatasetEntry(
        "poi",
        "Yelp challenge",
        (1, 3, 76, 77, 79, 80, 81, 82, 90, 96),
        scenarios.make_poi_dataset,
    ),
    DatasetEntry("poi", "Dianping-Food", (91,), scenarios.make_poi_dataset),
    DatasetEntry("poi", "CEM", (71,), scenarios.make_poi_dataset),
    DatasetEntry(
        "music",
        "Last.FM",
        (1, 44, 45, 87, 89, 90, 91, 96),
        scenarios.make_music_dataset,
    ),
    DatasetEntry("music", "KKBox", (73, 83), scenarios.make_music_dataset),
    DatasetEntry("social", "Weibo", (68,), scenarios.make_social_dataset),
    DatasetEntry("social", "DBLP", (78,), scenarios.make_social_dataset),
    DatasetEntry("social", "MeetUp", (78,), scenarios.make_social_dataset),
)


def scenarios_list() -> list[str]:
    """Scenario names in Table 4 order (stable, deduplicated)."""
    seen: list[str] = []
    for entry in TABLE4:
        if entry.scenario not in seen:
            seen.append(entry.scenario)
    return seen


