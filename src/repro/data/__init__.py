"""Synthetic datasets for the survey's seven application scenarios, plus
metadata catalogs reproducing Tables 1 and 4."""

from .catalog import TABLE4, DatasetEntry, scenarios_list
from .kg_catalog import TABLE1, PublicKG, cross_domain
from .scenarios import (
    BOOK_SCHEMA,
    MOVIE_SCHEMA,
    MUSIC_SCHEMA,
    NEWS_SCHEMA,
    POI_SCHEMA,
    PRODUCT_SCHEMA,
    SCENARIO_SCHEMAS,
    SOCIAL_SCHEMA,
    make_book_dataset,
    make_movie_dataset,
    make_music_dataset,
    make_news_dataset,
    make_poi_dataset,
    make_product_dataset,
    make_social_dataset,
)
from .synthetic import AttributeSpec, ScenarioSchema, generate_dataset

__all__ = [
    "AttributeSpec",
    "ScenarioSchema",
    "generate_dataset",
    "SCENARIO_SCHEMAS",
    "MOVIE_SCHEMA",
    "BOOK_SCHEMA",
    "MUSIC_SCHEMA",
    "PRODUCT_SCHEMA",
    "POI_SCHEMA",
    "NEWS_SCHEMA",
    "SOCIAL_SCHEMA",
    "make_movie_dataset",
    "make_book_dataset",
    "make_music_dataset",
    "make_product_dataset",
    "make_poi_dataset",
    "make_news_dataset",
    "make_social_dataset",
    "PublicKG",
    "TABLE1",
    "cross_domain",
    "DatasetEntry",
    "TABLE4",
    "scenarios_list",
]
