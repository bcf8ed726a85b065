"""The survey's Table 1: commonly used public knowledge graphs.

A metadata catalog of the eleven KGs the survey lists, with domain type and
main knowledge sources.  The catalog is pure data — the public graphs
themselves are not redistributable — but it drives the Table 1 bench and
lets scenario generators record which public KG a synthetic graph stands in
for.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PublicKG", "TABLE1", "cross_domain", "domain_specific"]


@dataclass(frozen=True)
class PublicKG:
    """One row of Table 1."""

    name: str
    domain_type: str  # "Cross-Domain" or a specific domain
    sources: tuple[str, ...]
    ref: int  # citation number in the survey

    @property
    def is_cross_domain(self) -> bool:
        return self.domain_type == "Cross-Domain"


TABLE1: tuple[PublicKG, ...] = (
    PublicKG("YAGO", "Cross-Domain", ("Wikipedia",), 17),
    PublicKG(
        "Freebase",
        "Cross-Domain",
        ("Wikipedia", "NNDB", "FMD", "MusicBrainz"),
        15,
    ),
    PublicKG("DBpedia", "Cross-Domain", ("Wikipedia",), 16),
    PublicKG("Satori", "Cross-Domain", ("Web Data",), 31),
    PublicKG(
        "CN-DBPedia",
        "Cross-Domain",
        ("Baidu Baike", "Hudong Baike", "Wikipedia (Chinese)"),
        33,
    ),
    PublicKG("NELL", "Cross-Domain", ("Web Data",), 24),
    PublicKG("Wikidata", "Cross-Domain", ("Wikipedia", "Freebase"), 40),
    PublicKG("Google's Knowledge Graph", "Cross-Domain", ("Web data",), 18),
    PublicKG(
        "Facebook's Entities Graph",
        "Cross-Domain",
        ("Wikipedia", "Facebook data"),
        41,
    ),
    PublicKG(
        "Bio2RDF",
        "Biological Domain",
        ("Public bioinformatics databases", "NCBI's databases"),
        25,
    ),
    PublicKG(
        "KnowLife", "Biomedical Domain", ("Scientific literature", "Web portals"), 43
    ),
)


def cross_domain() -> list[PublicKG]:
    """The cross-domain KGs (the class used by recommender systems)."""
    return [kg for kg in TABLE1 if kg.is_cross_domain]


