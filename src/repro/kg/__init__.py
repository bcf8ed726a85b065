"""Knowledge-graph data structures: triples, typed graphs, meta-paths,
ripple sets, sampling, graph builders, and link-prediction evaluation."""

from .analysis import (
    connected_components,
    degree_distribution,
    graph_summary,
    relation_histogram,
)
from .builders import build_user_item_graph, ensure_user_item_graph
from .completion import LinkPredictionResult, evaluate_link_prediction
from .graph import KnowledgeGraph
from .hin import NetworkSchema
from .metapath import (
    MetaGraph,
    MetaPath,
    Path,
    enumerate_paths,
    metagraph_adjacency,
    metapath_adjacency,
    pathcount_similarity,
    pathsim_matrix,
)
from .ripple import RippleSet, user_ripple_sets
from .sampling import NeighborCache, corrupt_batch
from .triples import TripleStore

__all__ = [
    "TripleStore",
    "KnowledgeGraph",
    "NetworkSchema",
    "MetaPath",
    "MetaGraph",
    "Path",
    "enumerate_paths",
    "metapath_adjacency",
    "metagraph_adjacency",
    "pathsim_matrix",
    "pathcount_similarity",
    "RippleSet",
    "user_ripple_sets",
    "NeighborCache",
    "corrupt_batch",
    "build_user_item_graph",
    "ensure_user_item_graph",
    "graph_summary",
    "relation_histogram",
    "degree_distribution",
    "connected_components",
    "LinkPredictionResult",
    "evaluate_link_prediction",
]
