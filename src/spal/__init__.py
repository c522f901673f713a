"""Structural-clustering PageRank active learning for graph node
classification: graph loading, structural communities, damped PageRank,
budgeted selection strategies, and a GCN evaluation harness."""

from .experiment import EvalReport, run_experiment, run_strategy
from .gcn import GcnModel, TrainConfig, cross_entropy_loss, gcn_forward, predict, train
from .graph import AttributedGraph, NormalizedAdjacency, load_graph, propagate
from .kmedoids import kmedoids
from .metrics import accuracy, macro_f1
from .pagerank import (
    BlockScores,
    PageRankParams,
    ScoreVector,
    pagerank,
    pagerank_blocks,
    pagerank_partition,
)
from .scan import CommunityAssignment, ScanParams, scan_partition, structural_similarity
from .selection import (
    SelectionResult,
    featprop_select,
    pagerank_select,
    random_select,
    spa_select,
    uncertainty_select,
)
from .synthetic import sbm_graph

__version__ = "0.1.0"

__all__ = [
    "AttributedGraph",
    "BlockScores",
    "CommunityAssignment",
    "EvalReport",
    "GcnModel",
    "NormalizedAdjacency",
    "PageRankParams",
    "ScanParams",
    "ScoreVector",
    "SelectionResult",
    "TrainConfig",
    "accuracy",
    "cross_entropy_loss",
    "featprop_select",
    "gcn_forward",
    "kmedoids",
    "load_graph",
    "macro_f1",
    "pagerank",
    "pagerank_blocks",
    "pagerank_partition",
    "pagerank_select",
    "predict",
    "propagate",
    "random_select",
    "run_experiment",
    "run_strategy",
    "sbm_graph",
    "scan_partition",
    "spa_select",
    "structural_similarity",
    "train",
    "uncertainty_select",
]
