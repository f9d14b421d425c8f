"""Stochastic Mapper graphs and persistence-driven filter optimization."""

from .data import PointCloud, load_csv, load_off_vertices, normalize_counts, hausdorff_to_subsample
from .filters import FilterValues, LinearFilter, FixedFilter, diagonal_init
from .cover import (
    IntervalCover,
    AssignmentScheme,
    MarginDraws,
    uniform_cover,
    standard_scheme,
    smooth_scheme,
    sample_assignment,
    log_prob,
)
from .clustering import KMeansClusterer, SingleLinkageClusterer, cluster, threshold_from_hausdorff
from .mapper import MapperNode, MapperGraph, map_comp
from .persistence import (
    FilteredGraph,
    DiagramPoint,
    map_pers_filtration,
    extended_persistence,
    regular_persistence,
    total_persistence,
    loss_and_subgradient,
)
from .optimize import OptimConfig, Trace, direction_correlation, optimize
from .synthetic import generate_synthetic

__version__ = "0.1.0"
