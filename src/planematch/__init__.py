"""Non-crossing (plane) matchings of planar point sets with provable
bottleneck-length and cardinality guarantees.

Exact integer geometry underneath; every approximation is cross-checkable
against a brute-force oracle at small sizes.
"""
from .blossom import AbstractGraph, BottleneckCrossingResult, bottleneck_crossing, max_matching
from .bottleneck_one import CriticalEdgeResult, SeedTriple, compare_to_opt, critical_edge, first_approx, match_tree_first
from .bottleneck_two import EvenForest, even_forest, is_anchor, match_tree_second, second_approx
from .geometry import SCALE, Point, PointSet, Segment, convex_empty, cw_angle, segments_cross
from .io import gen_points, parse_points, render_svg
from .matching import Matching, ValidationReport, validate
from .oracle import OracleResult, exact_bottleneck_plane, exact_max_plane_matching
from .proximity import (
    DiskGraph,
    Forest,
    SkeletonTree,
    Tree,
    Triangulation,
    delaunay,
    disk_graph,
    emst5,
    forest_leq,
    second_closest,
    skeleton,
)
from .udg import RotationTrace, one_third, plane_matching

__all__ = [
    "AbstractGraph",
    "BottleneckCrossingResult",
    "CriticalEdgeResult",
    "DiskGraph",
    "EvenForest",
    "Forest",
    "Matching",
    "OracleResult",
    "Point",
    "PointSet",
    "RotationTrace",
    "SCALE",
    "Segment",
    "SeedTriple",
    "SkeletonTree",
    "Tree",
    "Triangulation",
    "ValidationReport",
    "bottleneck_crossing",
    "compare_to_opt",
    "convex_empty",
    "critical_edge",
    "cw_angle",
    "delaunay",
    "disk_graph",
    "emst5",
    "even_forest",
    "exact_bottleneck_plane",
    "exact_max_plane_matching",
    "first_approx",
    "forest_leq",
    "gen_points",
    "is_anchor",
    "match_tree_first",
    "match_tree_second",
    "max_matching",
    "one_third",
    "parse_points",
    "plane_matching",
    "render_svg",
    "second_approx",
    "second_closest",
    "segments_cross",
    "skeleton",
    "validate",
]
