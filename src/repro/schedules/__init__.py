"""Inter-loop scheduling variants of the exemplar kernel (paper §IV).

Four categories — series of loops, shifted+fused, blocked wavefront,
overlapped tiles — across granularity / component-loop / tile-size axes,
all bitwise-equivalent to the reference kernel.
"""

from .base import (
    CATEGORIES,
    COMPONENT_LOOPS,
    GRANULARITIES,
    INTRA_TILE,
    TILE_SIZES,
    BoxExecutor,
    Variant,
)
from .level import prepare_phi1, run_schedule_on_level
from .overlapped import OverlappedTileExecutor
from .series import SeriesExecutor
from .shift_fuse import ShiftFuseExecutor, compute_velocities, fused_sweep
from .tiling import TileGrid, wavefront_schedule_depth
from .variants import (
    baseline_variant,
    enumerate_design_space,
    extended_variants,
    figure_variants,
    make_executor,
    practical_variants,
    shift_fuse_variant,
    variant_by_label,
)
from .wavefront import BlockedWavefrontExecutor

__all__ = [
    "BlockedWavefrontExecutor",
    "BoxExecutor",
    "CATEGORIES",
    "COMPONENT_LOOPS",
    "GRANULARITIES",
    "INTRA_TILE",
    "OverlappedTileExecutor",
    "SeriesExecutor",
    "ShiftFuseExecutor",
    "TILE_SIZES",
    "TileGrid",
    "Variant",
    "baseline_variant",
    "compute_velocities",
    "enumerate_design_space",
    "extended_variants",
    "figure_variants",
    "fused_sweep",
    "make_executor",
    "practical_variants",
    "prepare_phi1",
    "run_schedule_on_level",
    "shift_fuse_variant",
    "variant_by_label",
    "wavefront_schedule_depth",
]
