"""Radar/camera corruption models, Gaussian voxel expansion, and
confidence-guided fusion numerics, with a synthetic robustness benchmark."""

from .core import (
    BoxAnnotation,
    GridSpec,
    PointCloud,
    Rng,
    Scene,
    VoxelGrid,
    default_grid,
)
from .corruption import (
    CorruptionKind,
    CorruptionSpec,
    SpuriousMode,
    apply_corruption,
    beam_drop,
    key_point_missing,
    non_positional_disturbance,
    point_shift,
    sample_sigma,
    spurious_points,
)
from .expansion import (
    ProjectorWeights,
    bev_project,
    build_kernel,
    expand,
    heuristic_kernel_params,
    kernel_params,
    kernel_params_for_cloud,
    merge_residual,
    project_params,
    residual_bevs,
    voxelize,
)
from .imaging import (
    DegradationMap,
    DegradationSpec,
    ImagePlane,
    composite_weather,
    gamma_lowlight,
    same_timestamp_consistency,
)
from .fusion import (
    ConfidenceMap,
    FeatureMap,
    FusionParams,
    aggregate,
    concat_mm,
    confidence_map,
    deform_cross_attention,
    fuse_bev,
    layer_norm,
    random_fusion_params,
    weight_features,
)
from .bench import (
    BenchRow,
    SceneConfig,
    SweepConfig,
    default_sweep_config,
    gen_scene,
    metric_chamfer,
    metric_peak,
    metric_snr,
    run_sweep,
    scripted_scene,
)

__version__ = "0.1.0"
