"""freqsel: frequency-domain timestep selection for diffusion feature dumps.

Pipeline in one line: load feature maps -> per-map high-frequency energy
ratio (a separable Gaussian high-pass, X - A @ X @ B, whose energy over the
map's energy is the HFR) -> per-timestep means -> argmax timestep.
Everything around that (forward-process simulation, a synthetic oracle with
a provably correct answer, Fisher-score diagnostics, rank correlations, a
strict tensor container) supports validating the pipeline end to end. All
reductions are order-fixed, so results are bit-reproducible across runs and
thread counts on one machine and numpy/BLAS build.
"""
from . import errors
from .diffusion import (
    DEFAULT_TOTAL_TIMESTEPS,
    NoiseSchedule,
    OracleProfile,
    forward_noise,
    gaussian_bump_curve,
    linear_schedule,
    load_schedule_csv,
    oracle_features,
    sample_noise,
    save_schedule_csv,
    simulate_forward,
    standard_normal,
    stream_seed,
    uniforms,
)
from .discriminability import (
    Correlation,
    FisherResult,
    LabeledEmbeddingSet,
    correlate,
    fisher_score,
    pearson,
    pool_tokens,
    read_series_csv,
    spearman,
    write_series_csv,
)
from .reduction import pairwise_sum
from .selection import (
    HfrCurve,
    SelectionReport,
    average_hfr,
    read_curve_csv,
    select_timestep,
    write_curve_csv,
    write_report_json,
)
from .spectral import (
    DEFAULT_CUTOFF,
    Decomposition,
    HighPassMask,
    decompose,
    energy,
    extract_high_freq,
    gaussian_highpass_mask,
    hfr,
)
from .tensor_io import (
    DatasetManifest,
    FeatureMap,
    FeatureMeta,
    ManifestEntry,
    iter_loaded,
    load_entry,
    load_manifest,
    read_tensor,
    reshape_tokens,
    save_manifest,
    write_tensor,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "__version__",
    # tensor_io
    "FeatureMap",
    "FeatureMeta",
    "ManifestEntry",
    "DatasetManifest",
    "read_tensor",
    "write_tensor",
    "reshape_tokens",
    "load_manifest",
    "save_manifest",
    "iter_loaded",
    "load_entry",
    # reduction
    "pairwise_sum",
    # spectral
    "DEFAULT_CUTOFF",
    "HighPassMask",
    "Decomposition",
    "gaussian_highpass_mask",
    "energy",
    "hfr",
    "extract_high_freq",
    "decompose",
    # diffusion
    "DEFAULT_TOTAL_TIMESTEPS",
    "NoiseSchedule",
    "OracleProfile",
    "linear_schedule",
    "load_schedule_csv",
    "save_schedule_csv",
    "forward_noise",
    "sample_noise",
    "standard_normal",
    "uniforms",
    "stream_seed",
    "simulate_forward",
    "gaussian_bump_curve",
    "oracle_features",
    # discriminability
    "LabeledEmbeddingSet",
    "FisherResult",
    "Correlation",
    "pool_tokens",
    "fisher_score",
    "pearson",
    "spearman",
    "correlate",
    "read_series_csv",
    "write_series_csv",
    # selection
    "HfrCurve",
    "SelectionReport",
    "average_hfr",
    "select_timestep",
    "read_curve_csv",
    "write_curve_csv",
    "write_report_json",
]
