"""freqsel: frequency-domain timestep selection for diffusion feature dumps.

Pipeline in one line: load feature maps -> per-map high-frequency energy
ratio (HFR = sum((G * Z)^2) / sum(Z^2) in [0, 1], Z the map in the Hartley
basis, G the Gaussian high-pass gains) -> per-timestep means -> argmax.
Everything around that (forward-process simulation, a synthetic oracle with
a provably correct answer, Fisher-score diagnostics, rank correlations, a
strict tensor container) supports validating the pipeline end to end.
Arrays are summed by numpy's pairwise ``sum``, fixed by length, and partial
sums and short series by the exactly rounded ``math.fsum``, so results are
bit-reproducible across runs and thread counts on one machine and
numpy/BLAS build.

Names are looked up lazily (PEP 562): ``import freqsel`` loads only the
numpy-free error classes, and each name imports its defining module the
first time it is read, so a caller that only reads a curve never loads
numpy.
"""
from importlib import import_module

from . import errors

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "FeatureMap": "tensor_io",
    "FeatureMeta": "tensor_io",
    "read_tensor": "tensor_io",
    "ManifestEntry": "manifest",
    "DatasetManifest": "manifest",
    "load_manifest": "manifest",
    "save_manifest": "manifest",
    "DEFAULT_CUTOFF": "defaults",
    "Decomposition": "spectral",
    "hfr": "spectral",
    "extract_high_freq": "spectral",
    "decompose": "spectral",
    "DEFAULT_TOTAL_TIMESTEPS": "defaults",
    "NoiseSchedule": "diffusion",
    "OracleProfile": "diffusion",
    "linear_schedule": "diffusion",
    "load_schedule_csv": "diffusion",
    "simulate_forward": "diffusion",
    "gaussian_bump_curve": "diffusion",
    "oracle_features": "diffusion",
    "LabeledEmbeddingSet": "discriminability",
    "FisherResult": "discriminability",
    "Correlation": "discriminability",
    "pool_tokens": "discriminability",
    "fisher_score": "discriminability",
    "correlate": "discriminability",
    "read_series_csv": "discriminability",
    "HfrCurve": "selection",
    "SelectionReport": "selection",
    "average_hfr": "selection",
    "select_timestep": "selection",
    "read_curve_csv": "selection",
    "write_curve_csv": "selection",
    "write_report_json": "selection",
}

__all__ = ["errors", "__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
