"""Restricted-weight data, zero Lyapunov exponent predictions, and
random-cocycle verification for the pseudo-Hermitian classical groups."""

from .errors import (InternalError, NumericalError, ParameterError,
                     UnsupportedFeatureError)
from .prediction import (LyapunovVector, SpectrumPrediction, evaluate_spectrum,
                         hodge_admissible, predict, predicted_counts,
                         predicted_zero_count, realified_weights,
                         sigma_rank_bound, su_exterior_zero_multiplicity,
                         su_p1_exterior_signature, su_p1_zero_block_split)
from .realforms import (Family, RealFormSpec, restriction_map, so_split, so_star,
                        sp, su, weights_restricted)
from .weights import (RepKind, RepSpec, Weight, WeightMultiset, binomial,
                      k_subsets)

__version__ = "0.6.0"

# numpy-backed names and the modules they are read from on every access (PEP 562)
_LAZY = {"matrices": "matrices", "simulate": "simulate",
         **dict.fromkeys(["GroupSampler", "exterior_power_matrix", "lie_algebra_basis",
                          "sample_group_elements"], "realforms"),
         **dict.fromkeys(["ExteriorConsistencyReport", "LyapunovResult", "SimConfig",
                          "VerdictReport", "ZeroCluster", "classify_zero_cluster",
                          "estimate_lyapunov_vector", "exterior_consistency_check",
                          "lyapunov_spectrum", "verify_prediction"], "simulate")}
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
