"""Restricted-weight data, zero Lyapunov exponent predictions, and
random-cocycle verification for the pseudo-Hermitian classical groups."""

from .errors import (InternalError, NumericalError, ParameterError,
                     UnsupportedFeatureError)
from .prediction import (LyapunovVector, SpectrumPrediction, evaluate_spectrum,
                         hodge_admissible, predict, predicted_counts,
                         predicted_zero_count, realified_weights,
                         sigma_rank_bound, su_exterior_zero_multiplicity,
                         su_p1_exterior_signature, su_p1_zero_block_split)
from .realforms import (Family, GroupSampler, RealFormSpec,
                        exterior_power_matrix, lie_algebra_basis,
                        restriction_map, sample_group_elements, so_split,
                        so_star, sp, su, weights_restricted)
from .simulate import (ExteriorConsistencyReport, LyapunovResult, SimConfig,
                       VerdictReport, ZeroCluster, classify_zero_cluster,
                       estimate_lyapunov_vector, exterior_consistency_check,
                       lyapunov_spectrum, verify_prediction)
from .weights import (RepKind, RepSpec, Weight, WeightMultiset, binomial,
                      k_subsets)

__version__ = "0.4.0"
