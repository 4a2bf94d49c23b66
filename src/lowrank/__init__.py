"""Low-rank factorization toolkit for convolutional and dense layers.

The package covers the full compression workflow: closed-form cost
models, exhaustive rank-space enumeration, tensor and matrix
decomposition, feature-map-similarity rank search, hybrid per-layer
combination, and a reference inference engine for factorized models.
"""

from .costs import (CONV_METHODS, FC_METHODS, OBJECTIVES, CostReport,
                    compression_ratio, cost_chain, cost_factorized,
                    cost_original, cp_max_rank, default_input_shape,
                    model_breakdown, rank_bounds, t3f_plans)
from .decompose import FactorizedLayer, decompose_layer
from .dse import (BuiltinEvaluator, DseConfig, DseResult, ExternalEvaluator,
                  hybrid_combine, install_solutions, iteration_bound, run_dse,
                  select_target_layers)
from .errors import (ConstraintUnreachableError, DecompositionError,
                     EvaluatorError, FormatError, GraphError, LowRankError,
                     RankError, ShapeError)
from .explore import (BucketReport, Solution, SpaceCensus, census, count_all,
                      count_valid, iter_solutions, select_candidates,
                      solutions_at_ratio, valid_extremes)
from .ir import LayerDesc, ModelDesc, WeightStore, check_weights
from .linalg import mode_n_product, qr_pivoted, relative_error, svd, unfold
from .score import (measure_method, method_table, qualitative_score,
                    rank_slot_count)
from .similarity import (capture_feature_maps, cosine, forward_factorized,
                         forward_layer, forward_model, layer_similarity,
                         sample_dataset)

__version__ = "0.1.0"

__all__ = [
    "BucketReport", "BuiltinEvaluator", "CONV_METHODS",
    "ConstraintUnreachableError", "CostReport", "DecompositionError",
    "DseConfig", "DseResult", "EvaluatorError", "ExternalEvaluator",
    "FC_METHODS", "FactorizedLayer", "FormatError", "GraphError",
    "LayerDesc", "LowRankError", "ModelDesc", "OBJECTIVES", "RankError",
    "ShapeError", "Solution", "SpaceCensus", "WeightStore",
    "capture_feature_maps", "census", "check_weights", "compression_ratio",
    "cosine", "cost_chain", "cost_factorized", "cost_original", "count_all",
    "count_valid", "cp_max_rank", "decompose_layer", "default_input_shape",
    "forward_factorized", "forward_layer", "forward_model",
    "hybrid_combine", "install_solutions", "iter_solutions",
    "iteration_bound", "layer_similarity", "measure_method", "method_table",
    "mode_n_product", "model_breakdown", "qr_pivoted", "qualitative_score",
    "rank_bounds", "rank_slot_count", "relative_error", "run_dse",
    "sample_dataset", "select_candidates", "select_target_layers",
    "solutions_at_ratio", "svd", "t3f_plans", "unfold", "valid_extremes",
]
