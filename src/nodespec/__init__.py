"""Node-oriented spectral filtering for graphs.

Per-node polynomial graph filters with low-rank coefficient factorization,
the homophily/entropy analysis metrics that motivate them, a dense spectral
oracle for exactness testing, and a reproducible training harness.
"""

from .data import Dataset, Split, load_dataset, load_split, make_split, save_split
from .evaluate import (BinReport, RunSummary, accuracy,
                       coefficient_distance_report, homophily_binned_accuracy,
                       summarize_runs)
from .graph import (Graph, SparseOperator, build_graph, estimate_lambda_max,
                    hop_distances, normalized_laplacian, scaled_laplacian,
                    spmm)
from .homophily import (HomophilyReport, PropositionCheck, graph_homophily,
                        histogram, homophily_report, jaccard_neighbor_distance,
                        label_entropy, node_homophily,
                        proposition_closed_forms, proposition_monte_carlo)
from .model import (AdamState, DivergenceError, FilterFactorization,
                    ForwardTrace, ModelParams, TrainConfig, TrainResult,
                    adam_step, attach_loss, backward, forward_appnp_like,
                    forward_sgc_like, init_params, load_checkpoint, loss,
                    node_coefficients, parameter_count, predict,
                    save_checkpoint, train)
from .oracle import (EigenSystem, SpectralFilter, eigendecompose, exact_filter,
                     filter_at_node, localization_check, run_oracle_checks,
                     translate_filter)
from .polyfilter import PropagationStack, combine, frequency_response, propagate

__version__ = "0.1.0"
