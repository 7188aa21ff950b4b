"""Low-rank plus sparse weight decomposition with budgeted mask learning.

Stage 1 splits each dense weight matrix into a low-rank part and an
entrywise-sparse part. Stage 2 treats every singular triplet and sparse
entry as a prunable candidate, learns Bernoulli retention probabilities
against a calibration loss under a global parameter budget, and freezes a
deterministic top-probability selection into factorized storage.
"""

from .allocator import (
    PolicyGradientConfig,
    RetentionState,
    init_state,
    log_prob_grad,
    project_to_budget,
    reinforce_step,
    sample_mask,
)
from .calibration import (
    CalibrationSet,
    ToyModel,
    forward_loss,
    gen_calibration,
    loss_with_masks,
    planted_model,
    planted_spectrum_matrix,
)
from .matio import (
    ConfigError,
    JobConfig,
    MatrixFormatError,
    load_job_config,
    parse_job_config,
    read_matrix,
    write_matrix,
)
from .pipeline import (
    CompressionJob,
    CompressionReport,
    LayerSummary,
    ablate_threshold,
    default_job,
    heuristic_threshold_baseline,
    job_from_config,
    run,
    sweep_lambda,
)
from .pool import CandidatePool, CompressedLayer, build_pool, factorize, param_count, reconstruct
from .rpca import (
    NonConvergenceError,
    RpcaConfig,
    RpcaResult,
    SvdError,
    SvdFactorization,
    as_matrix,
    decompose,
    default_lambda,
    soft_threshold,
    svt,
    svt_shrink,
)

__version__ = "0.1.0"
