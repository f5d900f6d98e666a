"""maskdiff: exact desk-scale absorbing-mask discrete diffusion with
copula-corrected denoising.

Small categorical distributions are represented as dense tables, so every
quantity of interest - reverse posteriors, information projections, the
distribution a sampler induces - is computed by enumeration and checkable
against independent oracles.
"""

from .dist import (
    Alphabet,
    JointTable,
    MarginalSet,
    condition,
    conditional_odds_ratio,
    entropy,
    kl,
    load_table,
    product_table,
    same_copula,
    save_table,
    total_variation,
    univariate_marginals,
)
from .errors import MaskDiffError
from .harness import (
    ExperimentResult,
    InducedResult,
    SyntheticSpec,
    elbo_bound,
    expected_nll,
    gen_data,
    induced_distribution,
    kl_to_data,
    nelbo_factorized,
    optimal_factorized_denoiser,
    run_sweep,
)
from .iproj import (
    FactorMatrix,
    IprojReport,
    apply_factors,
    dcd_factors,
    iproject_descent,
    iproject_exact,
    objective,
    objective_gradient,
    rankwise_update,
)
from .models import (
    ARCopulaModel,
    DiffusionMarginalModel,
    ar_chain_table,
    ar_conditional,
    dm_marginals_causal,
    dm_marginals_full,
    fit_counts_table,
    load_corpus,
    save_corpus,
)
from .noising import (
    NoiseSchedule,
    SequenceState,
    aux_posterior,
    brute_reverse_posterior,
    forward_state_distribution,
    make_schedule,
    remask_kernel,
    renormalize_marginals,
)
from .sampler import (
    MODES,
    SampleTrace,
    SamplerConfig,
    ar_unmask_schedule,
    dcd_step,
    diffusion_only_step,
    sample,
)

__version__ = "0.1.0"
