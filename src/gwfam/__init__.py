"""Multi-type branching processes observed by family-size sampling.

Simulation of supercritical multi-type Galton-Watson trees, uniform
without-replacement sampling of family sizes from a generation, exact
combinatorial oracles for the sampling distribution, and moment/likelihood
estimators of the growth rate, stable type proportions, and offspring
parameters, with asymptotic confidence intervals.
"""

from .errors import GwfamError
from .estimators import (
    MitosisEstimates,
    MleFit,
    MomentEstimates,
    amle_fit,
    mitosis_closed_form,
    mitosis_counts,
    mitosis_twin_root,
    mom_confidence,
    mom_estimates,
    plugin_variances,
)
from .experiment import (
    ExperimentCell,
    ExperimentConfig,
    ReplicationSummary,
    emit_histograms,
    preset,
    run_experiment,
)
from .models import (
    BranchingModel,
    OffspringLaw,
    ValidationReport,
    branching_model,
    builtin_model,
    load_model,
    mitosis_model,
    model_from_dict,
    model_to_dict,
    offspring_law,
    parse_model_arg,
    rds_model,
    validate_model,
)
from .sampling import (
    FamilySample,
    PairPmf,
    SampleSizeRule,
    draw_family_sample,
    empirical_tv_to_limit,
    is_non_sibling,
    pair_pmf_closed_form,
    pair_pmf_exact,
    prob_distinct,
    prob_distinct_exact,
)
from .simulate import (
    GenerationTrace,
    SamplingView,
    SeedSpec,
    sampling_view,
    simulate_aggregate,
)
from .spectral import (
    AsymptoticVariances,
    PerronPair,
    SizeBiasedLaw,
    asymptotic_variances,
    is_positively_regular,
    moment_identities,
    perron,
    reproduction_matrix,
    size_biased_pmf,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
