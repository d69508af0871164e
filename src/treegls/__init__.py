"""Linear-model inference under tree-structured autocorrelation.

The tree's branch lengths induce a Brownian covariance among tips; this
package fits the corresponding GLS model, quantifies how little information
a correlated sample carries about ancestral states (effective sample sizes
with their structural bounds), corrects BIC for the bounded-information
parameters, optimizes which tips to measure, and runs the convergence and
phase-transition experiments that back those formulas.
"""

from .covariance import (
    CovarianceSpec,
    QuadraticForms,
    bm_covariance,
    covariance_matrix,
    ou_covariance,
    quadratic_forms_dense,
    quadratic_forms_pruning,
    scaled_ess_pruning,
    symmetric_tree_eigenvalues,
)
from .design import (
    BandSummary,
    DesignResult,
    band_table,
    exhaustive_design,
    random_design_bands,
    score_subsample,
    stepwise_design,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DegenerateFitError,
    NewickError,
    OutOfMemoryError,
    RankDeficientError,
    SingularCovarianceError,
    TraitTableError,
    TreeError,
    TreeGlsError,
)
from .ess import EssReport, LineageEss, ess_bounds, ess_intercept, ess_lineage
from .gls import (
    GlsFit,
    ShiftInfo,
    ShiftSpec,
    TraitData,
    covariate_sigma_hat,
    fit_shift_model,
    gls_fit,
    load_traits,
    sb_covariance,
    shrinkage_estimate,
)
from .modelsel import (
    ModelScore,
    aic,
    bic_corrected_m0,
    bic_corrected_m1,
    bic_standard,
    corrected_penalty_m0,
    corrected_penalty_m1,
    score_models,
)
from .simlab import (
    ConvergenceConfig,
    ConvergenceReport,
    PhasePoint,
    ReplicationSpec,
    SymmetricTreeSpec,
    convergence_experiment,
    log_corrected_slope,
    make_replicated_tree,
    make_symmetric_tree,
    phase_transition_curve,
    power_law_slope,
    random_tree,
    replicated_intercept_variance,
    simulate_bm,
    simulate_traits,
    star_tree,
    symmetric_intercept_variance,
)
from .tree import (
    PhyloTree,
    TreeStats,
    extract_subtree,
    parse_newick,
    reroot,
    restrict_to_tips,
    tree_stats,
    write_newick,
)

__version__ = "0.1.0"
