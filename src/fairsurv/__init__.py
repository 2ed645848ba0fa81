"""Causal pathway decomposition of survival disparities between two groups.

The package answers one question: when survival differs between two groups,
how much of the gap flows through each causal pathway?  The total disparity
in a survival functional is split into a direct effect, an indirect effect
through mediators, and a spurious effect through shared confounders, with
difference- and ratio-scale identities that hold exactly on every estimator
output.

Layered API, bottom up:

- :mod:`fairsurv.queries` — potential-outcome queries and functionals,
  the decomposition's four queries and effect pairs, and the CSV writer.
- :mod:`fairsurv.scm` — discrete structural models: specification,
  sampling, and exact enumeration oracles.
- :mod:`fairsurv.curves` — step-function survival primitives
  (product-limit, cumulative-hazard, and cumulative-incidence estimators).
- :mod:`fairsurv.nuisance` — conditional survival / censoring models and
  group-membership propensities.
- :mod:`fairsurv.identify` — plug-in identification of potential-outcome
  curves under the three-block covariate factorization.
- :mod:`fairsurv.dr` — cross-fitted doubly robust estimation with
  influence-function standard errors; a `FoldPlan` fits each nuisance
  once per fold and target, and rows are evaluated in blocks.
- :mod:`fairsurv.decompose` — effect decompositions on the difference and
  ratio scales, including per-cause competing-risks decompositions.
- :mod:`fairsurv.copulas` — Archimedean dependence models for the
  informative-censoring sensitivity analysis.
- :mod:`fairsurv.cge` — latent-survival reconstruction from cause-specific
  incidence under an assumed dependence model, by one bounded recursion.
- :mod:`fairsurv.cli` — `fairsurv` command line: simulate | decompose |
  curves, with deterministic, byte-identical reruns.
"""

from .cge import (
    CGEState,
    Route2Result,
    cge_bounded,
    incidence_estimates,
    route1_conditional,
    route2_population,
)
from .copulas import CopulaSpec
from .curves import (
    StepCurve,
    aalen_johansen_cif,
    kaplan_meier,
    nelson_aalen,
)
from .decompose import (
    EFFECT_NAMES,
    DecompositionSeries,
    EffectSeries,
    decompose_cr,
    decompose_difference,
    decompose_ratio,
)
from .dr import (
    DRCurveEstimate,
    FoldPlan,
    crossfit_dr_many,
    evaluate_influence,
    fit_dr_nuisances,
)
from .errors import DataError, EstimationError, FairsurvError
from .identify import default_grid, fit_plugin_nuisances, plugin_po_many
from .nuisance import (
    ConditionalSurvivalModel,
    PropensityModel,
    fit_conditional_survival,
    fit_propensity,
)
from .queries import Functional, PotentialOutcomeQuery
from .scm import (
    Cohort,
    SCMSpec,
    oracle_decomposition,
    oracle_po_curve,
    sample_cohort,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # queries
    "PotentialOutcomeQuery",
    "Functional",
    # structural models and oracles
    "SCMSpec",
    "Cohort",
    "sample_cohort",
    "oracle_po_curve",
    "oracle_decomposition",
    # survival primitives
    "StepCurve",
    "kaplan_meier",
    "nelson_aalen",
    "aalen_johansen_cif",
    # nuisance models
    "ConditionalSurvivalModel",
    "fit_conditional_survival",
    "PropensityModel",
    "fit_propensity",
    # identification
    "default_grid",
    "fit_plugin_nuisances",
    "plugin_po_many",
    # doubly robust estimation
    "fit_dr_nuisances",
    "evaluate_influence",
    "FoldPlan",
    "crossfit_dr_many",
    "DRCurveEstimate",
    # decomposition
    "EFFECT_NAMES",
    "EffectSeries",
    "DecompositionSeries",
    "decompose_difference",
    "decompose_ratio",
    "decompose_cr",
    # dependence models and reconstruction
    "CopulaSpec",
    "cge_bounded",
    "CGEState",
    "route1_conditional",
    "incidence_estimates",
    "route2_population",
    "Route2Result",
    # errors
    "FairsurvError",
    "DataError",
    "EstimationError",
]
