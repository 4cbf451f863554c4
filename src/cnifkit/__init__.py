"""Journal citation-impact indicators and category-level statistics.

Computes the two-year impact factor, the aggregate impact factor of a
category and its five-way multiplicative decomposition, the categories
normalized impact factor, cross-category ranking gaps, and the supporting
statistical analyses (correlations, PCA, Ward clustering, KS normality,
sd-band histograms).
"""

from .core_model import (
    CategoryAggregate,
    ComponentVector,
    Dataset,
    Edition,
    JournalRecord,
    UndefinedIndicatorError,
    Violation,
    validate,
)
from .indicators import (
    NormalizedScore,
    Weight,
    aggregate_impact_factor,
    category_aggregate,
    cnif,
    components,
    growth_ratio_from_rate,
    impact_factor,
    jcr_aggregate,
    journal_weight,
    meta_category_aggregate,
    recompose,
    weighted_mean_aif,
)

__all__ = [
    "CategoryAggregate",
    "ComponentVector",
    "Dataset",
    "Edition",
    "JournalRecord",
    "NormalizedScore",
    "UndefinedIndicatorError",
    "Violation",
    "Weight",
    "aggregate_impact_factor",
    "category_aggregate",
    "cnif",
    "components",
    "growth_ratio_from_rate",
    "impact_factor",
    "jcr_aggregate",
    "journal_weight",
    "meta_category_aggregate",
    "recompose",
    "validate",
    "weighted_mean_aif",
]

__version__ = "0.1.0"
