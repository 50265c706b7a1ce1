"""Post-hoc classifier calibration toolkit.

Fits temperature scaling, class-wise temperature scaling, and vector scaling
on logit datasets; computes ECE, max-ECE, Avg-ECE, NLL, and reliability
diagram aggregates; and provides exact synthetic constructions for studying
how label noise and sample size drive under- and over-confidence.
"""

from .core import (
    CalibrationModel,
    ClassSlice,
    ClassWiseTemperature,
    Identity,
    LogitDataset,
    PredictionSet,
    Temperature,
    Vector,
    predict,
    softmax,
    split_by_predicted,
)
from .calibrate import (
    FitConfig,
    FitResult,
    fit_cts,
    fit_ts,
    fit_vs,
    model_from_dict,
    model_to_dict,
)
from .metrics import (
    BinnedStats,
    BinningConfig,
    MetricsReport,
    avg_ece,
    bin_stats,
    class_ece,
    compute_report,
    ece,
    max_ece,
    nll,
    reliability_rows,
)
from .synthetic import (
    BinaryDataset,
    HeteroLogitSpec,
    HeteroSplits,
    LinearBinaryClassifier,
    NoisyBinarySpec,
    RareAtomSpec,
    RareAtomTrial,
    fit_constrained_logistic,
    gen_hetero_logits,
    optimal_noisy_classifier,
    population_confidence_accuracy,
    rare_atom_experiment,
    sample_dnoisy,
)
from .sweep import SweepRow, run_sweep

__version__ = "0.1.0"
