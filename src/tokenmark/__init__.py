"""Keyed watermarks for token-sequence generators, with the statistics to
prove they work.

Two schemes share a deterministic per-step keystream: a closed scheme that
shifts probability mass between rank-matched token pairs (exactly
distribution-preserving, detectable only with the key) and an open scheme
that perturbs logits with keyed Gaussian noise (publicly detectable given
the per-step vectors). Alongside them: detectors with calibrated
thresholds and p-values, toy sources with closed-form per-step laws, a
verification suite that re-derives every analytic guarantee by brute force
or Monte Carlo, and a sparse-mean testbed exhibiting the detection
hardness gap the open scheme's unremovability rests on.
"""

from .closed_scheme import closed_step, watermark_distribution
from .detector import (DetectionReport, closed_p_value, closed_threshold,
                       detect, open_p_value, open_threshold)
from .errors import (CheckFailedError, CorruptTextError, InvalidInputError,
                     InvalidKeyError, ScanBudgetError, SchemeMismatchError,
                     TokenmarkError)
from .keystream import (ClosedStepKey, OpenStepKey, WatermarkKey,
                        derive_closed_step, derive_open_step, load_key,
                        new_master_seed, save_key)
from .open_scheme import open_step, watermarked_softmax
from .oracles import (CheckResult, bias_bound_mc, lemma_maxima_exact,
                      lemma_maxima_mc, psi1_bound_mc, tv_gaussians,
                      undetectability_exact, verify_suite)
from .sparsemean import (SparseMeanInstance, sample_instance, scan_statistic,
                         threshold_statistic)
from .textgen import (GenerationRecord, SourceModel, condition_lhs, generate,
                      generate_many, iid_source, load_record, markov_source,
                      powerlaw_source, save_record, uniform_source)

__all__ = [
    "CheckFailedError", "CheckResult", "ClosedStepKey", "CorruptTextError",
    "DetectionReport", "GenerationRecord", "InvalidInputError",
    "InvalidKeyError", "OpenStepKey", "ScanBudgetError",
    "SchemeMismatchError", "SourceModel", "SparseMeanInstance",
    "TokenmarkError", "WatermarkKey", "bias_bound_mc", "closed_p_value",
    "closed_step", "closed_threshold", "condition_lhs", "derive_closed_step",
    "derive_open_step", "detect", "generate", "generate_many", "iid_source",
    "lemma_maxima_exact", "lemma_maxima_mc", "load_key", "load_record",
    "markov_source", "new_master_seed", "open_p_value", "open_step",
    "open_threshold", "powerlaw_source", "psi1_bound_mc",
    "sample_instance", "save_key", "save_record", "scan_statistic",
    "threshold_statistic", "tv_gaussians", "undetectability_exact",
    "uniform_source", "verify_suite", "watermark_distribution",
    "watermarked_softmax",
]
