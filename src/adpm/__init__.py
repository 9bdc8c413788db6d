"""Anisotropic diffusion probabilistic models for class-imbalanced classification.

Class frequencies drive per-class noise levels in the forward diffusion,
so rare classes diffuse faster; priors from a small classifier,
pretrained and then frozen, shift both the corruption and the reverse
chain; an MMD-regularized denoiser is trained on them and sampled to
classify. A finite-grid Rademacher complexity estimator validates the
generalization bound that motivates the noise levels.
"""

from .data import DatasetTable, LongTailSpec, generate_longtail, load_csv, save_csv
from .denoiser import DenoiserParams, predict_noise, time_embed
from .diffusion import SampleBatch, SampleResult, forward_sample, reverse_step, sample
from .errors import (AdpmError, ConfigError, IngestionError,
                     ScheduleInfeasibleError, ShapeError, UsageError)
from .inference import classify_dataset
from .losses import LossReport
from .metrics import (BoundReport, HypothesisGrid, MetricsReport, bound_check,
                      classification_metrics, empirical_rademacher)
from .priors import PriorBundle, PriorNetParams, prior_bundle, warmup_train
from .schedule import (ClassCensus, NoiseLevelConfig, NoiseSchedule, build_schedule,
                       class_proportions, imbalance_ratio, inference_lambda,
                       lambda_vector, linear_beta)
from .trainer import Checkpoint, ModelParams, TrainConfig, fit, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
