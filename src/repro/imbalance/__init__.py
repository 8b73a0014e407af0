"""Load-imbalance models: delay injection and content-driven cost models.

The paper distinguishes two sources of load imbalance (Section 2):

* **system-induced** imbalance — multi-tenant cloud nodes, OS/network
  noise — modelled here by *delay injection policies*
  (:mod:`repro.imbalance.injection`) that add a per-rank, per-step delay,
  exactly like the paper's simulated experiments which inject 200-460 ms
  into randomly selected ranks;
* **inherent** imbalance — variable-length videos and sentences — modelled
  by *cost models* (:mod:`repro.imbalance.cost_model`) that map the
  content of a batch (frames, tokens) to its compute time.
"""

from repro.imbalance.injection import (
    DelayInjector,
    NoDelay,
    RandomSubsetDelay,
    RotatingSkewDelay,
    CloudNoiseDelay,
)
from repro.imbalance.cost_model import (
    CostModel,
    FixedCostModel,
    SequenceCostModel,
    QuadraticSequenceCostModel,
    lstm_ucf101_cost_model,
    transformer_wmt_cost_model,
    resnet50_cloud_cost_model,
    cloud_noise_for_resnet50,
)

__all__ = [
    "DelayInjector",
    "NoDelay",
    "RandomSubsetDelay",
    "RotatingSkewDelay",
    "CloudNoiseDelay",
    "CostModel",
    "FixedCostModel",
    "SequenceCostModel",
    "QuadraticSequenceCostModel",
    "lstm_ucf101_cost_model",
    "transformer_wmt_cost_model",
    "resnet50_cloud_cost_model",
    "cloud_noise_for_resnet50",
]
