"""Deterministic toy-scale neural engine (numpy, float64, exact backprop)."""

from .attention import MultiHeadSelfAttention, attention_weights
from .layers import (
    Conv2D,
    Dense,
    Dropout,
    GELU,
    LayerNorm,
    MaxPool2D,
    ReLU,
)
from .models import ForwardResult, TinyCNN, TinyViT, build_model
from .optim import Adam, ConstantLR, LinearDecayLR, StepDecayLR, schedule_from_config
from .snapshot import ModelSnapshot, load_snapshot, model_from_snapshot
from .train import (
    ArrayDataset,
    MetricTrace,
    TrainAbort,
    TrainConfig,
    stratified_split,
    train,
)

__all__ = [
    "Adam",
    "ArrayDataset",
    "ConstantLR",
    "Conv2D",
    "Dense",
    "Dropout",
    "ForwardResult",
    "GELU",
    "LayerNorm",
    "LinearDecayLR",
    "MaxPool2D",
    "MetricTrace",
    "ModelSnapshot",
    "MultiHeadSelfAttention",
    "ReLU",
    "StepDecayLR",
    "TinyCNN",
    "TinyViT",
    "TrainAbort",
    "TrainConfig",
    "attention_weights",
    "build_model",
    "load_snapshot",
    "model_from_snapshot",
    "schedule_from_config",
    "stratified_split",
    "train",
]
