"""Event trajectory association via multi-structural 3D line fitting."""

from .config import RunConfig, load_config
from .fitting import (
    AssociationResult,
    NoiseScale,
    WeightedModel,
    fit_window,
    fit_windows,
    run_eda,
)
from .grouping import AtsltdFrame, EntropyInterval, EventWindow, cut_windows
from .hypotheses import HypothesisSet, LineSet
from .io import EventStream, SensorGeometry, parse_stream, serialize_stream
from .synth import SceneData, SyntheticScene, generate_scene
from .tracking import BoundingBox, EvalReport, TrackingPair, evaluate, iou

__all__ = [
    "AssociationResult",
    "AtsltdFrame",
    "BoundingBox",
    "EntropyInterval",
    "EvalReport",
    "EventStream",
    "EventWindow",
    "HypothesisSet",
    "LineSet",
    "NoiseScale",
    "RunConfig",
    "SceneData",
    "SensorGeometry",
    "SyntheticScene",
    "TrackingPair",
    "WeightedModel",
    "cut_windows",
    "evaluate",
    "fit_window",
    "fit_windows",
    "generate_scene",
    "iou",
    "load_config",
    "parse_stream",
    "run_eda",
    "serialize_stream",
]

__version__ = "0.1.0"
