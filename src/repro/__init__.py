"""AERO reproduction: time series anomaly detection in astronomical observations.

Reproduction of "From Chaos to Clarity: Time Series Anomaly Detection in
Astronomical Observations" (ICDE 2024).  The package layers:

* :mod:`repro.nn` — a numpy autodiff / neural-network substrate;
* :mod:`repro.data` — synthetic and GWAC-like light-curve datasets;
* :mod:`repro.evaluation` — POT thresholding, point-adjust, P/R/F1;
* :mod:`repro.core` — the AERO model (the paper's contribution);
* :mod:`repro.baselines` — the eleven comparison methods;
* :mod:`repro.experiments` — runners regenerating every table and figure;
* :mod:`repro.runtime` — compiled tape-free inference plans for serving;
* :mod:`repro.training` — resumable sessions, parallel fleet training and
  the model registry feeding the serving fleet;
* :mod:`repro.simulation` — seeded survey-night scenarios, fault injection,
  replay validation and golden-trace regression pinning;
* :mod:`repro.obs` — fleet telemetry: metrics, tick tracing, Prometheus /
  JSONL export and health snapshots (off by default, zero-cost until
  :func:`repro.obs.enable_telemetry`).
"""

from .core import AeroConfig, AeroDetector, AeroModel, build_variant
from .data import AstroDataset, load_astroset, load_synthetic
from .evaluation import evaluate_scores, pot_threshold, precision_recall_f1
from .runtime import CompiledDetector, compile_detector
from .streaming import (
    AlertPolicy,
    FleetManager,
    RingBuffer,
    StreamingService,
)
from .training import (
    FleetTrainer,
    ModelRegistry,
    TrainingSession,
)
from .simulation import (
    ReplayHarness,
    ReplayTrace,
    Scenario,
    ScenarioConfig,
    build_scenario,
)
from .obs import (
    FleetHealth,
    MetricsRegistry,
    ServiceHealth,
    Tracer,
    disable_telemetry,
    enable_telemetry,
    render_prometheus,
)

__version__ = "1.10.0"

__all__ = [
    "AeroConfig",
    "AeroDetector",
    "AeroModel",
    "build_variant",
    "AstroDataset",
    "load_astroset",
    "load_synthetic",
    "evaluate_scores",
    "pot_threshold",
    "precision_recall_f1",
    "CompiledDetector",
    "compile_detector",
    "AlertPolicy",
    "FleetManager",
    "RingBuffer",
    "StreamingService",
    "TrainingSession",
    "FleetTrainer",
    "ModelRegistry",
    "ReplayHarness",
    "ReplayTrace",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "FleetHealth",
    "MetricsRegistry",
    "ServiceHealth",
    "Tracer",
    "disable_telemetry",
    "enable_telemetry",
    "render_prometheus",
    "__version__",
]
