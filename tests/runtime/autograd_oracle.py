"""The autograd reference the compiled plans are tested against.

Every batch entry point of :class:`repro.AeroDetector` scores on compiled
plans, so a bit-equality test that compared ``detector.score`` with a
:class:`repro.runtime.CompiledDetector` would be compiled against compiled.
These helpers run the :class:`repro.core.AeroModel` autograd forward instead,
through the same :func:`repro.core.detector.sliding_window_scores` loop.
"""

import numpy as np

from repro.core.detector import sliding_window_scores


def autograd_window_scores(detector, long_windows, short_windows, long_times=None, short_times=None):
    """``(batch, N)`` scores of explicit windows from the autograd forward."""
    return detector.model(long_windows, short_windows, long_times, short_times).scores


def autograd_scores(detector, series, timestamps=None):
    """What ``detector.score(series, timestamps)`` must return, bit for bit."""
    model = detector.model
    if model.noise is not None and model.noise.graph_mode == "dynamic":
        model.noise.reset_dynamic_state()
    scaled = detector.scaler.transform(np.asarray(series, dtype=np.float64))
    tail, tail_times = detector.window_context()
    return sliding_window_scores(
        lambda batch: autograd_window_scores(
            detector, batch.long, batch.short, batch.long_times, batch.short_times
        ),
        detector.config,
        scaled,
        timestamps,
        tail,
        tail_times,
    )
