"""Span tracer that wraps twinbeam's public functions from outside the package.

Every public function defined in a traced module is replaced by a wrapper in
every ``twinbeam`` module namespace that binds it, so calls made through a
name imported with ``from .x import f`` are seen too.  ``numpy.fft.fft2`` and
``ifft2`` are wrapped as well; each FFT span's parent is the innermost
twinbeam span, which attributes the transform to the layer that asked for it.

Spans stay in memory as ``[op_id, name, start, end, parent, error, info]``
and are aggregated into per-operation layer metrics after the run.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("field", "propagation", "biphoton", "counting", "fileio",
                  "scenario", "paraxial", "runner")
FFT_NAMES = ("fft2", "ifft2")
DERIVE_FUNCTIONS = ("scenario.with_free_twin_side", "scenario.with_telescope")


def _scenario_arg(args, kwargs):
    return (args[0] if args else kwargs["scenario"],
            args[1] if len(args) > 1 else kwargs.get("twin_distance_scale", 1.0))


# Work done by one call, read from its arguments; kept with the span.
SPAN_INFO = {
    "biphoton.effective_detector_field": _scenario_arg,
    "counting.sample_counts": lambda args, kwargs: len(args[0].rates),
    "numpy.fft.fft2": lambda args, kwargs: np.asarray(args[0]).size,
    "numpy.fft.ifft2": lambda args, kwargs: np.asarray(args[0]).size,
}


class Tracer:
    """Context manager: installs span-recording wrappers, restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, SPAN_INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [self.op_id, name, 0.0, 0.0, stack[-1] if stack else -1, None,
                   info(args, kwargs) if info else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"twinbeam.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "twinbeam" or n.startswith("twinbeam.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for attr in FFT_NAMES:
            original = getattr(np.fft, attr)
            self._patches.append((np.fft, attr, original))
            setattr(np.fft, attr, self._wrap(f"numpy.fft.{attr}", original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def _self_times(spans):
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _within(spans, i, root):
    """True if span ``i`` is ``root`` or reached from it through its own layer."""
    layer = root.split(".")[0] + "."
    while i >= 0 and spans[i][1].startswith(layer):
        if spans[i][1] == root:
            return True
        i = spans[i][4]
    return False


def layer_metrics(spans, n_ops, digest) -> dict:
    """Per-operation layer metrics from the spans of ``n_ops`` operations.

    ``digest`` maps a scenario to a stable key; it counts distinct trains.
    """
    own = _self_times(spans)
    calls, self_s = defaultdict(int), defaultdict(float)
    for s, t in zip(spans, own):
        calls[s[1]] += 1
        self_s[s[1]] += t

    def parent_layer(s):
        return spans[s[4]][1].split(".")[0] if s[4] >= 0 else ""

    ffts = [(s, t) for s, t in zip(spans, own) if s[1].startswith("numpy.fft.")]
    prop_ffts = [(s, t) for s, t in ffts if parent_layer(s) == "propagation"]
    trains = [s for s in spans if s[1] == "biphoton.effective_detector_field"]
    distinct = len({(s[0], digest(s[6][0]), s[6][1]) for s in trains})
    total = {
        "propagation.propagate.calls": calls["propagation.propagate"],
        "propagation.propagate_train.calls": calls["propagation.propagate_train"],
        "propagation.propagate.self_s": self_s["propagation.propagate"],
        "propagation.fft.calls": len(prop_ffts),
        "propagation.fft.self_s": sum(t for _, t in prop_ffts),
        "propagation.fft.mpix": sum(s[6] for s, _ in prop_ffts) / 1e6,
        "propagation.apply_thin_lens.calls": calls["propagation.apply_thin_lens"],
        "propagation.apply_thin_lens.self_s": self_s["propagation.apply_thin_lens"],
        "propagation.max_safe_distance.calls": calls["propagation.max_safe_distance"],
        "propagation.max_safe_distance.self_s": self_s["propagation.max_safe_distance"],
        "propagation.refusals": sum(1 for s in spans if s[1] == "propagation.propagate"
                                    and s[5] == "AliasingRiskError"),
        "biphoton.train.calls": len(trains),
        "biphoton.train.distinct": distinct,
        "biphoton.aperture_integrated_map.calls": calls["biphoton.aperture_integrated_map"],
        "biphoton.aperture_integrated_map.self_s": self_s["biphoton.aperture_integrated_map"],
        "biphoton.fft.calls": sum(1 for s, _ in ffts if parent_layer(s) == "biphoton"),
        "biphoton.scan_detector.self_s": self_s["biphoton.scan_detector"],
        "field.bilinear_sample.calls": calls["field.bilinear_sample"],
        "field.gaussian_beam.self_s": self_s["field.gaussian_beam"],
        "field.wire_mask.self_s": self_s["field.wire_mask"],
        "counting.sample_counts.self_s": self_s["counting.sample_counts"],
        "counting.sample_counts.points": sum(s[6] for s in spans
                                             if s[1] == "counting.sample_counts"),
        "fileio.encode.self_s": sum(t for name, t in self_s.items()
                                    if name.startswith("fileio.")
                                    and (name.endswith("_to_csv")
                                         or name == "fileio.intensity_to_pgm")),
        "runner.run.self_s": self_s["runner.run"],
        "runner.resolve_kappa.calls": calls["runner.resolve_kappa"],
        # loading is parse + schema validation, themselves public functions
        # of the same module, so their self time is folded into the loader's
        "scenario.load_scenario.self_s": sum(t for i, t in enumerate(own)
                                             if _within(spans, i, "scenario.load_scenario")),
        "scenario.derive.self_s": sum(self_s[name] for name in DERIVE_FUNCTIONS),
        "paraxial.design_telescope.self_s": self_s["paraxial.design_telescope"],
    }
    per_op = {name: value / n_ops for name, value in total.items()}
    per_op["biphoton.train.useful_ratio"] = (distinct / len(trains)) if trains else 1.0
    return per_op
