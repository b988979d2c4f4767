"""Per-layer spans measured from outside alodsim.

Every public function of a layer module, and every public method of a class
that module defines, is replaced by a wrapper that records a span. The
modules bind each other's functions at import (``from .fdn import run_fdn``
in ``coupled``), so a wrapper is installed at every name in every alodsim
module that refers to the original function, not only in the module that
defines it.

A layer's self time is the time inside its spans minus the time covered by
their child spans, so ``fdn.splice`` calling ``synth.synthesize_mono`` puts
the synthesis time in ``synth``, not in ``fdn``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# The layers, in the order of the processing chain. Each is a module of the
# alodsim package and gives its name to the per-layer metrics.
LAYERS = ("scene", "ism", "fdn", "coupled", "synth", "spatial", "filterbank",
          "pipeline", "analysis", "postproc", "stimuli", "wavio", "cli")

COUNTS = ("ism.images", "fdn.runs", "fdn.line_samples", "synth.units",
          "spatial.vbap_calls", "filterbank.mask_bins")


def _count_run_fdn(counts, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    counts["fdn.runs"] += 1
    n = len(result[0].samples) if result else 0
    counts["fdn.line_samples"] += len(result) * config.line_gains.shape[1] * n


def _count_images(counts, args, kwargs, result):
    counts["ism.images"] += len(result)


def _count_units(counts, args, kwargs, result):
    counts["synth.units"] += len(result)


def _count_vbap(counts, args, kwargs, result):
    counts["spatial.vbap_calls"] += 1


def _count_mask_bins(counts, args, kwargs, result):
    counts["filterbank.mask_bins"] += int(result.size)


# work counters, keyed by the defining module and function name
_COUNTERS = {
    ("fdn", "run_fdn"): _count_run_fdn,
    ("ism", "enumerate_images"): _count_images,
    ("synth", "render_units"): _count_units,
    ("spatial", "vbap_gains"): _count_vbap,
    ("filterbank", "band_masks"): _count_mask_bins,
}


class Tracer:
    """Span recorder; ``install`` wraps the layers of an imported alodsim."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNTS}
        self.spans = []  # [name, parent index or -1, start s, end s]
        self._open = []  # [span index, child seconds] per open span

    def _wrap(self, layer, name, fn):
        counter = _COUNTERS.get((layer, name))
        label = f"{layer}.{name}"
        spans, opened, self_s, calls = self.spans, self._open, self.self_s, self.calls
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([label, opened[-1][0] if opened else -1, 0.0, 0.0])
            opened.append([index, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = opened.pop()
                duration = end - start
                self_s[layer] += duration - child
                calls[layer] += 1
                if opened:
                    opened[-1][1] += duration
                spans[index][2] = start
                spans[index][3] = end
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self):
        """Wrap every public function and method of the layer modules."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"alodsim.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self._wrap(layer, f"{name}.{attr}", member))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "alodsim" and not mod_name.startswith("alodsim."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    setattr(module, name, wrapper)

    def metrics(self):
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update(self.counts)
        return out
