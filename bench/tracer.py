"""Timing spans around the package's public functions, installed from outside.

The modules bind each other's functions by name (``from .processes import
gen_bm``), so a wrapper replaces the function under every name any loaded
``hermite_markets`` module holds it by. Spans stay in memory as
(name, start, end, parent index, job id) and are written out once.
"""

import functools
import inspect
import json
import sys
from time import perf_counter

# calculus is left out: no CLI command or demo calls it.
LAYERS = ("processes", "pathio", "stats", "markets", "strategies", "pde", "cli")
METHODS = (("markets", "TwoAssetDiffusion", "price_paths"),)


class Tracer:
    """Collects spans; ``job`` is stamped on each span as it closes."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)

        return traced

    def install(self):
        """Wrap every public function of each layer, and the listed methods."""
        package = [module for name, module in sys.modules.items()
                   if name == "hermite_markets" or name.startswith("hermite_markets.")]
        for layer in LAYERS:
            module = sys.modules[f"hermite_markets.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"hermite_markets.{layer}"], cls_name)
            setattr(cls, method,
                    self._wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))

    def write(self, filename):
        with open(filename, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(filename):
    with open(filename) as fh:
        return [tuple(json.loads(line)) for line in fh]


def self_times(spans):
    """(name, self seconds, job) per span: duration minus its children's."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(name, end - start - covered[i], job)
            for i, (name, start, end, parent, job) in enumerate(spans)]
