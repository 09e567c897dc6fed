"""Span recording from outside the package, and the per-layer metrics.

``Tracer.install`` replaces every public function of the traced modules,
under every module name it is bound to inside ``hestonstab``, by a wrapper
that records a span: name, start, end, parent span and case id.  A callee
looked up through another module's namespace (``experiments.expm``,
``stability.spectral_norm``) is therefore traced too.  Spans stay in memory
until ``write_jsonl``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from dataclasses import dataclass

LAYERS = ("operators", "linalg", "stability", "experiments", "cli")

# Functions with their own per-layer metrics.  Each metric is a mean per
# case of the traced round.
CALL_METRICS = (
    "linalg.expm",
    "linalg.spectral_norm",
    "linalg.lambda_max_hermitian",
    "operators.build_operators",
    "operators.transformed_operators",
)
NORM_KERNELS = ("linalg.spectral_norm", "linalg.lambda_max_hermitian")
STABILITY_TIMES = (
    "check_symbol_conditions",
    "certificate_rows",
    "diffusion_block_reduction",
    "check_block_toeplitz_symbol_bound",
    "check_diffusion_contractivity",
    "check_exp_bound",
)
ROW_CERTIFICATES = ("stability.certificate_case_large_y", "stability.certificate_case_small_y")
OVERHEAD = "trace.overhead_cases_per_s"


def unit(metric: str) -> str:
    if metric == OVERHEAD:
        return "1/s"
    if metric.endswith((".calls", ".iterations", ".fallbacks")):
        return "count/case"
    return "s/case"


@dataclass
class Span:
    case: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    iterations: int | None = None
    method: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the calls made while a case is open."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.case = None
        self._stack = []
        self._patches = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.case is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(tracer.case, len(tracer.spans), parent, name, tracer.clock())
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if hasattr(result, "iterations") and hasattr(result, "method"):
                span.iterations, span.method = result.iterations, result.method
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"hestonstab.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "hestonstab" and not modname.startswith("hestonstab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                record = {"case": s.case, "span": s.id, "parent": s.parent, "name": s.name,
                          "start": s.start, "end": s.end}
                if s.method is not None:
                    record.update(iterations=s.iterations, method=s.method)
                fh.write(json.dumps(record) + "\n")


def layer_self_times(spans) -> list:
    """Self time of each span within its layer.

    A span's duration minus the time of the calls it made into other layers;
    calls within its own layer count as its own time.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def foreign(span) -> float:
        return sum(
            foreign(c) if c.layer == span.layer else c.duration
            for c in children.get(span.id, ())
        )

    return [s.duration - foreign(s) for s in spans]


def per_layer_metrics(spans, n_cases: int) -> dict:
    """Per-case means of every per-layer metric except the tracing overhead."""
    by_id = {s.id: s for s in spans}
    count, total, self_total = Counter(), Counter(), Counter()
    iterations, fallbacks = Counter(), Counter()
    layer_total, layer_self = Counter(), Counter()
    for s, own in zip(spans, layer_self_times(spans)):
        count[s.name] += 1
        total[s.name] += s.duration
        self_total[s.name] += own
        if s.iterations is not None:
            iterations[s.name] += s.iterations
            fallbacks[s.name] += s.method == "direct-small"
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:  # entry into the layer
            layer_total[s.layer] += s.duration
            layer_self[s.layer] += own

    m = {
        "experiments.run_sweep.s": total["experiments.run_sweep"],
        "experiments.scan.self_s": self_total["experiments.run_sweep"],
    }
    for name in CALL_METRICS:
        m[f"{name}.calls"] = count[name]
        m[f"{name}.s"] = total[name]
        if name in NORM_KERNELS:
            m[f"{name}.iterations"] = iterations[name]
            m[f"{name}.fallbacks"] = fallbacks[name]
    for name in STABILITY_TIMES:
        names = ROW_CERTIFICATES if name == "certificate_rows" else (f"stability.{name}",)
        m[f"stability.{name}.s"] = sum(total[x] for x in names)
    m["cli.main.self_s"] = self_total["cli.main"]
    for layer in LAYERS:
        m[f"{layer}.total_s"] = layer_total[layer]
        m[f"{layer}.self_s"] = layer_self[layer]
    return {name: value / n_cases for name, value in m.items()}
