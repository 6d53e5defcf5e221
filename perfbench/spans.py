"""Outside-in spans around the layer functions the CLI and harness call.

``installed(tracer)`` swaps each timed function in the module globals of
``decochaos.cli`` and ``decochaos.harness`` for a wrapper that records a
span (name, start, end, parent, run id) and the work the call was asked
to do, then restores the originals. Nothing under ``src/`` changes.

Counts are computed from call arguments and array sizes, not measured:
per-step physics (``models`` force and Hessian calls) is never timed,
because a timer per call would swamp the step loops it sits in.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    run_id: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    overhead: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``run_id`` tags the spans of one command."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        """Run ``fn`` inside a span. The wrapper's own time, before and
        after ``fn`` and including the counter, is kept as the span's
        ``overhead``."""
        entered = time.perf_counter()
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.run_id, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counter(bound.arguments, result)
        span.overhead = (span.start - entered
                         + time.perf_counter() - span.end)
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


def _propagate_counts(a, _result):
    n = a["n_steps"]
    return {"steps": n, "force_evals": 3 * n}


def _lyapunov_counts(a, _result):
    k = max(1, round(a["renorm_interval"] / a["dt"]))
    n = k * max(1, round(a["total_time"] / (k * a["dt"])))
    return {"steps": n, "force_evals": 3 * n, "hessian_evals": 3 * n}


def _oracle_counts(a, _result):
    # per nonzero drive axis the oracle materialises six modes x samples
    # temporaries (complex or complex-sized) on top of one phase matrix
    dd = a["dd"]
    axes = sum(bool(d.any()) for d in (dd.df_x, dd.df_y))
    cells = a["bath"].n_modes * dd.t.size
    return {"mode_samples": cells * axes,
            "computed_bytes": 16 * cells * (1 + 6 * axes) if axes else 0}


def _wavepacket_counts(a, _result):
    # a step is three elementwise products (two reads, one write each)
    # and two FFTs (one read, one write) of the complex grid
    n = a["n_steps"]
    points = a["state"].psi.size
    samples = n // a["sample_every"] + 1
    return {"steps": n,
            "fft2_calls": 2 * n + (samples if a["track_momentum"] else 0),
            "grid_point_steps": points * n,
            "computed_bytes": 13 * 16 * points * n}


def _csv_counts(a, _result):
    columns = a["columns"]
    return {"rows": len(columns[0]) if columns else 0,
            "bytes": os.path.getsize(a["path"])}


# span name -> (defining module, function, counter)
TIMED = {
    "classical.propagate": ("decochaos.classical", "propagate",
                            _propagate_counts),
    "classical.max_lyapunov": ("decochaos.classical", "max_lyapunov",
                               _lyapunov_counts),
    "classical.classify_scaling": ("decochaos.classical", "classify_scaling",
                                   None),
    "bath.oracle": ("decochaos.bath", "decoherence_exponent_oracle",
                    _oracle_counts),
    "quantum.init_gaussian": ("decochaos.quantum", "init_gaussian", None),
    "quantum.propagate_wavepacket": ("decochaos.quantum",
                                     "propagate_wavepacket",
                                     _wavepacket_counts),
    "quantum.ehrenfest_break_time": ("decochaos.quantum",
                                     "ehrenfest_break_time", None),
    "decoherence.asymptotic_exponent": ("decochaos.decoherence",
                                        "asymptotic_exponent", None),
    "decoherence.hartree_error": ("decochaos.decoherence", "hartree_error",
                                  None),
    "decoherence.compare_regimes": ("decochaos.decoherence",
                                    "compare_regimes", None),
    "harness.load_config": ("decochaos.harness", "load_config", None),
    "harness.write_csv": ("decochaos.harness", "write_csv", _csv_counts),
    "harness.run_experiment": ("decochaos.harness", "run_experiment", None),
    "harness.compare_command": ("decochaos.harness", "compare_command", None),
}

# Names the CLI or harness import from a layer module and deliberately
# leave out of the trace; their cost lands in the caller's self time.
UNTIMED = {
    "decochaos.classical.detect_saturation": "one pass over the series",
    "decochaos.classical.divergence_from_trajectories": "one cumulative sum",
    "decochaos.classical.position_diameter": "one pass over the orbit",
    "decochaos.bath.SpectralDensity": "two validated constants",
    "decochaos.bath.discretize_bath": "two vectors of n_modes",
    "decochaos.quantum.Grid2D": "grid set-up, a few arrays per run",
    "decochaos.quantum.save_wavepacket": "off in every workload",
    "decochaos.decoherence.RegimeRun": "plain record",
    "decochaos.models.PhasePoint": "plain record",
    "decochaos.models.make_model": "builds a model object",
    "decochaos.series.DriveDifference": "array difference",
    "decochaos.series.DivergenceSeries": "plain record",
}

TRACED_MODULES = ("decochaos.cli", "decochaos.harness")


def layer_imports():
    """Qualified names of the decochaos callables that the CLI and the
    harness import from another module, exceptions excepted."""
    names = set()
    for modname in TRACED_MODULES:
        for value in vars(importlib.import_module(modname)).values():
            origin = getattr(value, "__module__", None) or ""
            if not (callable(value) and origin.startswith("decochaos.")
                    and origin != modname):
                continue
            if isinstance(value, type) and issubclass(value, BaseException):
                continue
            names.add(f"{origin}.{value.__qualname__}")
    return names


def timed_names():
    return {f"{mod}.{fn}" for mod, fn, _ in TIMED.values()}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every TIMED function reached through the CLI or harness
    globals via ``tracer`` for the duration of the block."""
    modules = [importlib.import_module(m) for m in TRACED_MODULES]
    saved = []
    for name, (modname, fn_name, counter) in TIMED.items():
        original = getattr(importlib.import_module(modname), fn_name)
        traced = tracer.wrap(name, original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    saved.append((module, attr, value))
                    setattr(module, attr, traced)
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
