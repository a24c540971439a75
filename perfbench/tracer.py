"""Span recorder and layer wrappers installed on qpflow from the outside.

Nothing in qpflow knows about this module.  ``LayerPatch.install`` swaps
each layer function for a wrapper in every ``qpflow`` module that binds it
(``from .qsim import qpe`` leaves a second binding in ``qpflow.hhl``), and
``uninstall`` puts the originals back, so untraced ops run the program
untouched.  A layer whose function no longer exists is recorded as absent
instead of failing, so the same benchmark code runs on commits that have
renamed or deleted it.

Spans carry name, start, end, parent span and op id.  They stay in memory
and are summarised by ``layer_metrics`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for an op's root span
    op: int


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)  # call-only layers
    samples: dict[str, list[float]] = field(default_factory=dict)  # values read from returned objects
    op: int = -1
    _open: list[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))


def _observe_hhl(tracer: Tracer, result) -> None:
    tracer.sample("hhl.success_prob", result.success_prob)
    tracer.sample("hhl.clock_zero_prob", result.clock_zero_prob)
    if result.fidelity_vs_exact is not None:
        tracer.sample("hhl.fidelity", result.fidelity_vs_exact)


def _observe_vqls(tracer: Tracer, result) -> None:
    _, record = result
    tracer.sample("variational.inner_steps", record.steps)
    # _descend stops early only on convergence, so an unconverged record ran to max_steps
    tracer.sample("variational.inner_capped", 0.0 if record.converged else 1.0)


# (module, attribute, span name, observer of the return value).  The module
# is where the attribute is looked up first; every other qpflow module that
# binds the same function object is patched as well.
TIMED_LAYERS = [
    ("qpflow.qsim", "_block_unitaries", "qsim.block_unitaries", None),
    ("qpflow.hhl", "qpe", "qsim.qpe", None),
    ("qpflow.qsim", "eigenvalue_inversion", "qsim.eigenvalue_inversion", None),
    ("qpflow.qsim", "measure_ancilla_postselect", "qsim.measure_ancilla_postselect", None),
    ("qpflow.hhl", "_inverse_qpe_with_ancilla", "hhl.inverse_qpe", None),
    ("qpflow.hhl", "hhl_solve", "hhl.hhl_solve", _observe_hhl),
    ("qpflow.hhl", "download_state", "hhl.download_state", None),
    ("qpflow.lcu", "pauli_decompose", "lcu.pauli_decompose", lambda t, r: t.sample("lcu.terms", len(r))),
    ("qpflow.lcu", "hermitian_dilation", "lcu.hermitian_dilation", None),
    ("qpflow._kernels", "pauli_coefficients", "kernels.pauli_coefficients", None),
    ("qpflow.variational", "gradient", "variational.gradient", None),
    ("qpflow.variational", "vqls_solve", "variational.vqls_solve", _observe_vqls),
    ("qpflow.shadows", "collect_shadows", "shadows.collect_shadows", lambda t, r: t.sample("shadows.snapshots", len(r))),
    ("qpflow.shadows", "reconstruct_real_state", "shadows.reconstruct_real_state", None),
    ("qpflow.shadows", "_snapshots_to_arrays", "shadows.snapshots_to_arrays", None),
    ("qpflow._kernels", "sample_snapshots", "kernels.sample_snapshots", None),
    ("qpflow._kernels", "ketbra_estimates", "kernels.ketbra_estimates", None),
    ("qpflow.grid", "jacobian", "grid.jacobian", None),
    ("qpflow.grid", "residual", "grid.residual", None),
    ("qpflow.grid", "condition_number", "grid.condition_number", None),
    ("qpflow.newton", "lu_solve", "newton.lu_solve", None),
    ("qpflow.fixtures", "harvest_jacobian_dilations", "fixtures.harvest_jacobian_dilations", None),
]

# Called thousands of times per op; a span each would distort the gradient
# layer they sit in, so only the calls are counted.
COUNTED_LAYERS = [
    ("qpflow.variational", "ansatz_amplitudes", "variational.ansatz_amplitudes"),
]


def _timed(tracer: Tracer, fn, name: str, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if observe is not None:
            observe(tracer, result)
        return result

    return wrapper


def _counted(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[name] = tracer.calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


class LayerPatch:
    """Installs and removes the layer wrappers of one tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, module_name: str, attr: str, name: str, make) -> None:
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        wrapper = make(original)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qpflow" or mod_name.startswith("qpflow.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def install(self) -> None:
        self.absent = []
        for module_name, attr, name, observe in TIMED_LAYERS:
            self._patch(module_name, attr, name, lambda fn, n=name, o=observe: _timed(self.tracer, fn, n, o))
        for module_name, attr, name in COUNTED_LAYERS:
            self._patch(module_name, attr, name, lambda fn, n=name: _counted(self.tracer, fn, n))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo = []


def layer_metrics(tracer: Tracer, ops: int, scale: dict[int, float]) -> dict[str, float]:
    """Per-op busy seconds, self seconds and calls for every span name.

    ``scale[op]`` rescales the spans of each op like the op's own time.
    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the run is single-threaded.
    """
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    child: dict[int, float] = {}
    calls: dict[str, int] = dict(tracer.calls)
    durations = [(span.end - span.start) * scale[span.op] for span in tracer.spans]
    for span, duration in zip(tracer.spans, durations):
        busy[span.name] = busy.get(span.name, 0.0) + duration
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.parent >= 0:
            child[span.parent] = child.get(span.parent, 0.0) + duration
    for index, (span, duration) in enumerate(zip(tracer.spans, durations)):
        own[span.name] = own.get(span.name, 0.0) + duration - child.get(index, 0.0)
    out = {}
    for name in busy:
        out[f"{name}.s"] = busy[name] / ops
        out[f"{name}.self_s"] = own[name] / ops
    for name, count in calls.items():
        out[f"{name}.calls"] = count / ops
    return out
