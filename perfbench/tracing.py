"""Spans and counts at phaseinfo's module boundaries, recorded from outside.

The layers are the package's modules.  A traced run wraps, from the
benchmark's side and without touching the package's files:

* the public functions the workloads call;
* every function one phaseinfo module imports from another, at each
  binding site (``bounds._draw_outcomes``, ``circular.phase_amplitude``,
  ``cli.dumps_json`` ...), found by scanning the modules, so that a layer is
  still measured at whichever boundary remains when a function is renamed
  or removed;
* ``optimizer.tangent_project``, called once per optimizer iteration;
* ``numpy.fft.fft`` and ``numpy.fft.ifft``, counted while an optimizer span
  is open (no span of their own);
* ``CircularDensity.__post_init__``, counted once per density built.

A wrapped call records a span: its id, its parent span, the layer of the
function it entered, start, end, the op it belongs to and whether it raised.
Spans stay in memory until the run writes them out.  A layer's self time is
its spans' time minus the time their child spans cover; a call into a layer
counts once, however deeply the layer then calls itself.
"""

import functools
import itertools
import json
import time
import types
from collections import Counter, defaultdict, namedtuple

import numpy as np

from phaseinfo import bounds, circular, cli, measurement, optimizer, serialize, states

MODULES = (states, measurement, circular, optimizer, bounds, serialize, cli)
LAYERS = tuple(m.__name__.rsplit(".", 1)[1] for m in MODULES)

Span = namedtuple("Span", "id parent parent_layer layer name start end op raised")


def _layer(fn):
    return fn.__module__.rsplit(".", 1)[1]


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


# Counts taken at the boundary where the work happens, keyed by
# "layer.function".  Each hook sees the call's arguments and its result
# (None when the call raised).
HOOKS = {
    "states.phase_amplitude": lambda c, a, k, r: c.update(
        {"states.dense_evals": int(np.size(_arg(a, k, 1, "angles"))) * _arg(a, k, 0, "state").dim}
    ),
    "states.phase_amplitude_grid": lambda c, a, k, r: c.update(
        {"states.fft_points": int(_arg(a, k, 1, "grid_size"))}
    ),
    "measurement._draw_outcomes": lambda c, a, k, r: c.update(
        {"measurement.outcomes": int(_arg(a, k, 2, "count"))}
    ),
    "measurement.sample_outcomes": lambda c, a, k, r: c.update(
        {"measurement.outcomes": int(_arg(a, k, 2, "count"))}
    ),
    "circular.posterior_from_outcomes": lambda c, a, k, r: c.update(
        {"circular.posterior_outcomes": int(np.size(_arg(a, k, 1, "outcomes")))}
    ),
    "circular.posterior_update": lambda c, a, k, r: c.update({"circular.posterior_outcomes": 1}),
    "optimizer.optimize_state": lambda c, a, k, r: c.update(
        {
            "optimizer.starts": _arg(a, k, 0, "config").starts,
            "optimizer.converged_starts": 0 if r is None else sum(r.per_start_converged),
        }
    ),
    "optimizer.tangent_project": lambda c, a, k, r: c.update({"optimizer.iterations": 1}),
    "bounds.bound_report": lambda c, a, k, r: c.update(
        {"bounds.trials": int(_arg(a, k, 2, "trials", 500))}
    ),
    "serialize.dumps_json": lambda c, a, k, r: c.update(
        {"serialize.bytes": 0 if r is None else len(r.encode("utf-8"))}
    ),
    "cli.main": lambda c, a, k, r: c.update({"cli.exit_nonzero": int(r != 0)}),
}


class Tracer:
    """Records spans and counts while ``active``; installs and removes its
    wrappers with :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.op = None
        self._ids = itertools.count()
        self._stack = []
        self._open = Counter()
        self._patches = []

    def wrap(self, fn):
        layer = _layer(fn)
        name = "%s.%s" % (layer, fn.__name__)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent, parent_layer = stack[-1] if stack else (None, None)
            sid = next(tracer._ids)
            stack.append((sid, layer))
            tracer._open[layer] += 1
            result = None
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._open[layer] -= 1
                tracer.spans.append(
                    Span(sid, parent, parent_layer, layer, name, start, end, tracer.op, raised)
                )
                if hook is not None:
                    hook(tracer.counts, args, kwargs, result)

        return traced

    def _count(self, fn, key, layer=None):
        """Wrap ``fn`` to add one to ``key`` per call made while traced and,
        if ``layer`` is given, while one of its spans is open."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active and (layer is None or tracer._open[layer]):
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self, public):
        """Wrap every boundary; returns the traced namespace of ``public``."""
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("phaseinfo.")
                    and value.__module__ != module.__name__
                ):
                    self._patch(module, name, self.wrap(value))
        if hasattr(optimizer, "tangent_project"):
            self._patch(optimizer, "tangent_project", self.wrap(optimizer.tangent_project))
        for name in ("fft", "ifft"):
            fft = self._count(getattr(np.fft, name), "optimizer.fft_calls", "optimizer")
            self._patch(np.fft, name, fft)
        density = circular.CircularDensity
        built = self._count(density.__post_init__, "circular.densities")
        self._patch(density, "__post_init__", built)
        return types.SimpleNamespace(**{k: self.wrap(fn) for k, fn in public.items()})

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def pass_metrics(self, first_span, wall):
        """Per-layer metrics of the spans recorded since ``first_span``.

        ``wall`` is the pass's wall time.  Also returns, under ``unattributed_s``,
        the part of it that no span covers, so that the layers' self times
        plus that remainder add up to ``wall``.
        """
        spans = self.spans[first_span:]
        covered_by_children = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered_by_children[s.parent] += s.end - s.start
        metrics = {}
        for layer in LAYERS:
            metrics[layer + ".calls"] = 0
            metrics[layer + ".self_s"] = 0.0
        errors = Counter()
        covered = 0.0
        for s in spans:
            duration = s.end - s.start
            metrics[s.layer + ".self_s"] += duration - covered_by_children.get(s.id, 0.0)
            if s.parent_layer != s.layer:
                metrics[s.layer + ".calls"] += 1
                errors[s.layer] += s.raised
            if s.parent is None:
                covered += duration
        c = self.counts
        metrics.update(
            {
                "states.dense_evals": c["states.dense_evals"],
                "states.fft_points": c["states.fft_points"],
                "measurement.outcomes": c["measurement.outcomes"],
                "circular.posterior_outcomes": c["circular.posterior_outcomes"],
                "circular.densities": c["circular.densities"],
                "circular.errors": errors["circular"],
                "optimizer.starts": c["optimizer.starts"],
                "optimizer.iterations": c["optimizer.iterations"],
                "optimizer.fft_per_iteration": _ratio(
                    c["optimizer.fft_calls"], c["optimizer.iterations"]
                ),
                "optimizer.converged_ratio": _ratio(
                    c["optimizer.converged_starts"], c["optimizer.starts"]
                ),
                "bounds.trials": c["bounds.trials"],
                "bounds.errors": errors["bounds"],
                "serialize.bytes": c["serialize.bytes"],
                "cli.exit_nonzero": c["cli.exit_nonzero"],
            }
        )
        metrics["wall_s"] = wall
        metrics["unattributed_s"] = wall - covered
        self.counts = Counter()
        return metrics

    def write(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _ratio(part, whole):
    return part / whole if whole else 0.0
