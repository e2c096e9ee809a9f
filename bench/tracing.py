"""Span tracing of the qpgaps layers, installed from outside the package.

Every traced function is wrapped on each name a call can resolve through:
the home module, every qpgaps module that imported it by name, the class
for ``FourierMap.__call__``, and the ``numpy.linalg`` / ``scipy.linalg``
modules that ``spectrum`` and ``duality`` reach their eigen-solvers through.
Spans (name, start, end, parent span, operation id) stay in memory and are
reduced to per-layer metrics when the run ends.
"""

import functools
import importlib
import math
import time

LAYERS = ("arithmetic", "fourier", "cocycle", "spectrum", "duality",
          "reducibility", "pipeline", "cli", "cache")


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_terms(counts, args, result):
    # points x (2 band_limit + 1) x entries, as computed by the dense path
    fmap, z = args[0], args[1]
    _add(counts, "fourier.eval.terms",
         max(1, getattr(z, "size", 1)) * (2 * fmap.band_limit + 1)
         * math.prod(fmap.value_shape))


def _count_rotation(counts, args, result):
    _add(counts, "cocycle.rotation_number.iterations", int(result.iterations))
    _add(counts, "cocycle.rotation_number.flagged", int(result.flagged))


def _count_flagged_gaps(counts, args, result):
    _add(counts, "spectrum.label_gaps.flagged", sum(1 for r in result if r.flagged))


def _count_resonance(counts, args, result):
    _add(counts, "duality.detect_resonance.hits", int(result is not None))


def _count_cache_hit(counts, args, result):
    _add(counts, "cache.load_band_structure.hits", int(result is not None))


# (span name, module, attribute, counting hook, workload meant to call it)
TARGETS = (
    ("fourier.eval", "qpgaps.fourier", "FourierMap.__call__", _count_terms, "dossier"),
    ("fourier.conv", "qpgaps.fourier", "mul", None, "dossier"),
    ("fourier.conv", "qpgaps.fourier", "matmul", None, "dossier"),
    ("fourier.strip_norm", "qpgaps.fourier", "strip_norm", None, "dossier"),
    ("cocycle.rotation_number", "qpgaps.cocycle", "rotation_number", _count_rotation,
     "labeling"),
    ("cocycle.degree_of", "qpgaps.cocycle", "degree_of", None, "dossier"),
    ("spectrum.band_structure", "qpgaps.spectrum", "band_structure", None, "labeling"),
    ("spectrum.label_gaps", "qpgaps.spectrum", "label_gaps", _count_flagged_gaps,
     "labeling"),
    ("spectrum.homogeneity_scan", "qpgaps.spectrum", "homogeneity_scan", None, "labeling"),
    ("spectrum.holder_check", "qpgaps.spectrum", "holder_check", None, "labeling"),
    ("spectrum.eigvalsh", "numpy.linalg", "eigvalsh", None, "labeling"),
    ("duality.find_bloch", "qpgaps.duality", "find_bloch", None, "dossier"),
    ("duality.find_bloch_resonant", "qpgaps.duality", "find_bloch_resonant", None,
     "dossier"),
    ("duality.snap_to_resonance", "qpgaps.duality", "snap_to_resonance", None, "dossier"),
    ("duality.assemble_wave", "qpgaps.duality", "assemble_wave", None, "dossier"),
    ("duality.detect_resonance", "qpgaps.duality", "detect_resonance", _count_resonance,
     "dossier"),
    ("duality.eig_banded", "scipy.linalg", "eig_banded", None, "dossier"),
    ("reducibility.reduce_at_edge", "qpgaps.reducibility", "reduce_at_edge", None,
     "dossier"),
    ("reducibility.solve_homological_scalar", "qpgaps.reducibility",
     "solve_homological_scalar", None, "dossier"),
    ("reducibility.solve_homological_parabolic", "qpgaps.reducibility",
     "solve_homological_parabolic", None, "dossier"),
    ("reducibility.average_identities", "qpgaps.reducibility", "average_identities", None,
     "dossier"),
    ("reducibility.perturbation_matrix", "qpgaps.reducibility", "perturbation_matrix",
     None, "dossier"),
    ("reducibility.rotation_shift_check", "qpgaps.reducibility", "rotation_shift_check",
     None, "dossier"),
    ("reducibility.double_step", "qpgaps.reducibility", "double_step", None, "dossier"),
    ("pipeline.analyze_gap", "qpgaps.pipeline", "analyze_gap", None, "dossier"),
    ("pipeline.decay_campaign", "qpgaps.pipeline", "decay_campaign", None, "labeling"),
    ("pipeline.homogeneity_campaign", "qpgaps.pipeline", "homogeneity_campaign", None,
     "labeling"),
    ("pipeline.rotation_form_at_edge", "qpgaps.pipeline", "rotation_form_at_edge", None,
     "dossier"),
    ("cache.load_band_structure", "qpgaps.cache", "load_band_structure", _count_cache_hit,
     "cli"),
    ("cache.store_band_structure", "qpgaps.cache", "store_band_structure", None, "cli"),
    ("cache.cache_verify", "qpgaps.cache", "cache_verify", None, "cli"),
    ("arithmetic.estimate_beta", "qpgaps.arithmetic", "estimate_beta", None, "cli"),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))

# extra per-layer counts: (metric name, numerator count, denominator span or None)
EXTRA_COUNTS = (
    ("fourier.eval.terms", "fourier.eval.terms", None),
    ("cocycle.rotation_number.iterations", "cocycle.rotation_number.iterations", None),
    ("cocycle.rotation_number.flagged", "cocycle.rotation_number.flagged", None),
    ("spectrum.label_gaps.flagged", "spectrum.label_gaps.flagged", None),
    ("duality.resonance_hit_ratio", "duality.detect_resonance.hits", "duality.detect_resonance"),
    ("cache.hit_ratio", "cache.load_band_structure.hits", "cache.load_band_structure"),
)


class Tracer:
    """In-memory span recorder; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op]
        self.stack = []
        self.counts = {}
        self.op = None

    def wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target on every binding; fail loudly on a missing one."""
        mods = [importlib.import_module(f"qpgaps.{layer}") for layer in LAYERS]
        for name, home, attr, hook, _ in TARGETS:
            owner = importlib.import_module(home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), hook))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, hook)
            setattr(owner, attr, wrapped)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return self

    def to_json(self):
        return {"spans": self.spans, "counts": self.counts}


def span_totals(spans):
    """Per name: calls, inclusive seconds (outermost spans only) and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            t["s"] += end - start
    return totals


def top_level_seconds(spans):
    return sum(end - start for _, start, end, parent, _ in spans if parent < 0)


def layer_metrics(spans, counts, passes):
    """Every per-layer metric, per pass: calls, s, self_s and the extra counts."""
    totals = span_totals(spans)
    out = {}
    for name in SPAN_NAMES:
        t = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (t["calls"] / passes, "count")
        out[f"{name}.s"] = (t["s"] / passes, "s")
        out[f"{name}.self_s"] = (t["self_s"] / passes, "s")
    for metric, num, den in EXTRA_COUNTS:
        if den is None:
            out[metric] = (counts.get(num, 0) / passes, "count")
        else:
            calls = totals.get(den, {"calls": 0})["calls"]
            out[metric] = (counts.get(num, 0) / calls if calls else 0.0, "ratio")
    return out


def merge(traces):
    """Concatenate span dumps from several processes (parent indices shifted)."""
    spans, counts = [], {}
    for tr in traces:
        base = len(spans)
        for name, start, end, parent, op in tr["spans"]:
            spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return spans, counts
