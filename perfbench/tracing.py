"""Span tracing of wamdf's layers from outside the package.

``instrument`` rebinds, for the duration of a ``with`` block, every public
function of ``power``, ``weights``, ``procedures``, ``simulate`` and
``counts`` in every wamdf module that refers to it, so calls between
modules and calls through module globals are both seen.  The power layer
is traced through a proxy model handed out wherever the package builds
its default model or loads a tabulated one.  Nothing under ``src/`` is
edited, and everything is restored on exit.

Spans are kept in memory as ``[name, start, end, parent, op]``.  A span's
layer is the first dotted part of its name; its self time is its duration
minus its direct children's.  File readers and writers (``from_csv``,
``to_json``, ``to_tsv``) are methods, not traced functions, so their time
is the calling ``cli`` span's self time.
"""

import inspect
import json
import tracemalloc
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter
from unittest import mock

import numpy as np

SOLVERS = ("weights.asymptotically_optimal_weights", "weights.optimal_fixed_t_weights")
SINGLE_K = ("weights.fdp_approximator", "weights.mean_threshold")
THRESHOLD_QUERIES = ("threshold_power_split", "threshold_for_slope")


class Tracer:
    """In-memory span recorder with the counters the layer metrics need.

    With ``track_memory`` set (and ``tracemalloc`` running), each weight
    solve also records its allocation peak above the memory live at its
    start.
    """

    def __init__(self, track_memory=False):
        self.spans = []
        self.op = -1
        self.counts = Counter()
        self.solves = []            # (function name, prior, level, profile, model)
        self.sim_summaries = []
        self.solve_peaks = []
        self.track_memory = track_memory
        self._stack = []

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def solver(self, name, fn):
        params = list(inspect.signature(fn).parameters)     # prior, alpha | t, model

        def note(args, kwargs, profile):
            given = dict(zip(params, args), **kwargs)
            self.solves.append((name, given[params[0]], given[params[1]], profile,
                                given.get("model")))

        traced = self.wrap(name, fn, note)
        if not self.track_memory:
            return traced

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return traced(*args, **kwargs)
            finally:
                self.solve_peaks.append(tracemalloc.get_traced_memory()[1] - base)

        return measured

    def model(self, model, tag):
        return _TracedModel(self, model, tag)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


class _TracedModel:
    """Power-model proxy: each method call is one ``power`` span.

    Attributes the wrapped model lacks stay missing, so the package's own
    capability checks see the real model's interface.
    """

    def __init__(self, tracer, model, tag):
        self._tracer = tracer
        self._model = model
        self._tag = tag

    def __getattr__(self, name):
        attr = getattr(self._model, name)
        if not callable(attr):
            return attr
        counts = self._tracer.counts

        def note(args, kwargs, result):
            gamma, x = args[0], args[1]
            counts["power.evals"] += np.broadcast(gamma, x).size
            if name in THRESHOLD_QUERIES and np.ndim(x) == 2 and np.shape(x)[0] > 1:
                counts["weights.scan_rows"] += np.shape(x)[0]

        return self._tracer.wrap(f"power.{self._tag}{name}", attr, note)


def _public_functions(module):
    return {name: getattr(module, name) for name in getattr(module, "__all__", ())
            if type(getattr(module, name)).__name__ == "function"}


@contextmanager
def instrument(tracer):
    """Trace the package's layers inside the block; yields a traced ``cli.main``."""
    import wamdf
    from wamdf import cli, counts, power, procedures, simulate, weights

    modules = (wamdf, power, weights, procedures, simulate, counts, cli)
    normal = tracer.model(power.default_model(), "")

    class TracedTable:
        @staticmethod
        def from_csv(path):
            return tracer.model(power.TabulatedPowerModel.from_csv(path), "tab.")

    def note_procedure(args, kwargs, report):
        tracer.counts["procedures.rejected"] += report.n_rejected

    def note_simulation(args, kwargs, summary):
        tracer.sim_summaries.append(summary)

    notes = {"procedures.run_procedure": note_procedure,
             "simulate.run_simulation": note_simulation}

    with ExitStack() as stack:
        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        stack.enter_context(mock.patch.object(module, attr, replacement))

        for layer in (weights, procedures, simulate, counts):
            short = layer.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(layer).items():
                qual = f"{short}.{name}"
                traced = tracer.solver(qual, fn) if qual in SOLVERS else tracer.wrap(qual, fn, notes.get(qual))
                rebind(fn, traced)
        rebind(power.default_model, lambda: normal)
        stack.enter_context(mock.patch.object(cli, "TabulatedPowerModel", TracedTable))
        yield tracer.wrap("cli.main", cli.main)


def _unwrap_model(model):
    return model._model if isinstance(model, _TracedModel) else model


def layer_metrics(tracer, n_ops):
    """Per-op layer metrics from the spans and counters of ``n_ops`` traced ops."""
    from wamdf.weights import fdp_approximator

    spans = tracer.spans
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = Counter()
    total = Counter()
    calls = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_s[layer] += end - start - child[i]
        total[name] += end - start
        calls[name] += 1
        if name.startswith("power.tab."):
            self_s["power.tab"] += end - start - child[i]

    def under(i, ancestor):
        while i >= 0:
            i = spans[i][3]
            if i >= 0 and spans[i][0] == ancestor:
                return True
        return False

    solve_spans = [i for i, s in enumerate(spans) if s[0] in SOLVERS]
    inner = sum(under(i, "counts.calibrate_information") for i in solve_spans)

    resid = 0.0
    distinct = []
    for name, prior, level, profile, model in tracer.solves:
        pairs = np.unique(np.column_stack([prior.p, prior.gamma]), axis=0)
        distinct.append(pairs.shape[0] / prior.M)
        if name == SOLVERS[0]:
            fdp = fdp_approximator(prior, profile.k_star, _unwrap_model(model))
            resid = max(resid, abs(fdp - level))
    reps = sum(s.config.n_reps for s in tracer.sim_summaries)
    skipped = sum(s.n_skipped for s in tracer.sim_summaries)

    n = max(n_ops, 1)
    per_op = {
        "power.calls": sum(c for k, c in calls.items() if k.startswith("power.")),
        "power.evals": tracer.counts["power.evals"],
        "power.self_s": self_s["power"],
        "power.tab_self_s": self_s["power.tab"],
        "weights.solves": len(solve_spans),
        "weights.self_s": self_s["weights"],
        "weights.scan_rows": tracer.counts["weights.scan_rows"],
        "weights.refine_evals": sum(calls[k] for k in SINGLE_K),
        "procedures.calls": calls["procedures.run_procedure"],
        "procedures.self_s": self_s["procedures"],
        "procedures.rejected": tracer.counts["procedures.rejected"],
        "simulate.self_s": self_s["simulate"],
        "simulate.generate_s": total["simulate.generate_model1"],
        "counts.self_s": self_s["counts"],
        "counts.score_s": total["counts.score_statistic"],
        "counts.calibrate_s": total["counts.calibrate_information"],
        "counts.inner_solves": inner,
        "cli.self_s": self_s["cli"],
    }
    out = {k: v / n for k, v in per_op.items()}
    out["weights.kstar_resid"] = resid
    out["counts.distinct_frac"] = float(np.mean(distinct)) if distinct else 0.0
    out["simulate.skipped"] = skipped / reps if reps else 0.0
    return out
