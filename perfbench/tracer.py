"""Per-layer tracing by wrapping public callables from outside.

The tracer replaces functions and methods of lyapzeros (and numpy's QR)
with timing wrappers for the length of a traced run, then puts the
originals back. Every wrapped call pushes a frame; on return its duration
is charged to the caller's frame, and duration minus the time of its own
wrapped callees is charged to its bucket as self time. Time in code that is
not wrapped (RNG, tensordot, scipy, small helpers) is charged to the
wrapped caller's bucket: that is what a layer's self time means here.

Summed over the frames under one ``cli.main`` call, the self times equal
that call's duration by construction. The add-up check in worker.py
therefore compares cli.main's duration with the op's wall time measured
outside. It fails when cli.main cannot be wrapped (no time is covered) and
otherwise bounds the wrapper cost outside cli.main. It cannot see an
unwrapped entry point below cli.main: that time is charged to ``cli`` and
shows as a rise of cli.self_s.

Op-level calls ("span" targets) are kept as individual spans with parent
links. Hot calls ("hot" targets: QR, RestrictionMap.apply, Weight
construction, multiset plumbing) are only aggregated into a count and a
summed time, because recording millions of spans would dwarf the work.
"""

from __future__ import annotations

import functools
import importlib
import sys
from math import comb, prod
from time import perf_counter

# (name, module, attribute path, self-time bucket, kind). A target that no
# longer exists is reported as absent, not an error: later versions may
# delete it.
TARGETS = [
    ("cli.main", "lyapzeros.cli", "main", "cli", "span"),
    ("prediction.predict", "lyapzeros.prediction", "predict", "prediction", "span"),
    ("prediction.predicted_zero_count", "lyapzeros.prediction", "predicted_zero_count",
     "prediction", "span"),
    ("prediction.su_zero_weight_parity_counts", "lyapzeros.prediction",
     "su_zero_weight_parity_counts", "prediction", "span"),
    ("prediction.realified_weights", "lyapzeros.prediction", "realified_weights",
     "prediction", "span"),
    ("prediction.evaluate_spectrum", "lyapzeros.prediction", "evaluate_spectrum",
     "prediction", "span"),
    ("simulate.verify_prediction", "lyapzeros.simulate", "verify_prediction", "simulate", "span"),
    ("simulate.lyapunov_spectrum", "lyapzeros.simulate", "lyapunov_spectrum", "simulate", "span"),
    ("simulate.qr", "numpy.linalg", "qr", "simulate.qr", "hot"),
    ("expm.expm_batch", "lyapzeros._expm", "expm_batch", "expm", "span"),
    ("realforms.lie_algebra_basis", "lyapzeros.realforms", "lie_algebra_basis", "realforms", "span"),
    ("realforms.weights_restricted", "lyapzeros.realforms", "weights_restricted",
     "realforms", "span"),
    ("realforms.exterior_power_matrix", "lyapzeros.realforms", "exterior_power_matrix",
     "realforms", "span"),
    ("realforms.RestrictionMap.apply", "lyapzeros.realforms", "RestrictionMap.apply",
     "realforms", "hot"),
    ("weights.weights_of", "lyapzeros.weights", "weights_of", "weights", "span"),
    ("weights.weights_exterior", "lyapzeros.weights", "weights_exterior", "weights", "span"),
    ("weights.Weight", "lyapzeros.weights", "Weight.__init__", "weights", "hot"),
    ("weights.WeightMultiset", "lyapzeros.weights", "WeightMultiset.__init__", "weights", "hot"),
    ("weights.WeightMultiset.items", "lyapzeros.weights", "WeightMultiset.items",
     "weights", "hot"),
    ("weights.WeightMultiset.map_weights", "lyapzeros.weights", "WeightMultiset.map_weights",
     "weights", "hot"),
]

BUCKETS = ("cli", "prediction", "simulate", "simulate.qr", "realforms", "weights", "expm")


def _get(owner, attr):
    # a method is read from the class dict, so a function is not turned into
    # a bound or static method on the way
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def resolve(module_name: str, path: str):
    """(owner, attribute, current value) of a target; raises when it is missing."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, _get(owner, attr)


def _batch(shape) -> int:
    return prod(shape[:-2]) if len(shape) > 2 else 1


class Tracer:
    """Spans, aggregated call statistics and self times of one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[str, list] = {}          # target -> [count, summed time]
        self.self_time = dict.fromkeys(BUCKETS, 0.0)
        self.counters = {"expm_matrices": 0, "compound_matrices": 0, "compound_minors": 0,
                         "steps_accumulated": 0, "renorm_retries": 0}
        self.absent: list[str] = []
        self.op = None                            # id of the op being traced
        self._stack: list[list] = []              # frames: [callee time, span id]
        self._patches: list[tuple] = []           # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, bucket, kind in TARGETS:
            try:
                owner, attr, original = resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(original, name, bucket, kind == "span")
            self._patch(owner, attr, original, wrapper)
            if not isinstance(owner, type) and module_name.startswith("lyapzeros"):
                # names bound by `from .module import name` elsewhere in the package
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name.startswith("lyapzeros") and mod is not owner
                            and getattr(mod, attr, None) is original):
                        self._patch(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original again."""
        return all(_get(owner, attr) is original for owner, attr, original in self._patches)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, bucket, is_span):
        stack = self._stack
        self_time = self.self_time
        stat = self.calls.setdefault(name, [0, 0.0])
        spans = self.spans
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if is_span else parent
            if is_span:
                spans.append(None)                  # reserve the id in call order
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                self_time[bucket] += dt - frame[0]
                stat[0] += 1
                stat[1] += dt
                if is_span:
                    spans[span_id] = {"id": span_id, "parent": parent, "op": self.op,
                                      "name": name, "start": t0, "end": t1,
                                      "self": dt - frame[0]}
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _after_expm(self, args, kwargs, result):
        self.counters["expm_matrices"] += _batch(result.shape)

    def _after_compound(self, args, kwargs, result):
        M = args[0]
        k = args[1] if len(args) > 1 else kwargs["k"]
        n = _batch(M.shape)
        self.counters["compound_matrices"] += n
        self.counters["compound_minors"] += n * comb(M.shape[-1], k) ** 2

    def _after_spectrum(self, args, kwargs, result):
        config = result.config
        interval = result.renorm_interval_used
        self.counters["renorm_retries"] += int(interval != config.renorm_interval)
        warmup = getattr(config, "resolved_warmup", None)
        if warmup is None:
            if "simulate.useful_step_ratio" not in self.absent:
                self.absent.append("simulate.useful_step_ratio")
            return
        self.counters["steps_accumulated"] += config.trials * (config.steps - warmup(interval))

    _after = {"expm.expm_batch": _after_expm,
              "realforms.exterior_power_matrix": _after_compound,
              "simulate.lyapunov_spectrum": _after_spectrum}

    # -- results --------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float]:
        """(calls, summed seconds) of one target; zeros when it never ran."""
        count, total = self.calls.get(name, (0, 0.0))
        return count, total
