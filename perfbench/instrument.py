"""Outside-in instrumentation of the diffcsi package for the traced run.

Every public function (a name without a leading underscore, defined in the
module itself) of each diffcsi module is replaced, in every diffcsi module
that holds a reference to it, by a wrapper that records a span named
`<module>.<function>`.  `capacity.ProcessPoolExecutor` is replaced by a
subclass that records a `capacity.pool` span from construction to shutdown
and the CPU time its workers used.  Nothing under `src/` is edited; the
originals are put back by `Instrumentation.remove`.

Work counters are exact: they come from call arguments, configuration
constants and public return values, never from timings.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import resource
import statistics
from concurrent.futures import ProcessPoolExecutor

from spans import Tracer, aggregate, roots

LAYERS = ("harness", "ratedist", "channel", "capacity", "lloydfb", "mathcore", "cli")
ROOT_SPAN = "harness.run_scenario"


def _children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


class Instrumentation:
    """Installs span wrappers on the diffcsi package; one traced call at a time.

    Used as a context manager: entering clears the previous call's spans and
    counters and installs the wrappers, leaving removes them.
    """

    def __init__(self):
        self.modules = {name: importlib.import_module(f"diffcsi.{name}") for name in LAYERS}
        self.tracer = Tracer()
        self.counters: dict[str, float] = {}
        self.codebooks: list[tuple] = []    # (params, t_blocks, r_bits, final_distortion)
        self.pools: list[tuple[float, float, int]] = []   # (seconds, child cpu, workers)
        self._orig: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "capacity.ergodic_capacity": self._on_ergodic_capacity,
            "lloydfb.train_codebook": self._on_train_codebook,
            "lloydfb.run_feedback_session": self._on_session,
            "lloydfb.bootstrap_codebook": self._on_bootstrap,
        }

    # -- counters -----------------------------------------------------------

    def _add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _on_ergodic_capacity(self, args, kwargs, result) -> None:
        a = _bound(self._orig["capacity.ergodic_capacity"], args, kwargs)
        t = max(1, a["budget"].t_blocks)
        blocks = (a["periods"] + 1) * t if a["mode"] == "simulate" else a["periods"]
        self._add("capacity.block_trials", blocks * a["trials"])
        chunk = self.modules["capacity"].CHUNK_TRIALS
        self._add("capacity.chunks", math.ceil(a["trials"] / chunk))

    def _on_train_codebook(self, args, kwargs, cb) -> None:
        meta = cb.training_meta
        self._add("lloydfb.train.iterations", meta["iterations"])
        self._add("lloydfb.train.distance_evals",
                  meta["iterations"] * meta["training_size"] * 2 ** cb.rate_bits)

    def _on_session(self, args, kwargs, result) -> None:
        a = _bound(self._orig["lloydfb.run_feedback_session"], args, kwargs)
        self._add("lloydfb.session.blocks", a["n_blocks"])

    def _on_bootstrap(self, args, kwargs, cb) -> None:
        a = _bound(self._orig["lloydfb.bootstrap_codebook"], args, kwargs)
        budget = a["budget"]
        self.codebooks.append((a["cfg"].params, max(1, budget.t_blocks), budget.r_bits,
                               cb.training_meta["final_distortion"]))

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("instrumentation already installed")
        self._orig.clear()
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._orig[name] = obj
                wrapped = self.tracer.wrap(name, obj, self._hooks.get(name))
                # rebind the name everywhere it was imported, so calls made
                # from other modules go through the wrapper as well
                for holder in self.modules.values():
                    for hattr, hobj in list(vars(holder).items()):
                        if hobj is obj:
                            self._patch(holder, hattr, wrapped)
        self._patch(self.modules["capacity"], "ProcessPoolExecutor", self._pool_class())

    def _patch(self, holder, attr: str, new) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def remove(self) -> None:
        for holder, attr, old in reversed(self._patched):
            setattr(holder, attr, old)
        self._patched.clear()

    def _pool_class(self):
        tracer, pools = self.tracer, self.pools

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                self._bench_span = tracer.open("capacity.pool")
                self._bench_cpu0 = _children_cpu()
                self._bench_workers = max_workers or os.cpu_count() or 1
                super().__init__(max_workers, *args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait=wait, **kwargs)
                if self._bench_span is not None:
                    # workers are reaped by the join in shutdown(wait=True),
                    # so their CPU time shows in the children totals now
                    tracer.close(self._bench_span)
                    span = tracer.spans[self._bench_span]
                    pools.append((span.duration, _children_cpu() - self._bench_cpu0,
                                  self._bench_workers))
                    self._bench_span = None

        return TracedPool

    def __enter__(self) -> "Instrumentation":
        self.tracer.spans.clear()
        self.counters.clear()
        self.codebooks.clear()
        self.pools.clear()
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- one traced call ----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the last traced call."""
        spans = self.tracer.spans
        root = roots(spans)
        if len(root) != 1 or spans[root[0]].name != ROOT_SPAN:
            raise RuntimeError(f"expected one {ROOT_SPAN} root span, got "
                               f"{[spans[i].name for i in root]}")
        agg = aggregate(spans)

        def span_metric(name: str, field: str) -> float:
            return agg.get(name, {}).get(field, 0)

        m: dict[str, float] = {}
        m[f"{ROOT_SPAN}.s"] = spans[root[0]].duration
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in agg.items()
                                       if k.split(".", 1)[0] == layer)
        for name in ("capacity.ergodic_capacity", "lloydfb.run_feedback_session"):
            for field in ("calls", "s", "self_s"):
                m[f"{name}.{field}"] = span_metric(name, field)
        for name in ("capacity.waterfill_batch", "lloydfb.train_codebook",
                     "ratedist.distortion_from_rate", "channel.autocorrelation",
                     "mathcore.sample_cn"):
            for field in ("calls", "s"):
                m[f"{name}.{field}"] = span_metric(name, field)
        for name in ("lloydfb.bootstrap_codebook", "lloydfb.open_loop_training_samples"):
            m[f"{name}.s"] = span_metric(name, "s")
        for name in ("capacity.block_trials", "capacity.chunks", "lloydfb.train.iterations",
                     "lloydfb.train.distance_evals", "lloydfb.session.blocks"):
            m[name] = self.counters.get(name, 0)

        pool_s = sum(p[0] for p in self.pools)
        child_cpu = sum(p[1] for p in self.pools)
        worker_s = sum(p[0] * p[2] for p in self.pools)
        m["capacity.pool.created"] = len(self.pools)
        m["capacity.pool.s"] = pool_s
        m["capacity.pool.child_cpu_s"] = child_cpu
        m["capacity.pool.efficiency"] = child_cpu / worker_s if worker_s > 0 else 0.0

        d_bound = self._orig["ratedist.distortion_from_rate"]
        alpha = self._orig["channel.autocorrelation"]
        ratios = [final / d_bound(p, alpha(p, t), r_bits)
                  for p, t, r_bits, final in self.codebooks]
        m["lloydfb.train.d_ratio"] = statistics.fmean(ratios) if ratios else 0.0
        return m
