"""Spans around spoc's public names, recorded from the benchmark's own process.

`Tracer.install()` replaces each traced function, method or constructor with
a wrapper that records one span (name, start, end, parent) per call; no file
of spoc is edited.  Module functions are replaced in every spoc module that
bound them by name (`from .measures import sliced_w2` makes a second
binding), so calls made inside the package are seen too.  Spans live in
typed arrays while the workload runs and are written out once at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, attribute, span name) for module-level functions
FUNCTIONS = [
    ("spoc.cli", "dispatch", "cli.dispatch"),
    ("spoc.simulate", "spoc_run", "simulate.spoc_run"),
    ("spoc.simulate", "coupled_spoc_run", "simulate.coupled_spoc_run"),
    ("spoc.simulate", "classical_poc_run", "simulate.classical_poc_run"),
    ("spoc.simulate", "reference_run", "simulate.reference_run"),
    ("spoc.simulate", "save_run", "simulate.save_run"),
    ("spoc.simulate", "load_run", "simulate.load_run"),
    ("spoc.measures", "wasserstein_1d", "measures.wasserstein_1d"),
    ("spoc.measures", "sliced_w2", "measures.sliced_w2"),
    ("spoc.measures", "w2_quantile_grid", "measures.w2_quantile_grid"),
    ("spoc.analysis", "convergence_study", "analysis.convergence_study"),
    ("spoc.analysis", "iid_convergence_study", "analysis.iid_convergence_study"),
    ("spoc.analysis", "density_histogram", "analysis.density_histogram"),
    ("spoc.svgplot", "loglog_rate_plot", "svgplot.write"),
    ("spoc.svgplot", "density_plot", "svgplot.write"),
]

# (module, class, attribute, span name) for methods and constructors
METHODS = [
    ("spoc.rng", "BlockStream", "take", "rng.take"),
    ("spoc.schedules", "UpdateSchedule", "alphas", "schedules.alphas"),
    ("spoc.measures", "WeightedEmpirical", "__init__", "measures.snapshot_build"),
    ("spoc.measures", "WeightedEmpirical", "to_csv", "measures.to_csv"),
    ("spoc.measures", "WeightedEmpirical", "from_csv", "measures.from_csv"),
]

MODEL_EVAL = "models.eval"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.model_rows = 0
        self.saved_dirs: list[Path] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_call=None):
        nid = self._intern(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _count_rows(self, args, kwargs) -> None:
        x = np.asarray(args[1])
        self.model_rows += x.size // x.shape[-1] if x.ndim else 1

    def _record_save_dir(self, args, kwargs) -> None:
        self.saved_dirs.append(Path(args[1] if len(args) > 1 else kwargs["out_dir"]))

    def install(self) -> None:
        spoc_modules = [m for n, m in sys.modules.items() if n == "spoc" or n.startswith("spoc.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            hook = self._record_save_dir if name == "simulate.save_run" else None
            traced = self.wrap(original, name, hook)
            for mod in spoc_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, traced)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self.wrap(raw.__func__, name)))
            else:
                self._set(cls, attr, self.wrap(raw, name))
        # drift and diffusion are fields of each ModelSpec: wrap them on every
        # spec the builtin factory hands out (ModelSpec.from_dict goes through it)
        models = sys.modules["spoc.models"]
        factory = models.builtin_model

        def traced_builtin_model(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return dataclasses.replace(
                spec,
                drift=self.wrap(spec.drift, MODEL_EVAL, self._count_rows),
                diffusion=self.wrap(spec.diffusion, MODEL_EVAL, self._count_rows),
            )

        for mod in spoc_modules:
            for key, value in list(vars(mod).items()):
                if value is factory:
                    self._set(mod, key, traced_builtin_model)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading the spans ----------------------------------------------------

    def arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) if len(self.start) else np.zeros(0)
        return ids, parent, dur

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds (the
        span minus the time its child spans cover)."""
        ids, parent, dur = self.arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child[: dur.size]
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(self_s[sel].sum())}
        return out

    def write(self, path: Path) -> None:
        """Spans as one structured array: name id, parent index, start, end;
        the name table is stored beside it."""
        ids, parent, _ = self.arrays()
        spans = np.zeros(ids.size, dtype=[("name", "i4"), ("parent", "i4"),
                                          ("start", "f8"), ("end", "f8")])
        spans["name"], spans["parent"] = ids, parent
        if ids.size:
            spans["start"], spans["end"] = np.frombuffer(self.start), np.frombuffer(self.end)
        np.savez(path, spans=spans, names=np.array(self.names))
