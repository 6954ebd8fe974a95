"""Per-function call counts and times for a traced benchmark run.

``install`` wraps every public function and public method of the traced
``shormps`` modules, and patches each wrapper in every module namespace that
holds the original, because that is where its callers look it up
(``svd_truncated`` is called through ``shormps.mps``, ``exact_distribution``
through ``shormps.cli``).  Methods are named ``<module>.<method>``, so
``MpsState.sweep`` reports as ``mps.sweep``.

Each wrapper adds its inclusive time to its own entry and to its caller's
child time, so self time is inclusive minus child time.  None of the traced
functions calls itself, so inclusive times never count a span twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("cli", "shor", "mps", "tensor", "oracle", "numtheory")
# durations kept call by call, for medians
KEEP_DURATIONS = {"shor.sample_run"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.durations: dict[str, list[float]] = {name: [] for name in KEEP_DURATIONS}
        self.svd = {"computed_flops": 0, "max_elements": 0}
        self._child_time: list[float] = []

    def _svd_input(self, m, *args, **kwargs) -> None:
        rows, cols = m.shape
        self.svd["computed_flops"] += rows * cols * min(rows, cols)
        self.svd["max_elements"] = max(self.svd["max_elements"], rows * cols)

    def wrap(self, name: str, fn):
        if name in self.stats:
            raise ValueError(f"two traced functions are named {name}")
        stat = self.stats[name] = {"calls": 0, "inclusive_s": 0.0, "child_s": 0.0}
        durations = self.durations.get(name)
        on_call = self._svd_input if name == "tensor.svd_truncated" else None
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            child_time.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat["calls"] += 1
                stat["inclusive_s"] += dt
                stat["child_s"] += child_time.pop()
                if child_time:
                    child_time[-1] += dt
                if durations is not None:
                    durations.append(dt)

        return traced

    def summary(self) -> dict:
        return {
            "functions": {
                name: {
                    "calls": st["calls"],
                    "inclusive_s": st["inclusive_s"],
                    "self_s": st["inclusive_s"] - st["child_s"],
                }
                for name, st in self.stats.items()
            },
            "durations": self.durations,
            "svd": self.svd,
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the traced modules in place."""
    modules = {name: importlib.import_module(f"shormps.{name}") for name in MODULES}

    def patch_everywhere(original, wrapped):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                patch_everywhere(obj, tracer.wrap(f"{short}.{attr}", obj))
            elif inspect.isclass(obj):
                for meth, member in list(vars(obj).items()):
                    if meth.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        setattr(obj, meth, tracer.wrap(f"{short}.{meth}", member))
                    elif isinstance(member, classmethod):
                        wrapped = tracer.wrap(f"{short}.{meth}", member.__func__)
                        setattr(obj, meth, classmethod(wrapped))
