"""Layer spans recorded from outside the program.

``Tracer.install()`` rebinds every public function of the quasibasis
modules, the public methods of their classes and the factorizing
``numpy.linalg`` entry points to timing wrappers. Nothing under ``src/`` is
edited: the wrappers are set as module and class attributes in this
process only, and every module that imported a function by name gets the
wrapper in place of the original.

Spans are recorded only while the tracer is active, so the benchmark's own
reference computations are never counted. For each span name the tracer
keeps the call count, the inclusive time and the self time (inclusive time
minus the time covered by wrapped children). A function that re-enters
itself (``serialize.dumps_json`` recurses per value) is recorded at its
outermost call only.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = (
    "operators", "bases", "constructions", "wigner", "representations",
    "analysis", "serialize", "cli",
)

# numpy.linalg calls that factorize a matrix; `linalg.factorizations`
# counts them. Calls made inside numpy (cond -> svd) are not re-counted.
LINALG_FACTORIZATIONS = (
    "eigh", "eigvalsh", "eig", "eigvals", "svd", "svdvals", "cond", "inv",
    "pinv", "solve", "lstsq", "qr", "cholesky", "det", "slogdet",
    "matrix_rank",
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # Each frame is [name, child_time]; frame 0 is the root.
        self._stack: list[list] = [["", 0.0]]
        # Open spans per span name and per module name ("bases").
        self._depth: dict[str, int] = defaultdict(int)
        # Inclusive time of the outermost span of each module, so a layer
        # that calls into others (set-up's builders) can be timed whole.
        self.module_total: dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, func):
        tracer = self
        module = name.split(".")[0]

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._depth[name]:
                return func(*args, **kwargs)
            stack = tracer._stack
            frame = [name, 0.0]
            stack.append(frame)
            outermost = not tracer._depth[module]
            tracer._depth[name] += 1
            tracer._depth[module] += 1
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer._depth[name] -= 1
                tracer._depth[module] -= 1
                if outermost:
                    tracer.module_total[module] += dur
                stack.pop()
                stack[-1][1] += dur
                st = tracer.stats[name]
                st.calls += 1
                st.total += dur
                st.self_time += dur - frame[1]

        return wrapper

    def reset(self):
        self.stats = defaultdict(Stat)
        self.module_total = defaultdict(float)

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {k: (s.calls, s.total, s.self_time)
                for k, s in self.stats.items()}

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the quasibasis modules and numpy.linalg. The package must
        already be importable."""
        import numpy.linalg

        import quasibasis
        for mod in MODULES:
            __import__(f"quasibasis.{mod}")

        replacements: dict[int, object] = {}
        for mod in MODULES:
            module = sys.modules[f"quasibasis.{mod}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(f"{mod}.{attr}", obj)
                elif callable(obj):
                    wrapped = self._wrap(f"{mod}.{attr}", obj)
                    replacements[id(obj)] = wrapped

        for name in LINALG_FACTORIZATIONS:
            if hasattr(numpy.linalg, name):
                setattr(numpy.linalg, name,
                        self._wrap(f"linalg.{name}",
                                   getattr(numpy.linalg, name)))

        # Rebind every by-name import of a wrapped function.
        pkg_modules = [quasibasis] + [
            sys.modules[f"quasibasis.{m}"] for m in MODULES
        ]
        for module in pkg_modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    setattr(module, attr, replacements[id(obj)])
        return self

    def _wrap_class(self, name: str, cls):
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(name, obj))
            elif attr.startswith("_"):
                continue
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr,
                        type(obj)(self._wrap(f"{name}.{attr}",
                                             obj.__func__)))
            elif isinstance(obj, functools.cached_property):
                prop = functools.cached_property(
                    self._wrap(f"{name}.{attr}", obj.func))
                prop.__set_name__(cls, attr)
                setattr(cls, attr, prop)
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(f"{name}.{attr}", obj))

