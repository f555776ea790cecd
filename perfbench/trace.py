"""Per-layer tracing and microbenchmarks.

Tracer rebinds every public function and public method of the timed layers
(paths, numdiff, kinematics, eulersavary, cli) to a wrapper that records
calls, inclusive time and self time (inclusive time minus the time of the
traced calls it made).  A function is rebound in every hypkin module that
holds it, because `from .kinematics import state` copies the name: state()
called from eulersavary or cli would otherwise go uncounted.

The hypernum layer is counted, not timed: a first-order op builds about 150
HypNumber values, and a timed span around each would cost more than the
arithmetic it measures.  Its cost shows in the construction count, in the
isolated microbenchmarks below, and inside the self time of its callers.
"""

from __future__ import annotations

import inspect
import sys
import time
import timeit

TIMED_LAYERS = ("paths", "numdiff", "kinematics", "eulersavary", "cli")


class Tracer:
    """Context manager; stats maps "layer.name" to [calls, inclusive ns, self ns]."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}
        self.constructions = [0]
        self._stack = [0]  # child time of the open spans; the bottom entry absorbs top-level spans
        self._undo: list[tuple[object, str, object]] = []

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0, 0, 0))[0]

    def mean_us(self, key: str) -> float:
        calls, inclusive, _ = self.stats.get(key, (0, 0, 0))
        return inclusive / calls / 1e3 if calls else 0.0

    def self_ns(self, prefix: str) -> int:
        return sum(s[2] for key, s in self.stats.items() if key.startswith(prefix))

    def _wrap(self, fn, key: str):
        stat = self.stats.setdefault(key, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                stack[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        from hypkin import hypernum

        wrappers = {}
        for layer in TIMED_LAYERS:
            mod = sys.modules[f"hypkin.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and not mname.startswith("_"):
                            self._set(obj, mname, self._wrap(meth, f"{layer}.{name}.{mname}"))
        for modname, mod in list(sys.modules.items()):
            if modname == "hypkin" or modname.startswith("hypkin."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(mod, name, wrappers[obj])

        init = hypernum.HypNumber.__init__
        counter = self.constructions

        def counting_init(obj, *args, **kwargs):
            counter[0] += 1
            init(obj, *args, **kwargs)

        self._set(hypernum.HypNumber, "__init__", counting_init)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


MICRO_NUMBER = 2000
MICRO_REPEAT = 7


def microbenchmarks() -> dict[str, float]:
    """Isolated ns per call, best of MICRO_REPEAT loops of MICRO_NUMBER calls
    (the loop's own cost, a few tens of ns, is included)."""
    from hypkin import hypernum, paths

    env = {
        "HypNumber": hypernum.HypNumber,
        "mul": hypernum.mul,
        "div": hypernum.div,
        "exp_j": hypernum.exp_j,
        "eval_jet": paths.eval_jet,
        "z": hypernum.HypNumber(1.5, -0.5),
        "w": hypernum.HypNumber(0.75, 0.25),
        "path": paths.ScalarPath((paths.cosh_term(0.5, 1.2), paths.poly_term(1.0, 2))),
    }
    cases = {
        "hypernum.construct_ns": "HypNumber(1.5, -0.5)",
        "hypernum.mul_ns": "mul(z, w)",
        "hypernum.div_ns": "div(z, w)",
        "hypernum.exp_j_ns": "exp_j(0.3)",
        "paths.eval_jet_ns": "eval_jet(path, 0.4)",
    }
    return {
        name: min(timeit.repeat(stmt, globals=env, number=MICRO_NUMBER, repeat=MICRO_REPEAT))
        / MICRO_NUMBER
        * 1e9
        for name, stmt in cases.items()
    }
