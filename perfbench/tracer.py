"""Outside-in layer tracing: wrap the public functions of the eplan layers.

Each wrapped call is a span. A span's self time is its duration minus the
duration of the traced calls made inside it. Counters for the waste ratios
are taken in the same wrappers, from arguments, results and span parents.
Spans are folded into per-function totals as they close, so memory stays
flat however long the run.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

TRACED = {
    "dsl": ("parse_task", "render_state", "export_dot"),
    "logic": ("eval_state", "eval_world", "validate_over"),
    "actions": ("applicable", "product_update"),
    "models": ("bisim_contract", "canonical_key", "local_state", "globals_of"),
    "planner": (
        "solve_sequential", "solve_policy", "validate_plan", "validate_policy",
        "enumerate_executions", "localize", "execute",
    ),
    "cli": ("main",),
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.shrunk = 0
        self.distinct = 0  # distinct keys, counted per operation
        self.keys: set[bytes] = set()
        self.applicable_true = 0
        self.product_update_in_cli = 0
        self._stack: list[list] = []  # open spans: [name, traced child time]
        self._originals: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)

    def begin_op(self) -> None:
        self.distinct += len(self.keys)
        self.keys.clear()

    def _observe(self, name, args, result, parent):
        if name == "models.bisim_contract":
            self.shrunk += result.model.n < args[0].model.n
        elif name == "models.canonical_key":
            self.keys.add(result)
        elif name == "actions.applicable":
            self.applicable_true += bool(result)
        elif name == "actions.product_update":
            self.product_update_in_cli += parent == "cli.main"

    def _wrap(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        observe = self._observe

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            observe(name, args, result, parent)
            return result

        return span

    def install(self) -> None:
        """Wrap every traced function wherever an ``eplan`` module binds it.

        The package binds names with ``from .x import y``, so one function
        can sit in several module namespaces; each binding is replaced.
        """
        import eplan.cli  # noqa: F401  (the package does not import it)

        if not self._originals:
            for mod, fns in TRACED.items():
                module = sys.modules[f"eplan.{mod}"]
                for fn in fns:
                    original = getattr(module, fn)
                    self._originals[id(original)] = (original, self._wrap(f"{mod}.{fn}", original))
        for module in _eplan_modules():
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        stale = self.unwrapped_bindings()
        if stale:
            raise RuntimeError(f"unwrapped bindings remain: {', '.join(stale)}")

    def uninstall(self) -> None:
        """Put every original back where ``install`` wrapped it."""
        originals = {id(w): o for o, w in self._originals.values()}
        for module in _eplan_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attr, originals[id(value)])

    def unwrapped_bindings(self) -> list[str]:
        """Names in any ``eplan.*`` namespace still bound to an original."""
        originals = {id(o) for o, _ in self._originals.values()}
        return sorted(
            f"{module.__name__}.{attr}"
            for module in _eplan_modules()
            for attr, value in vars(module).items()
            if id(value) in originals
        )

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass totals and the waste ratios, as name -> (value, unit)."""
        self.begin_op()
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        out["models.bisim_contract.shrink_ratio"] = (
            _share(self.shrunk, self.calls["models.bisim_contract"]), "ratio")
        out["models.canonical_key.distinct_ratio"] = (
            _share(self.distinct, self.calls["models.canonical_key"]), "ratio")
        out["actions.applicable.true_ratio"] = (
            _share(self.applicable_true, self.calls["actions.applicable"]), "ratio")
        out["actions.product_update.calls_in_cli"] = (
            self.product_update_in_cli / passes, "count")
        return out


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _eplan_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "eplan" or name.startswith("eplan."))
    ]
