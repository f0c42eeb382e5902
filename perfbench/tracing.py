"""Span tracer that wraps the library's public functions from outside.

``install`` replaces every traced function in each ``dividing_lines``
module namespace that holds it (so ``from .x import f`` copies are caught
too) and ``uninstall`` puts the originals back; the program's source is
never touched.  Spans are kept in memory as ``[name, start, end, parent]``.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) pairs; a module's public functions plus the kernels
TARGETS = [
    ("core", "load_table"), ("core", "serialize"), ("core", "transpose"),
    ("generators", "generate"), ("generators", "half_graph"), ("generators", "full_pattern"),
    ("generators", "random_table"), ("generators", "cantor_example"),
    ("op", "max_ladder"), ("op", "alternation_rank"), ("op", "stability_spectrum"),
    ("ip", "shattering_dimension"), ("ip", "is_shattered"), ("ip", "ip_to_ladder"),
    ("sop", "strict_chain"), ("sop", "sop_witness"), ("sop", "preorder_psi"),
    ("talagrand", "dk_count"), ("talagrand", "almost_nip_scan"),
    ("talagrand", "shattered_tuple_fraction"),
    ("definability", "mazur_approximate"), ("definability", "cesaro_column"),
    ("classify", "classify"), ("classify", "dichotomy_scan"),
    ("classify", "validate_witness"), ("classify", "table_digest"),
    ("cli", "run_cli"),
    ("backend", "ladder_search"), ("backend", "clique_search"),
    ("backend", "alternation_iii_search"), ("backend", "shatter_dim_search"),
    ("backend", "dk_count_free"), ("backend", "dk_count_distinct"),
]

KERNELS_WITH_EXACT = {"ladder_search", "clique_search", "alternation_iii_search",
                      "shatter_dim_search"}


def _span_name(module: str, attr: str, args, kwargs) -> str:
    name = f"{module}.{attr}"
    if attr == "alternation_rank":
        return f"{name}.{args[2] if len(args) > 2 else kwargs.get('variant', 'ii')}"
    if attr == "dk_count":
        return f"{name}.{args[5] if len(args) > 5 else kwargs.get('mode', 'exact')}"
    return name


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.exact: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, module: str, attr: str, fn):
        spans, stack, exact = self.spans, self._stack, self.exact
        reports_exact = attr in KERNELS_WITH_EXACT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _span_name(module, attr, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if reports_exact and result[-1]:
                exact[name] += 1
            return result

        return traced

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "dividing_lines" or name.startswith("dividing_lines.")}
        for module, attr in TARGETS:
            fn = getattr(mods[f"dividing_lines.{module}"], attr)
            traced = self._wrap(module, attr, fn)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, traced)
        table_cls = mods["dividing_lines.core"].EvalTable
        init = table_cls.__init__
        self._saved.append((table_cls, "__init__", init))
        table_cls.__init__ = self._wrap("core", "EvalTable", init)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms, self ms and exact returns."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "exact": 0})
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_time[idx]) * 1e3
        for name, count in self.exact.items():
            out[name]["exact"] = count
        return out
