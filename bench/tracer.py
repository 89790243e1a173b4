"""In-memory tracer for the traced benchmark run.

`install` wraps the entry points of the kgroth modules from outside the
package: every name bound to an entry point, in every kgroth module namespace
and in the dispatch tables that hold them, is rebound to a wrapper.  Each
wrapped call adds its self time (its duration minus that of the wrapped calls
it makes) to a per-name counter.  Calls of the names in SPANS also append a
span (name, start, end, parent span, op id, self time); the hottest per-term
calls only count, which keeps memory and overhead bounded.

Timestamps come from time.monotonic_ns, the system-wide CLOCK_MONOTONIC on
Linux, so spans written by child processes line up with the runner's clock.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.monotonic_ns

# At most this many spans are kept per process; later spans still count.
MAX_SPANS = 200_000

# Entry points that record a span per call, by module.
SPANS = {
    "words": ("alpha_factorizations",),
    "tableaux": ("kostka_column", "enumerate_tableaux"),
    "kostka": ("build_affine_kostka", "_load", "_save"),
    "families": (
        "kkschur", "k_schur", "dual_grothendieck", "grothendieck", "dual_k_schur",
        "affine_grothendieck", "row_pieri", "column_pieri", "omega_big",
        "expand_in_family", "expand_in_dual_family",
        "verify_duality", "verify_omega", "verify_pieri", "verify_reduction_g",
        "verify_reduction_G", "verify_newton_suite", "verify_k_newton_suite",
        "verify_kostka_symmetry", "verify_bijection",
        "scan_G_in_dualks", "scan_gk_in_g", "scan_gk_branching", "scan_s_in_Gk",
        "scan_kss_cancellation",
    ),
    "cli": ("main", "cmd_expand", "cmd_tableaux", "cmd_pieri", "cmd_verify", "cmd_scan",
            "cmd_kostka"),
}

# Entry points called per term or per DP state: counted, no span.
COUNTED = {
    "partitions": ("check_partition", "core_to_bounded", "bounded_to_core",
                   "k_bounded_partitions", "k_bounded_up_to", "partitions_of", "k_conjugate"),
    "words": ("apply_block", "word_of_partition", "evaluate"),
    "tableaux": ("_strip_transitions", "classical_kostka_column", "count_semistandard",
                 "count_kostka", "count_classical_kostka", "enumerate_sv_strips",
                 "enumerate_sv_strips_vertical"),
    "kostka": ("affine_kostka", "_column"),
    "symfunc": ("hall_inner",),
}

# functools.cache functions whose cache_info() is reported.
CACHED = (
    ("partitions", "core_to_bounded"),
    ("partitions", "bounded_to_core"),
    ("tableaux", "_strip_transitions"),
    ("kostka", "_column"),
    ("families", "kkschur"),
    ("families", "dual_grothendieck"),
)

ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")


class Tracer:
    def __init__(self, op):
        self.op = op
        self.spans: list = []
        self.stats: dict[str, list[int]] = {}
        self.constructed = 0
        self.max_support = 0
        self.dropped = 0
        # one frame per active wrapped call: [child time, span index for children]
        self._stack: list[list[int]] = [[0, -1]]
        self._caches: dict[str, object] = {}

    def _stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0])

    def counted(self, fn, name: str):
        stat = self._stat(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0, stack[-1][1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur - frame[0]

        return wrapper

    def spanned(self, fn, name: str):
        stat = self._stat(name)
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][1]
            index = -1
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                self.dropped += 1
            frame = [0, index if index >= 0 else parent]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur - frame[0]
                if index >= 0:
                    spans[index] = (name, t0, t1, parent, self.op, dur - frame[0])

        return wrapper

    def run_op(self, op, fn, *args):
        """Call fn under a root span for op; its self time is bench overhead."""
        self.op = op
        return self.spanned(fn, "bench.op")(*args)

    def install(self) -> None:
        import kgroth.cli  # noqa: F401  (loads every module of the package)

        modules = {name: sys.modules[f"kgroth.{name}"] for name in
                   ("partitions", "words", "tableaux", "kostka", "symfunc", "families", "cli")}
        for mod, fname in CACHED:
            self._caches[f"{mod}.{fname}"] = getattr(modules[mod], fname)
        swap: dict[int, object] = {}
        for kinds, make in ((SPANS, self.spanned), (COUNTED, self.counted)):
            for mod, names in kinds.items():
                for fname in names:
                    original = getattr(modules[mod], fname)
                    swap[id(original)] = make(original, f"{mod}.{fname}")
        symfunc = modules["symfunc"]
        swap[id(symfunc.convert)] = self._convert(symfunc.convert)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "kgroth"]:
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    setattr(module, attr, swap[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in swap:
                            value[key] = swap[id(item)]
        self._patch_symfunc(symfunc.SymFunc)

    def _convert(self, convert):
        wrapped = {b: self.counted(convert, f"symfunc.convert.to_{b}") for b in "mhes"}

        def wrapper(f, target):
            return wrapped.get(target, convert)(f, target)

        return wrapper

    def _patch_symfunc(self, cls) -> None:
        construct = self.counted(cls.__post_init__, "symfunc.SymFunc.construct")

        def post_init(obj):
            construct(obj)
            self.constructed += 1
            if len(obj.coeffs) > self.max_support:
                self.max_support = len(obj.coeffs)

        cls.__post_init__ = post_init
        for name in ARITH:
            setattr(cls, name, self.counted(getattr(cls, name), "symfunc.arith"))

    def dump(self, path: str, **extra) -> None:
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        payload = {
            "spans": self.spans,
            "stats": self.stats,
            "caches": caches,
            "constructed": self.constructed,
            "max_support": self.max_support,
            "dropped_spans": self.dropped,
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
