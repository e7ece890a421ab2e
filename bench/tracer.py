"""Per-layer spans around the library's public functions.

The benchmark owns the spans: it replaces each listed function by a
timing wrapper in every parkforest namespace that holds it (module
globals and module-level dicts such as the CLI's family table), so calls
between modules are caught as well as calls from the benchmark.
Generators are timed per next().  Times are integer nanoseconds, which
makes the self-time bookkeeping exact: the self times of all spans sum to
the durations of the outermost spans.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# module -> public functions timed in the traced run
LAYERS = {
    "forest": ["validate_forest", "canonical_order", "postorder", "preorder"],
    "forest_stats": ["inversion_counts", "subtree_label_lists", "forest_stats"],
    "parking": ["park", "is_parking_function", "parking_stats"],
    "bijection": [
        "forest_to_parking",
        "parking_to_forest",
        "relabel_decreasing",
        "inverse_relabel",
        "nearest_larger_right_tree",
        "map_trace",
        "unmap_trace",
    ],
    "exhaustive": [
        "verify_bijection",
        "verify_random",
        "all_forests",
        "all_parking_functions",
    ],
    "genpoly": [
        "inversion_type_poly",
        "jump_type_poly",
        "lucky_poly",
        "critic_lucky_poly",
        "lead_tree_poly",
        "lucky_product_formula",
        "critic_lucky_product_formula",
    ],
    "cli": ["main", "parse_input"],
}

GENERATORS = {"exhaustive.all_forests", "exhaustive.all_parking_functions"}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def replace_everywhere(old, new) -> list:
    """Put new wherever a parkforest namespace holds old; return undo records."""
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != "parkforest" and not name.startswith("parkforest."):
            continue
        space = vars(mod)
        for key, value in list(space.items()):
            if value is old:
                undo.append((space, key, old))
                space[key] = new
            elif type(value) is dict:
                for k, v in value.items():
                    if v is old:
                        undo.append((value, k, old))
                        value[k] = new
    return undo


def restore(undo: list) -> None:
    for table, key, old in reversed(undo):
        table[key] = old


class Tracer:
    """Spans per function: call count, total and self time in nanoseconds."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.total_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.active = True  # off while the benchmark checks results
        self._child_ns = []  # per open span, time covered by its children
        self._undo = []

    def _close(self, name: str, start: int) -> None:
        dur = perf_counter_ns() - start
        child = self._child_ns.pop()
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        if self._child_ns:
            self._child_ns[-1] += dur

    def _wrap(self, name: str, fn):
        open_children = self._child_ns
        close = self._close

        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            open_children.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, start)

        return timed

    def _wrap_generator(self, name: str, fn):
        open_children = self._child_ns
        close = self._close

        def timed(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not self.active:
                yield from it
                return
            while True:
                open_children.append(0)
                start = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(name, start)
                yield item

        return timed

    def install(self) -> None:
        for mod, fns in LAYERS.items():
            module = sys.modules[f"parkforest.{mod}"]
            for fn_name in fns:
                name = f"{mod}.{fn_name}"
                orig = getattr(module, fn_name)
                wrap = self._wrap_generator if name in GENERATORS else self._wrap
                self._undo += replace_everywhere(orig, wrap(name, orig))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []
