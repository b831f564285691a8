"""Outside-in tracer: wraps the program's public functions from the benchmark's side.

Nothing in `src/` knows about it.  Methods are patched on their classes, and a
module function is replaced in every `infdilog` module that holds it, because
`bloch` and `dilog` bind `log_circ`, `exp_t` and `apply_functional_pair` by
name at import time: patching `series.log_circ` alone would miss their calls.

Spans are aggregated in memory into a call tree keyed by the path of span
names: each node keeps its call count and total time, so a span's self time is
its total minus the totals of its children.  The tree is handed back when the
pass ends and written out by the benchmark.  Field-element arithmetic runs
millions of times per pass, so it is counted but gets no spans.
"""

from __future__ import annotations

import sys
from time import perf_counter

from infdilog import bloch, cli, cluster, dilog, fields, series, verify

FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__")

# verify.check_* function -> check family, as the report names spell it
FAMILIES = {
    "check_oracle_agreement": "oracle-agreement",
    "check_pentagon": "pentagon",
    "check_welldef": "welldef",
    "check_scale_weight": "scale-weight",
    "check_vanish_constants": "vanish-constants",
    "check_li2p_lift": "li2p-lift",
    "check_cluster_char0": "cluster0",
    "check_cluster_charp": "clusterp",
    "check_named_identity": "named",
    "check_lemma_wedge": "lemma",
    "check_theta_invariance": "theta-invariance",
    "check_mutation_involution": "involution",
    "check_periodicity_report": "periodicity",
}

# (owner, attribute, span name); owners that are classes get the method patched
SPANS = (
    (series.TruncatedSeries, "__mul__", "series.mul"),
    (series.TruncatedSeries, "__rmul__", "series.mul"),
    (series.TruncatedSeries, "invert", "series.invert"),
    (series, "log_circ", "series.log_circ"),
    (series, "exp_t", "series.exp_t"),
    (bloch, "ell", "bloch.ell"),
    (bloch, "apply_functional_pair", "bloch.apply_functional_pair"),
    (bloch, "zero_test_rational", "bloch.zero_test_rational"),
    (dilog, "li_direct", "dilog.li_direct"),
    (dilog, "li_via_lift", "dilog.li_via_lift"),
    (dilog, "li2p", "dilog.li2p"),
    (dilog, "li2p_via_lift", "dilog.li2p_via_lift"),
    (dilog, "pounds1", "dilog.pounds1"),
    (cluster.YSeed, "mutate", "cluster.YSeed.mutate"),
    (cluster, "run_schedule", "cluster.run_schedule"),
    (cluster, "check_periodicity", "cluster.check_periodicity"),
    (cli, "main", "cli.main"),
    *((verify, fn, f"verify.{family}") for fn, family in FAMILIES.items()),
)


class Node:
    __slots__ = ("calls", "total", "children")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.children: dict[str, Node] = {}

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.total - sum(c.total for c in self.children.values()),
            "children": {name: c.to_dict() for name, c in self.children.items()},
        }


class Tracer:
    """Install with `with Tracer() as tracer:`; read `tracer.layers()` afterwards."""

    def __init__(self) -> None:
        self.root = Node()
        self.current = self.root
        self.ops = [0]
        self.inversions = [0]
        self.log_inputs: set[int] = set()
        self.invalid_points = 0
        self.inconclusive = 0
        self.family_points: dict[str, list[int]] = {}  # family -> [attempted, valid]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node()
            tracer.current = node
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except cluster.InvalidPointError:
                if name == "cluster.run_schedule":
                    tracer.invalid_points += 1
                raise
            finally:
                node.total += perf_counter() - start
                node.calls += 1
                tracer.current = parent
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _hooks(self) -> dict:
        def log_input(args, result):
            self.log_inputs.add(hash(args[0]))

        def zero_test(args, result):
            if result.verdict == "inconclusive":
                self.inconclusive += 1

        def check(family):
            def record(args, report):
                points = self.family_points.setdefault(family, [0, 0])
                points[0] += report.attempted
                points[1] += report.valid
            return record

        hooks = {"series.log_circ": log_input, "bloch.zero_test_rational": zero_test}
        for family in FAMILIES.values():
            hooks[f"verify.{family}"] = check(family)
        return hooks

    @staticmethod
    def _counted(fn, cell, arity: int):
        if arity == 1:
            def counted(a):
                cell[0] += 1
                return fn(a)
        else:
            def counted(a, b):
                cell[0] += 1
                return fn(a, b)
        return counted

    # -- install / remove ---------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        element = fields.FieldElement
        for attr in FIELD_OPS:
            arity = 1 if attr == "__neg__" else 2
            self._patch(element, attr, self._counted(getattr(element, attr), self.ops, arity))
        self._patch(element, "inverse", self._counted(element.inverse, self.inversions, 1))
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "infdilog" or name.startswith("infdilog."))]
        hooks = self._hooks()
        for owner, attr, name in SPANS:
            original = owner.__dict__[attr]
            wrapped = self._span(name, original, hooks.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Per-layer numbers of this pass: span calls and self time, plus counters."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}

        def walk(node_name: str | None, node: Node) -> None:
            if node_name is not None:
                calls[node_name] = calls.get(node_name, 0) + node.calls
                own = node.total - sum(c.total for c in node.children.values())
                self_s[node_name] = self_s.get(node_name, 0.0) + own
            for name, child in node.children.items():
                walk(name, child)

        walk(None, self.root)
        out: dict[str, float] = {
            "fields.ops": self.ops[0],
            "fields.inversions": self.inversions[0],
            "bloch.zero_test_rational.inconclusive": self.inconclusive,
            "cluster.invalid_points": self.invalid_points,
        }
        for name in sorted({name for _, _, name in SPANS}):
            if name.startswith("verify."):
                family = name[len("verify."):]
                attempted, valid = self.family_points.get(family, (0, 0))
                out[f"{name}.s"] = _inclusive(self.root, name)
                out[f"{name}.points"] = attempted
                out[f"{name}.valid_ratio"] = valid / attempted if attempted else 0.0
            elif name == "cli.main":
                out["cli.main.self_s"] = self_s.get(name, 0.0)
            else:
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        log_calls = calls.get("series.log_circ", 0)
        out["series.log_circ.distinct_ratio"] = len(self.log_inputs) / log_calls if log_calls else 0.0
        return out

    def tree(self) -> dict:
        return self.root.to_dict()["children"]


def _inclusive(root: Node, name: str) -> float:
    """Total time of the outermost spans called `name` (nested ones are inside them)."""
    total = 0.0
    stack = list(root.children.items())
    while stack:
        node_name, node = stack.pop()
        if node_name == name:
            total += node.total
        else:
            stack.extend(node.children.items())
    return total
