"""Opt-in tracing of ordfactor's public functions, from outside the package.

A ``Tracer`` replaces each traced function everywhere its callers look it
up: the attribute of its own module and every name another ordfactor
module imported it under (``instances``, ``ideals``, ``divisor``, ``cli``,
...).  Methods are replaced on their class.  ``uninstall`` puts every
original back.

Spans are kept in memory as ``[name, start, end, parent, pass, instance]``
lists and written out by ``write``.  Per-pair primitives (``leq``,
``join_mask``, ``meet_mask``) are never wrapped, because a wrapper would
cost more than their work; their work is given as computed counts
(``galois.pairs``).  ``ideal_closure_mask`` and ``FinitePoset.dual`` get a
call counter without a span.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# (module, attribute, span or counter name); "span" targets record spans,
# "count" targets only bump a counter.
SPANS = (
    ("cli", "main", "cli.main"),
    ("instances", "run_checks", "instances.run_checks"),
    ("builders", "gen_div", "builders.gen_div"),
    ("builders", "gen_free", "builders.gen_free"),
    ("builders", "gen_hilbert", "builders.gen_hilbert"),
    ("builders", "gen_krullZ2", "builders.gen_krullZ2"),
    ("builders", "gen_random", "builders.gen_random"),
    ("ideals", "enumerate_ideals", "ideals.enumerate"),
    ("ideals", "IdealFamily.poset", "ideals.family_poset"),
    ("ideals", "check_condition", "ideals.conditions"),
    ("ideals", "equivalence_harness", "ideals.harness"),
    ("ideals", "structure_report", "ideals.structure_report"),
    ("poset", "lattice_class", "poset.lattice_class"),
    ("poset", "is_irreducible", "poset.is_irreducible"),
    ("galois", "verify_connection", "galois.verify"),
    ("divisor", "build_principal_connection", "divisor.connection"),
    ("divisor", "derive_system", "divisor.derive_system"),
    ("divisor", "classify", "divisor.classify"),
    ("divisor", "check_D6", "divisor.d6"),
    ("monoid", "check_B4", "monoid.check_B4"),
    ("monoid", "check_D5", "monoid.check_D5"),
    ("monoid", "check_F1", "monoid.check_F1"),
    ("monoid", "check_DCC", "monoid.check_DCC"),
    ("monoid", "uniqueness_check", "monoid.uniqueness_check"),
    ("topology", "represent_ideal_family", "topology.toporep"),
    ("products", "order_representation_monoid", "products.orderrep"),
    ("reporting", "Report.to_json", "reporting.render"),
    ("reporting", "Report.to_text", "reporting.render"),
)
COUNTS = (
    ("ideals", "ideal_closure_mask", "ideals.closure_calls"),
    ("poset", "FinitePoset.dual", "poset.dual_calls"),
)

# Inclusive time of the outermost spans of each group, in seconds.
TIME_GROUPS = {
    "ideals.enumerate_s": ("ideals.enumerate",),
    "poset.lattice_class_s": ("poset.lattice_class",),
    "poset.is_irreducible_s": ("poset.is_irreducible",),
    "galois.verify_s": ("galois.verify",),
    "ideals.family_poset_s": ("ideals.family_poset",),
    "divisor.connection_s": ("divisor.connection",),
    "divisor.derive_system_s": ("divisor.derive_system",),
    "divisor.classify_s": ("divisor.classify",),
    "divisor.d6_s": ("divisor.d6",),
    "ideals.conditions_s": ("ideals.conditions",),
    "ideals.harness_s": ("ideals.harness",),
    "monoid.checks_s": (
        "monoid.check_B4",
        "monoid.check_D5",
        "monoid.check_F1",
        "monoid.check_DCC",
        "monoid.uniqueness_check",
    ),
    "topology.toporep_s": ("topology.toporep",),
    "products.orderrep_s": ("products.orderrep",),
    "builders.generate_s": (
        "builders.gen_div",
        "builders.gen_free",
        "builders.gen_hilbert",
        "builders.gen_krullZ2",
        "builders.gen_random",
    ),
    "reporting.render_s": ("reporting.render",),
}
# Number of spans of one name, recursive calls included.
CALL_GROUPS = {
    "poset.lattice_class_calls": "poset.lattice_class",
    "poset.is_irreducible_calls": "poset.is_irreducible",
    "galois.verify_calls": "galois.verify",
    "ideals.family_poset_calls": "ideals.family_poset",
    "divisor.derive_system_calls": "divisor.derive_system",
}
# Self time: the span's duration minus the time its child spans cover.
SELF_GROUPS = {"instances.self_s": "instances.run_checks"}


def _after_enumerate(tracer: "Tracer", args, family, closures_before: int) -> None:
    tracer.counts["ideals.family_members"] += len(family)
    tracer.counts["ideals.enumerate_closure_calls"] += (
        tracer.counts["ideals.closure_calls"] - closures_before
    )
    if not family.complete:
        tracer.counts["ideals.partial_families"] += 1


def _after_verify(tracer: "Tracer", args, result, closures_before: int) -> None:
    # verify_connection scans every source pair of both maps for
    # monotonicity and every (a, b) pair for the adjunction, each through
    # one or two leq calls: computed, not counted.
    d = args[0]
    p1, p2 = d.source.size, d.target.size
    tracer.counts["galois.pairs"] += p1 * p1 + p2 * p2 + p1 * p2


def _after_render(tracer: "Tracer", args, text, closures_before: int) -> None:
    tracer.counts["reporting.bytes"] += len(text.encode("utf-8"))


AFTER = {
    "ideals.enumerate": _after_enumerate,
    "galois.verify": _after_verify,
    "reporting.render": _after_render,
}


class Tracer:
    """Spans and counters for the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pass_no = -1
        self.instance = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, after = self.spans, self.stack, AFTER.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            closures_before = tracer.counts["ideals.closure_calls"]
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   tracer.pass_no, tracer.instance]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = perf_counter()
            if after is not None:
                after(tracer, args, result, closures_before)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded ordfactor module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ordfactor" or n.startswith("ordfactor."))]
        targets = [(m, a, n, self._span_wrapper) for m, a, n in SPANS]
        targets += [(m, a, n, self._count_wrapper) for m, a, n in COUNTS]
        for module_name, attr, name, make in targets:
            home = sys.modules[f"ordfactor.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, meth, make(name, vars(cls)[meth]))
                continue
            original = getattr(home, attr)
            wrapper = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def pass_metrics(self, pass_no: int) -> dict[str, float]:
        """Per-layer times and counts of one traced pass."""
        spans = self.spans
        ids = [i for i, s in enumerate(spans) if s[4] == pass_no]
        child_time = Counter()
        for i in ids:
            s = spans[i]
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for metric, names in TIME_GROUPS.items():
            group = set(names)
            total = 0.0
            for i in ids:
                s = spans[i]
                if s[0] in group and not self._has_ancestor_in(i, group):
                    total += s[2] - s[1]
            out[metric] = total
        for metric, name in CALL_GROUPS.items():
            out[metric] = sum(1 for i in ids if spans[i][0] == name)
        for metric, name in SELF_GROUPS.items():
            out[metric] = sum(
                spans[i][2] - spans[i][1] - child_time[i] for i in ids if spans[i][0] == name
            )
        return out

    def _has_ancestor_in(self, i: int, group: set) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in group:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: Path, tokens: list[str]) -> None:
        """Spans as JSON lines: name, start, end, parent, pass, instance."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, pass_no, inst) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "pass": pass_no, "instance": tokens[inst] if inst >= 0 else None,
                }) + "\n")
