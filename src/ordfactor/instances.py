"""Instance files, generator dispatch, and check orchestration.

The file format is line-oriented: sections [instance] [elements] [order]
[mult] [B] [principal], key = value pairs, # comments, UTF-8 with LF line
endings.  Parsing failures carry the offending line number.  Specs
round-trip losslessly through serialize/parse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from . import builders
from .divisor import IdealSystem, classify, check_D6, derive_system
from .ideals import (
    IdealFamily,
    check_condition,
    enumerate_ideals,
    equivalence_harness,
    is_power_ideal_mask,
)
from .monoid import (
    MonoidInstance,
    InstanceError,
    NotApplicableError,
    ORDERED_MONOID,
    POSET_WITH_B,
    PrimePower,
    check_B3,
    check_B4,
    check_D5,
    check_DCC,
    check_F1,
    decompose,
    derive_order,
)
from .poset import FinitePoset, PosetError
from .reporting import (
    FALSE,
    NOT_APPLICABLE,
    NOT_EVALUATED,
    TRUE,
    ConditionReport,
    Report,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


SECTIONS = ("instance", "elements", "order", "mult", "B", "principal")


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    kind: str
    elements: tuple[str, ...]
    order_rule: Optional[str] = None
    order_pairs: tuple[tuple[str, str], ...] = ()
    mult_rule: Optional[str] = None
    mult_entries: tuple[tuple[str, str, str], ...] = ()
    b_entries: tuple[tuple[str, str, int], ...] = ()
    principal: tuple[str, ...] = ()
    zero: Optional[str] = None


def parse_instance(text: str) -> InstanceSpec:
    """Parse and fully validate an instance file; every failure carries the
    offending line number, including order-axiom and power-set violations."""
    section = None
    fields: dict = {
        "instance": {},
        "elements": [],
        "order_pairs": [],
        "order_rule": None,
        "mult_entries": [],
        "mult_rule": None,
        "b_entries": [],
        "principal": [],
    }
    line_of: dict = {"order": {}, "mult": {}, "B": {}, "elements": {}, "principal": {}}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ParseError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            raise ParseError("content before the first section", lineno)
        if section == "instance":
            if "=" not in line:
                raise ParseError("expected key = value", lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in ("name", "kind", "zero"):
                raise ParseError(f"unknown instance key {key!r}", lineno)
            fields["instance"][key] = value
        elif section == "elements":
            if line in line_of["elements"]:
                raise ParseError(f"duplicate element {line!r}", lineno)
            line_of["elements"][line] = lineno
            fields["elements"].append(line)
        elif section == "order":
            if line.startswith("rule"):
                _, _, value = line.partition("=")
                fields["order_rule"] = value.strip()
                if fields["order_rule"] != "divisibility":
                    raise ParseError(f"unknown order rule {fields['order_rule']!r}", lineno)
            else:
                if "<=" not in line:
                    raise ParseError("expected 'a <= b' or 'rule = divisibility'", lineno)
                a, _, b = line.partition("<=")
                pair = (a.strip(), b.strip())
                fields["order_pairs"].append(pair)
                line_of["order"].setdefault(pair, lineno)
        elif section == "mult":
            if line.startswith("rule"):
                _, _, value = line.partition("=")
                fields["mult_rule"] = value.strip()
                if fields["mult_rule"] != "multiplication":
                    raise ParseError(f"unknown mult rule {fields['mult_rule']!r}", lineno)
            else:
                if "*" not in line or "=" not in line:
                    raise ParseError("expected 'a * b = c'", lineno)
                left, _, c = line.partition("=")
                a, _, b = left.partition("*")
                entry = (a.strip(), b.strip(), c.strip())
                fields["mult_entries"].append(entry)
                line_of["mult"].setdefault(entry, lineno)
        elif section == "B":
            if "=" not in line or "^" not in line:
                raise ParseError("expected 'element = base^exponent'", lineno)
            elem, _, rhs = line.partition("=")
            base, _, expo = rhs.partition("^")
            try:
                exponent = int(expo.strip())
            except ValueError:
                raise ParseError(f"exponent {expo.strip()!r} is not an integer", lineno) from None
            entry = (elem.strip(), base.strip(), exponent)
            fields["b_entries"].append(entry)
            line_of["B"].setdefault(entry, lineno)
        elif section == "principal":
            fields["principal"].append(line)
            line_of["principal"].setdefault(line, lineno)
    meta = fields["instance"]
    if "name" not in meta:
        raise ParseError("missing instance name", 1)
    if meta.get("kind") not in (ORDERED_MONOID, POSET_WITH_B, "ideal-system"):
        raise ParseError(f"missing or unknown kind {meta.get('kind')!r}", 1)
    spec = InstanceSpec(
        name=meta["name"],
        kind=meta["kind"],
        elements=tuple(fields["elements"]),
        order_rule=fields["order_rule"],
        order_pairs=tuple(fields["order_pairs"]),
        mult_rule=fields["mult_rule"],
        mult_entries=tuple(fields["mult_entries"]),
        b_entries=tuple(fields["b_entries"]),
        principal=tuple(fields["principal"]),
        zero=meta.get("zero"),
    )
    _validate_spec(spec, line_of)
    return spec


def _validate_spec(spec: InstanceSpec, line_of: dict) -> None:
    if not spec.elements:
        raise ParseError("no elements declared", 1)
    known = set(spec.elements)

    def resolve(label: str, section: str, entry) -> None:
        if label not in known:
            raise ParseError(
                f"unknown label {label!r}", line_of[section].get(entry, 1)
            )

    for pair in spec.order_pairs:
        for lab in pair:
            resolve(lab, "order", pair)
    for entry in spec.mult_entries:
        for lab in entry:
            resolve(lab, "mult", entry)
    for entry in spec.b_entries:
        resolve(entry[0], "B", entry)
        resolve(entry[1], "B", entry)
    for lab in spec.principal:
        resolve(lab, "principal", lab)
    try:
        to_runtime(spec)
    except (PosetError, InstanceError) as err:
        raise ParseError(str(err), _locate_error(str(err), spec, line_of)) from err


def _locate_error(message: str, spec: InstanceSpec, line_of: dict) -> int:
    candidates = [
        lineno
        for pair, lineno in line_of["order"].items()
        if all(f"{lab!r}" in message for lab in pair)
    ]
    if candidates:
        return max(candidates)  # the line completing the cycle
    for entry, lineno in line_of["B"].items():
        if f"{entry[0]!r}" in message or f"{entry[1]!r}" in message or entry[0] in message:
            return lineno
    for entry, lineno in line_of["mult"].items():
        if any(f"{lab!r}" in message for lab in entry[:2]):
            return lineno
    for lab, lineno in line_of["elements"].items():
        if f"{lab!r}" in message:
            return lineno
    return 1


def serialize_instance(spec: InstanceSpec) -> str:
    """Canonical text form; parse(serialize(spec)) == spec."""
    lines = ["[instance]", f"name = {spec.name}", f"kind = {spec.kind}"]
    if spec.zero is not None:
        lines.append(f"zero = {spec.zero}")
    lines.append("")
    lines.append("[elements]")
    lines.extend(spec.elements)
    lines.append("")
    lines.append("[order]")
    if spec.order_rule:
        lines.append(f"rule = {spec.order_rule}")
    lines.extend(f"{a} <= {b}" for a, b in spec.order_pairs)
    if spec.mult_rule or spec.mult_entries:
        lines.append("")
        lines.append("[mult]")
        if spec.mult_rule:
            lines.append(f"rule = {spec.mult_rule}")
        lines.extend(f"{a} * {b} = {c}" for a, b, c in spec.mult_entries)
    if spec.b_entries:
        lines.append("")
        lines.append("[B]")
        lines.extend(f"{e} = {b}^{x}" for e, b, x in spec.b_entries)
    if spec.principal:
        lines.append("")
        lines.append("[principal]")
        lines.extend(spec.principal)
    return "\n".join(lines) + "\n"


def to_runtime(spec: InstanceSpec) -> Union[MonoidInstance, IdealSystem]:
    """Materialize a parsed spec; construction errors surface unchanged."""
    index = {lab: i for i, lab in enumerate(spec.elements)}
    if spec.kind == "ideal-system":
        return _runtime_system(spec, index)
    mult = None
    if spec.kind == ORDERED_MONOID:
        mult = _build_mult(spec, index)
        unit = _find_unit(spec, index, mult)
    poset = None
    if spec.order_rule == "divisibility":
        ints = _int_labels(spec.elements)
        poset = FinitePoset.from_leq(spec.elements, lambda i, j: ints[j] % ints[i] == 0)
    elif spec.order_pairs:
        poset = FinitePoset.from_pairs(
            spec.elements, [(index[a], index[b]) for a, b in spec.order_pairs]
        )
    if spec.kind == ORDERED_MONOID and poset is None:
        poset = derive_order(spec.elements, unit, mult)
    if poset is None:
        raise InstanceError("poset-with-B instances need an [order] section")
    if spec.kind == POSET_WITH_B:
        unit = poset.bottom()
        if unit is None:
            raise InstanceError("the carrier needs a least element as its unit")
    powers = _build_powers(spec, index) if spec.b_entries else None
    return MonoidInstance(
        spec.name, poset, unit, mult=mult, prime_powers=powers, kind=spec.kind
    )


def _build_mult(spec: InstanceSpec, index: dict) -> dict:
    mult = {}
    if spec.mult_rule == "multiplication":
        ints = _int_labels(spec.elements)
        values = {ints[i]: i for i in range(len(spec.elements))}
        for i in range(len(spec.elements)):
            for j in range(i, len(spec.elements)):
                prod = ints[i] * ints[j]
                if prod in values:
                    mult[(i, j)] = values[prod]
    for a, b, c in spec.mult_entries:
        mult[(index[a], index[b])] = index[c]
    if not mult and spec.mult_rule is None:
        raise InstanceError("ordered-monoid instances need a [mult] section")
    return mult


def _find_unit(spec: InstanceSpec, index: dict, mult: dict) -> int:
    n = len(spec.elements)
    if n == 1:
        return 0
    candidates = [
        u
        for u in range(n)
        if all(c == (b if a == u else a) for (a, b), c in mult.items() if u in (a, b))
    ]
    if len(candidates) == 1:
        return candidates[0]
    if "1" in index and index["1"] in candidates:
        return index["1"]
    raise InstanceError("could not locate the unit element")


def _int_labels(labels) -> dict:
    out = {}
    for i, lab in enumerate(labels):
        try:
            out[i] = int(lab)
        except ValueError:
            raise InstanceError(f"rule-based sections need integer labels, got {lab!r}") from None
    return out


def _build_powers(spec: InstanceSpec, index: dict) -> list[PrimePower]:
    return [
        PrimePower(base=index[b], exponent=x, element=index[e])
        for e, b, x in spec.b_entries
    ]


def _runtime_system(spec: InstanceSpec, index: dict) -> IdealSystem:
    if spec.zero is None:
        raise InstanceError("ideal systems need a zero label")
    if spec.zero not in index:
        raise InstanceError(f"unknown zero label {spec.zero!r}")
    if not spec.order_pairs:
        raise InstanceError("ideal systems need an explicit [order] section (inclusion)")
    poset = FinitePoset.from_pairs(
        spec.elements, [(index[a], index[b]) for a, b in spec.order_pairs]
    )
    if not spec.principal:
        raise InstanceError("ideal systems need a [principal] section")
    principal_ids = [index[lab] for lab in spec.principal]
    if poset.top() not in principal_ids:
        raise InstanceError("the unit (top) ideal must be principal")
    sub, old = poset.dual().restrict(principal_ids)
    monoid_powers = []
    back = {o: i for i, o in enumerate(old)}
    for e, b, x in spec.b_entries:
        monoid_powers.append(PrimePower(base=back[index[b]], exponent=x, element=back[index[e]]))
    monoid = MonoidInstance(
        f"{spec.name}-monoid", sub, back[poset.top()], prime_powers=monoid_powers, kind=POSET_WITH_B
    )
    mult = None
    if spec.mult_entries:
        mult = {
            (index[a], index[b]): index[c] for a, b, c in spec.mult_entries
        }
    system = IdealSystem(
        name=spec.name,
        poset=poset,
        zero=index[spec.zero],
        principal={back[o]: o for o in old},
        monoid=monoid,
        mult=mult,
    )
    # Each ideal's principal labels must form a power ideal of the monoid,
    # or the principal-label connection has nowhere to send that ideal.
    for a in range(poset.size):
        labels = sum(1 << x for x, o in enumerate(old) if poset.leq(a, o))
        if not is_power_ideal_mask(monoid, labels)[0]:
            raise InstanceError(
                f"principal labels above {poset.labels[a]!r} do not form a power ideal"
            )
    return system


# -- generators -------------------------------------------------------------------------


def generate(token: str) -> Union[MonoidInstance, IdealSystem]:
    """Build a generator instance from a CLI token like div:60 or random:9,3."""
    name, _, args = token.partition(":")
    try:
        if name == "div":
            return builders.gen_div(int(args))
        if name == "free":
            k, e = (int(x) for x in args.split(","))
            return builders.gen_free(k, e)
        if name == "hilbert":
            return builders.gen_hilbert(int(args))
        if name == "krullZ2":
            if args:
                raise InstanceError("krullZ2 takes no arguments")
            return builders.gen_krullZ2()
        if name == "random":
            size, seed = (int(x) for x in args.split(","))
            return builders.gen_random(size, seed)
    except ValueError as err:
        raise InstanceError(f"bad generator arguments {token!r}: {err}") from None
    raise InstanceError(f"unknown generator {name!r}")


# -- orchestration -----------------------------------------------------------------------


CONDITIONS = (
    "D1",
    "D2",
    "D3",
    "D4",
    "D5",
    "D6",
    "B1",
    "B2",
    "B3",
    "B4",
    "F1",
    "F2",
    "F3",
    "DCC",
    "harness",
    "classify",
    "toporep",
    "orderrep",
)


@dataclass(frozen=True)
class Caps:
    cap_m: int = 20000
    b_total: int = 100000
    b_size: int = 6
    toporep_size: int = 64


def run_checks(
    target: Union[MonoidInstance, IdealSystem],
    conditions,
    caps: Caps = Caps(),
    family: Optional[IdealFamily] = None,
) -> Report:
    """Dispatch the requested conditions to their owning modules.

    Conditions not applicable to the instance kind produce explicit
    not_applicable entries without affecting the exit code.  When the
    harness is requested, D1-D5 and F1 are taken from its single run.
    """
    system = target if isinstance(target, IdealSystem) else None
    inst = target.monoid if system is not None else target
    if conditions in ("all", ["all"], ("all",)):
        conditions = CONDITIONS
    unknown = [c for c in conditions if c not in CONDITIONS]
    if unknown:
        raise InstanceError(f"unknown conditions: {', '.join(unknown)}")
    needs_family = {"D2", "D3", "D4", "harness", "toporep"}
    if family is None and needs_family.intersection(conditions):
        family = enumerate_ideals(inst, caps.cap_m)
    harness = equivalence_harness(inst, family, caps.cap_m) if "harness" in conditions else None
    checks: list[ConditionReport] = []
    for cond in CONDITIONS:
        if cond not in conditions:
            continue
        held = {c.condition for c in checks}  # the harness repeats D1-D5 and F1
        checks.extend(
            r for r in _run_one(cond, inst, system, family, caps, harness) if r.condition not in held
        )
    return Report(instance=target.name, checks=tuple(checks))


def _run_one(cond, inst, system, family, caps, harness):
    if harness is not None and cond in ("D1", "D2", "D3", "D4", "D5", "F1"):
        return [harness.entry(cond)]
    if cond in ("D1", "D2", "D3", "D4", "B1", "B2", "F2", "F3"):
        return [
            check_condition(
                inst,
                cond,
                family,
                cap_m=caps.cap_m,
                b2_total_cap=caps.b_total,
                b2_size_cap=caps.b_size,
            )
        ]
    if cond == "D5":
        return [check_D5(inst)]
    if cond == "B3":
        return [check_B3(inst)]
    if cond == "B4":
        return [check_B4(inst)]
    if cond == "F1":
        return [check_F1(inst)]
    if cond == "DCC":
        return [check_DCC(inst)]
    if cond == "D6":
        sys_ = system if system is not None else derive_system(inst)
        rep = check_D6(sys_)
        return [rep]
    if cond == "harness":
        return list(harness.entries) + [
            ConditionReport(
                "harness_agreement",
                TRUE if harness.ok else FALSE,
                list(harness.disagreements) if harness.disagreements else None,
            )
        ]
    if cond == "classify":
        sys_ = system if system is not None else derive_system(inst)
        verdict = classify(sys_)

        def entry(name, flag, witness, note=""):
            return ConditionReport(name, TRUE if flag else FALSE, None if flag else witness, note)

        return [
            entry("krull", verdict.krull, verdict.krull_witness),
            entry("dedekind", verdict.dedekind, verdict.dedekind_witness, "in-model verdict"),
            entry("ufd", verdict.ufd, verdict.ufd_witness, "in-model verdict"),
            entry("pid", verdict.pid, "conjunction of dedekind and ufd"),
        ]
    if cond == "toporep":
        from .topology import RepresentationError, represent_ideal_family

        try:
            famrep = represent_ideal_family(inst, family, size_cap=caps.toporep_size)
        except RepresentationError as err:
            if err.witness is None:  # a cap or a refused partial family
                return [ConditionReport("toporep", NOT_EVALUATED, note=str(err))]
            return [ConditionReport("toporep", FALSE, err.witness)]
        entries = list(famrep.closed_base)
        # a false base check decides toporep; otherwise an unevaluated one leaves it open
        bad = [r for r in entries if r.is_false] or [r for r in entries if not r.is_true]
        if not bad:
            return entries + [ConditionReport("toporep", TRUE)]
        note = f"{bad[0].condition}: {bad[0].note or bad[0].verdict}"
        return entries + [ConditionReport("toporep", bad[0].verdict, bad[0].witness, note)]
    if cond == "orderrep":
        from .products import ProductRefusal, order_representation_monoid

        try:
            rep = order_representation_monoid(inst)
        except ProductRefusal as err:
            return [ConditionReport("orderrep", FALSE, err.witness or str(err))]
        except NotApplicableError as err:
            return [ConditionReport("orderrep", NOT_APPLICABLE, note=str(err))]
        return [
            ConditionReport(
                "orderrep",
                TRUE,
                note=rep.note,
            )
        ]
    raise AssertionError(f"unhandled condition {cond}")  # pragma: no cover


def decompose_report(target, element: Optional[str] = None) -> Report:
    """Per-element decomposition entries; absent decompositions are false."""
    inst = target.monoid if isinstance(target, IdealSystem) else target
    labels = [element] if element is not None else list(inst.poset.labels)
    checks = []
    for lab in labels:
        a = inst.poset.index(lab)
        entries = decompose(inst, a)
        if entries is None:
            checks.append(ConditionReport(f"decompose:{lab}", FALSE, lab))
        else:
            parts = [f"{inst.lab(pp.base)}^{pp.exponent}" for pp in entries]
            checks.append(
                ConditionReport(
                    f"decompose:{lab}",
                    TRUE,
                    witness=sorted(inst.lab(pp.element) for pp in entries),
                    note=f"{lab} = " + (" v ".join(parts) if parts else "empty join"),
                )
            )
    return Report(instance=target.name, checks=tuple(checks))


def enumerate_report(target, caps: Caps = Caps()) -> Report:
    """The enumerated ideal family as a deterministic report."""
    inst = target.monoid if isinstance(target, IdealSystem) else target
    family = enumerate_ideals(inst, caps.cap_m)
    witness = [sorted(inst.lab(i) for i in s) for s in family.sets()]
    return Report(
        instance=target.name,
        checks=(
            ConditionReport(
                "enumerate-m",
                TRUE,
                witness=witness,
                note=("complete" if family.complete else family.note),
            ),
        ),
    )
