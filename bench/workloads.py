"""The benchmark's workloads: their inputs, one timed pass, and output checks.

Every pass builds its instances afresh from generator tokens, so no cache
on an instance carries from one pass into the next; a command-line user
pays those caches on every invocation.  ordfactor is imported inside the
functions, after the runner has timed the package import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from time import perf_counter

LADDER = ("div:5040", "free:3,3", "free:4,3", "free:8,1", "free:2,9",
          "hilbert:441", "hilbert:2000", "krullZ2")
WIDE = ("hilbert:44", "hilbert:49", "hilbert:53")
LATTICE = ("div:5040", "free:3,3", "free:6,1", "free:2,6")
CORPUS_SIZES = range(1, 13)
CORPUS_SEEDS_PER_SIZE = 150
CORPUS_DIV = range(1, 201)
ORACLE_MAX = 16


# Workload name -> how one instance runs: "report" is `ordfactor report
# --format json`; "lattice" is generate, enumerate_ideals, structure_report.
# BENCHMARK.json gives the reason for each workload.
WORKLOADS = {"ladder": "report", "wide": "report", "lattice": "lattice", "corpus": "report"}


def tokens_for(name: str, seed: int) -> list[str]:
    """The workload's generator tokens; only ``corpus`` depends on the seed."""
    if name == "ladder":
        return list(LADDER)
    if name == "wide":
        return list(WIDE)
    if name == "lattice":
        return list(LATTICE)
    if name == "corpus":
        rng = random.Random(seed)
        out = []
        for size in CORPUS_SIZES:
            seeds = rng.sample(range(1_000_000), CORPUS_SEEDS_PER_SIZE)
            out += [f"random:{size},{s}" for s in seeds]
        out += [f"div:{n}" for n in CORPUS_DIV]
        return out
    raise KeyError(name)


@dataclass
class Outcome:
    """One instance run: the bytes it wrote, its exit code or its exception."""

    output: str = ""
    rc: int | None = None
    error: str | None = None  # exception type name
    message: str = ""

    def record(self) -> str:
        """The bytes that go into the output digest."""
        if self.error is not None:
            return f"error {self.error}: {self.message}\n"
        return f"exit {self.rc}\n{self.output}"


def run_instance(kind: str, token: str) -> Outcome:
    """Run one instance; an exception is the outcome, not an abort."""
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if kind == "report":
                from ordfactor import cli

                outcome.rc = cli.main(["report", "--gen", token, "--format", "json"])
            else:
                outcome.rc = 0
                sys.stdout.write(_structure(token))
    except Exception as exc:  # the instance boundary: record and go on
        outcome.error, outcome.message = type(exc).__name__, str(exc)
    outcome.output = out.getvalue() + err.getvalue()
    return outcome


def _structure(token: str) -> str:
    from ordfactor import ideals, instances

    target = instances.generate(token)
    inst = getattr(target, "monoid", target)
    family = ideals.enumerate_ideals(inst)
    entries = ideals.structure_report(inst, family)
    return json.dumps({"instance": token, "ideals": len(family),
                       "checks": [e.to_dict() for e in entries]}, indent=2) + "\n"


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list[float]
    outcomes: list[Outcome]  # outputs kept for the first pass only
    record_hashes: list[str]  # per instance, over Outcome.record()
    digest: str  # over every instance's record, in order
    pass_no: int
    counts: dict = field(default_factory=dict)  # tracer counters, traced passes only


def run_pass(kind: str, tokens: list[str], tracer=None, pass_no: int = 0) -> PassResult:
    """One timed pass over every token, in order."""
    latencies, outcomes = [], []
    if tracer is not None:
        tracer.pass_no = pass_no
    start = perf_counter()
    for i, token in enumerate(tokens):
        if tracer is not None:
            tracer.instance = i
        t0 = perf_counter()
        outcomes.append(run_instance(kind, token))
        latencies.append(perf_counter() - t0)
    wall = perf_counter() - start
    whole = hashlib.sha256()
    hashes = []
    for outcome in outcomes:
        record = outcome.record().encode("utf-8")
        whole.update(record)
        hashes.append(hashlib.sha256(record).hexdigest())
        if pass_no > 0:
            outcome.output = ""
    return PassResult(wall, latencies, outcomes, hashes, whole.hexdigest(), pass_no)


# -- output checks ---------------------------------------------------------------------


def _entries(report: dict, name: str) -> list[dict]:
    return [c for c in report["checks"] if c["condition"] == name]


def _verdict_problems(token: str, report: dict) -> list[str]:
    """Verdicts the paper fixes for the generator families.

    Divisor and free monoids are fully decomposable (D1-D5 true); the
    Hilbert monoid loses unique factorization at 441 = 9*49 = 21*21, so from
    there on D1 is false with a witness; krullZ2 is Krull but not a UFD.
    """
    family, _, args = token.partition(":")
    problems = []
    if family in ("div", "free"):
        for name in ("D1", "D2", "D3", "D4", "D5"):
            if any(c["verdict"] != "true" for c in _entries(report, name)):
                problems.append(f"{name} is not true")
    elif family == "hilbert" and int(args) >= 441:
        d1 = _entries(report, "D1")
        if not d1 or any(c["verdict"] != "false" or "witness" not in c for c in d1):
            problems.append("D1 is not false with a witness")
    elif family == "krullZ2":
        for name, want in (("krull", "true"), ("ufd", "false")):
            if any(c["verdict"] != want for c in _entries(report, name)):
                problems.append(f"{name} is not {want}")
    return problems


def output_problems(kind: str, token: str, outcome: Outcome) -> list[str]:
    """Problems with one instance's output (exceptions are not checked here)."""
    if outcome.error is not None:
        return []
    if outcome.rc not in (0, 1, 2):
        return [f"exit code {outcome.rc}"]
    if kind != "report":
        report = json.loads(outcome.output)
        return [f"{c['condition']} is {c['verdict']}" for c in report["checks"]
                if c["verdict"] != "true"]
    try:
        report = json.loads(outcome.output)
    except ValueError:
        return ["report is not JSON"]
    problems = [f"harness_agreement is {c['verdict']}"
                for c in _entries(report, "harness_agreement") if c["verdict"] != "true"]
    return problems + _verdict_problems(token, report)


def oracle_problem(token: str) -> str | None:
    """enumerate_ideals against the brute-force lower-set filter, on carriers
    of at most ORACLE_MAX elements; untimed."""
    from ordfactor import ideals, instances

    try:
        target = instances.generate(token)
    except Exception:  # a generator failure is reported by the timed run
        return None
    inst = getattr(target, "monoid", target)
    if inst.poset.size > ORACLE_MAX:
        return None
    fam = ideals.enumerate_ideals(inst)
    if not fam.complete or set(fam.sets()) != set(ideals.lower_set_filter_ideals(inst)):
        return "enumerate_ideals differs from lower_set_filter_ideals"
    return None


@dataclass
class Verdict:
    """Per-run failure accounting over all passes."""

    attempted: int = 0  # instance runs
    failed: int = 0  # instance runs
    check_failures: int = 0  # instances whose output failed a check
    failures: dict = field(default_factory=dict)  # token -> first reason


def judge(kind: str, tokens: list[str], passes: list[PassResult]) -> Verdict:
    """Count failed instance runs: an exception, an exit code outside
    {0, 1, 2}, a failed output check, or bytes that differ from the first
    pass."""
    v = Verdict()
    first = passes[0].outcomes
    static = {}
    for i, token in enumerate(tokens):
        problems = output_problems(kind, token, first[i])
        oracle = oracle_problem(token) if kind == "report" else None
        static[i] = problems + ([oracle] if oracle else [])
    for p in passes:
        for i, token in enumerate(tokens):
            outcome = p.outcomes[i]
            v.attempted += 1
            if outcome.error is not None:
                reason = f"{outcome.error}: {outcome.message}"
            elif static[i] or p.record_hashes[i] != passes[0].record_hashes[i]:
                reason = "; ".join(static[i]) or "output differs between passes"
                v.check_failures += token not in v.failures
            else:
                continue
            v.failed += 1
            v.failures.setdefault(token, reason)
    return v
