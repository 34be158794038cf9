"""Coverage signatures, the coverage map, and mutant-seed encoding.

The open-loop generator treats seed 10_000 exactly like seed 10; this
module gives the campaign a feedback channel.  Each fuzzed seed produces a
deterministic **coverage signature**: the union of

* **generator probes** — grammar productions fired while building the
  program (``gen:*`` / ``mut:*`` counters from
  :mod:`repro.util.probe`, collected inside the seed body thread),
* **static-analysis probes** — driver/call-graph path counters
  (``drv:*`` / ``cg:*``),
* **structural source features** — a walk of the final program's checked
  AST (collective × region context, OpenMP nesting pairs, guard shapes,
  call shapes; :func:`program_features`), which also covers *mutants*,
  whose bodies never re-ran the generator,
* the **oracle class** reached (``oracle:agree`` etc.).

Counters are AFL-style log2-bucketed (:func:`repro.util.probe.bucket`)
before becoming features, so counter jitter does not mint fake coverage.
The :class:`CoverageMap` folds signatures into a global feature→hits table
plus the set of distinct signature digests; a seed whose signature adds
features earns mutation **energy** (:func:`energy_for`) and enters the
campaign's mutation queue.

Mutant seeds stay inside the absolute-seed reproduction contract via an
arithmetic encoding: ``mutant_seed(parent, slot) = MUTANT_BASE +
parent * MUTANT_SLOTS + slot``.  Any tool that sees such a seed (the CLI's
``parcoach fuzz --seeds 1 --seed S``) can :func:`decode_mutant` it —
recursively, since a parent may itself be a mutant — and rebuild the exact
program from public pieces (``program_for_seed`` in
:mod:`repro.fuzz.campaign`).  No corpus file or queue state is needed to
reproduce a finding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..minilang import ast_nodes as A
from ..minilang.parser import parse_program
from ..mpi.collectives import is_collective
from ..util.probe import bucket

#: Seeds at or above this value are mutant encodings, not fresh seeds.
#: ``1 << 62`` leaves the entire practical fresh-seed range (and every
#: CLI ``--seed`` anyone would type) untouched below it.
MUTANT_BASE = 1 << 62

#: Maximum mutation slots per parent — the energy ceiling.
MUTANT_SLOTS = 16


def mutant_seed(parent: int, slot: int) -> int:
    """Encode mutation ``slot`` (0-based) of ``parent`` as one integer
    seed.  ``parent`` may itself be a mutant seed (mutants of mutants)."""
    if not 0 <= slot < MUTANT_SLOTS:
        raise ValueError(f"mutation slot {slot} out of range "
                         f"[0, {MUTANT_SLOTS})")
    if parent < 0:
        raise ValueError(f"negative parent seed {parent}")
    return MUTANT_BASE + parent * MUTANT_SLOTS + slot


def is_mutant_seed(seed: int) -> bool:
    return seed >= MUTANT_BASE


def decode_mutant(seed: int) -> Tuple[int, int]:
    """Inverse of :func:`mutant_seed` → ``(parent, slot)``."""
    if not is_mutant_seed(seed):
        raise ValueError(f"{seed} is not a mutant seed")
    offset = seed - MUTANT_BASE
    return offset // MUTANT_SLOTS, offset % MUTANT_SLOTS


def mutation_rounds(slot: int) -> int:
    """How many mutation rounds slot ``slot`` applies (1–3): low slots
    stay close to the parent, higher slots perturb harder."""
    return 1 + slot % 3


def mutation_seed(parent: int, slot: int) -> int:
    """The RNG seed handed to ``mutate()`` for ``(parent, slot)`` —
    decorrelated from the parent's own generation stream."""
    return (parent * 2_654_435_761 + slot * 40_503 + 0x9E3779B9) & ((1 << 63) - 1)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageSignature:
    """A seed's deterministic coverage fingerprint: the sorted feature
    tuple plus its digest (what the checkpoint and dedupe store)."""

    features: Tuple[str, ...]

    @property
    def digest(self) -> str:
        h = hashlib.sha256("\n".join(self.features).encode("utf-8"))
        return h.hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.features)


def probe_features(counts: Dict[str, int]) -> List[str]:
    """Bucket raw probe counters into coverage features
    (``name#b<bucket>``)."""
    return [f"{name}#b{bucket(n)}" for name, n in counts.items() if n > 0]


def signature_for(counts: Dict[str, int],
                  source: Optional[str] = None,
                  classification: Optional[str] = None) -> CoverageSignature:
    """Fold probe counters, the structural features of ``source`` and the
    oracle class into one signature (:func:`fold_signature`)."""
    features = source_features(source) if source is not None else ()
    return fold_signature(counts, features, classification)


def fold_signature(counts: Dict[str, int], features: Iterable[str],
                   classification: Optional[str] = None) -> CoverageSignature:
    """Fold probe counters, structural features (:func:`program_features`)
    and the oracle class into one signature."""
    feats: Set[str] = set(probe_features(counts))
    feats.update(features)
    if classification is not None:
        feats.add("oracle:" + classification)
    return CoverageSignature(features=tuple(sorted(feats)))


# ---------------------------------------------------------------------------
# Structural source features
# ---------------------------------------------------------------------------

def source_features(source: str) -> List[str]:
    """Parse ``source`` and walk it (:func:`program_features`).
    Unparseable sources collapse to a single feature (the parse failure is
    itself one behaviour class)."""
    try:
        program = parse_program(source, "<coverage>")
    except Exception:  # noqa: BLE001 - one bucket for all parse failures
        return ["src:unparsed"]
    return program_features(program)


def program_features(program: A.Program) -> List[str]:
    """Walk a parsed program into structural coverage features.

    This is the half of the signature that works for *any* program —
    mutants in particular, which never re-ran the instrumented generator.
    The fuzz seed body walks the checked AST before the oracle instruments
    it."""
    feats: Set[str] = set()
    counts: Dict[str, int] = {}

    def tick(name: str) -> None:
        counts[name] = counts.get(name, 0) + 1

    def region_tag(stack: Tuple[str, ...]) -> str:
        return ".".join(stack) if stack else "top"

    def walk_expr(expr: A.Expr, stack: Tuple[str, ...]) -> None:
        if isinstance(expr, A.Call):
            if is_collective(expr.name):
                feats.add(f"src:coll:{expr.name}@{region_tag(stack)}")
                tick("coll")
            else:
                tick("call-expr")
            if expr.name == "MPI_Init_thread" and expr.args:
                arg = expr.args[0]
                if isinstance(arg, A.IntLit):
                    feats.add(f"src:init-level:{arg.value}")
            for arg in expr.args:
                walk_expr(arg, stack)
        elif isinstance(expr, A.BinOp):
            feats.add(f"src:op:{expr.op}")
            walk_expr(expr.left, stack)
            walk_expr(expr.right, stack)
        elif isinstance(expr, A.UnaryOp):
            walk_expr(expr.operand, stack)
        elif isinstance(expr, A.ArrayRef):
            walk_expr(expr.index, stack)

    def enter(stack: Tuple[str, ...], tag: str) -> Tuple[str, ...]:
        if stack:
            feats.add(f"src:nest:{stack[-1]}>{tag}")
        # Keep the last three region tags: deep stacks collapse instead of
        # minting unbounded features.
        return (stack + (tag,))[-3:]

    def walk_stmt(stmt: A.Stmt, stack: Tuple[str, ...]) -> None:
        if isinstance(stmt, A.Block):
            for s in stmt.stmts:
                walk_stmt(s, stack)
        elif isinstance(stmt, (A.VarDecl, A.Assign, A.ExprStmt, A.Return)):
            tick(type(stmt).__name__.lower())
            for attr in ("init", "value", "expr"):
                sub = getattr(stmt, attr, None)
                if isinstance(sub, A.Expr):
                    walk_expr(sub, stack)
            if isinstance(stmt, A.ExprStmt) and isinstance(stmt.expr, A.Call):
                if not is_collective(stmt.expr.name):
                    tick("call-stmt")
        elif isinstance(stmt, A.If):
            tick("if")
            feats.add("src:guard" + ("+else" if stmt.else_body else ""))
            walk_expr(stmt.cond, stack)
            walk_stmt(stmt.then_body, enter(stack, "if"))
            if stmt.else_body is not None:
                walk_stmt(stmt.else_body, enter(stack, "if"))
        elif isinstance(stmt, (A.While, A.For)):
            tick("loop")
            if isinstance(stmt, A.For) and stmt.init is not None:
                walk_stmt(stmt.init, stack)
            if stmt.cond is not None:
                walk_expr(stmt.cond, stack)
            walk_stmt(stmt.body, enter(stack, "loop"))
        elif isinstance(stmt, (A.Break, A.Continue)):
            tick(type(stmt).__name__.lower())
        elif isinstance(stmt, A.OmpParallel):
            tick("parallel")
            walk_stmt(stmt.body, enter(stack, "par"))
        elif isinstance(stmt, A.OmpSingle):
            tick("single")
            walk_stmt(stmt.body, enter(stack, "single"))
        elif isinstance(stmt, A.OmpMaster):
            tick("master")
            walk_stmt(stmt.body, enter(stack, "master"))
        elif isinstance(stmt, A.OmpCritical):
            tick("critical")
            walk_stmt(stmt.body, enter(stack, "critical"))
        elif isinstance(stmt, A.OmpBarrier):
            tick("omp-barrier")
            feats.add(f"src:ompbar@{region_tag(stack)}")
        elif isinstance(stmt, A.OmpFor):
            tick("omp-for")
            walk_stmt(stmt.loop.body, enter(stack, "ws"))
        elif isinstance(stmt, A.OmpSections):
            tick("sections")
            for sec in stmt.sections:
                walk_stmt(sec, enter(stack, "ws"))
        elif isinstance(stmt, A.OmpTask):
            tick("task")
            walk_stmt(stmt.body, enter(stack, "task"))

    for func in program.funcs:
        walk_stmt(func.body, ())
    feats.add(f"src:funcs#b{bucket(len(program.funcs))}")
    for name, n in counts.items():
        feats.add(f"src:{name}#b{bucket(n)}")
    return sorted(feats)


# ---------------------------------------------------------------------------
# The campaign-global coverage map
# ---------------------------------------------------------------------------


@dataclass
class CoverageMap:
    """Accumulated coverage over a campaign: feature → number of seeds
    that exhibited it, plus the set of distinct signature digests."""

    features: Dict[str, int] = field(default_factory=dict)
    signatures: Set[str] = field(default_factory=set)

    def observe(self, sig: CoverageSignature) -> int:
        """Fold one signature in; returns how many *new* features it
        contributed (the seed's coverage gain → its mutation energy)."""
        new = 0
        for feat in sig.features:
            if feat not in self.features:
                new += 1
            self.features[feat] = self.features.get(feat, 0) + 1
        self.signatures.add(sig.digest)
        return new

    @property
    def feature_count(self) -> int:
        return len(self.features)

    @property
    def distinct_signatures(self) -> int:
        return len(self.signatures)

    def as_dict(self) -> Dict[str, object]:
        return {
            "features": dict(sorted(self.features.items())),
            "signatures": sorted(self.signatures),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CoverageMap":
        return cls(features=dict(data.get("features", {})),
                   signatures=set(data.get("signatures", ())))


def energy_for(new_features: int, new_signature: bool = False) -> int:
    """Mutation slots earned by one seed — AFL's "interesting inputs get
    more fuzz time".  New *features* scale energy up to
    :data:`MUTANT_SLOTS`; a merely new feature *combination* (a fresh
    signature over known features) earns a small constant so the queue
    keeps probing recombinations after the feature space saturates."""
    if new_features > 0:
        return min(MUTANT_SLOTS, 1 + new_features // 2)
    if new_signature:
        return 2
    return 0


def normalize_finding(classification: str, verdict) -> Dict[str, object]:
    """Project an :class:`~repro.fuzz.oracle.OracleVerdict` onto its
    *behaviour*, dropping seed-specific noise, so two seeds hitting the
    same bug fingerprint identically.

    Kept: the classification, the static diagnostic codes per mode, the
    dynamic verdict *classes* (text before any ``[`` detail payload), the
    explored failure classes, and a digit-stripped crash detail (line
    numbers, uids and pointers vary per seed; the exception shape does
    not)."""
    def verdict_class(text: object) -> str:
        return str(text or "").split("[", 1)[0].strip()

    def strip_noise(text: object) -> str:
        out: List[str] = []
        for ch in str(text or ""):
            if ch.isdigit():
                if out and out[-1] == "#":
                    continue
                out.append("#")
            else:
                out.append(ch)
        return "".join(out)

    return {
        "classification": classification,
        "static_interproc": sorted(verdict.static_interproc),
        "static_intraproc": sorted(verdict.static_intraproc),
        "raw": verdict_class(verdict.raw_verdict),
        "instrumented": verdict_class(verdict.instrumented_verdict),
        "explored_classes": sorted(
            {verdict_class(c) for c in verdict.explored_classes}),
        "crash": strip_noise(verdict.crash_detail),
    }


def finding_fingerprint_for(classification: str, verdict) -> str:
    """Deduplication key: the Report-IR style fingerprint (sha256[:16] of
    canonical JSON) of the normalized finding."""
    payload = normalize_finding(classification, verdict)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


__all__ = [
    "MUTANT_BASE",
    "MUTANT_SLOTS",
    "CoverageMap",
    "CoverageSignature",
    "decode_mutant",
    "energy_for",
    "finding_fingerprint_for",
    "fold_signature",
    "is_mutant_seed",
    "mutant_seed",
    "mutation_rounds",
    "mutation_seed",
    "normalize_finding",
    "probe_features",
    "program_features",
    "signature_for",
    "source_features",
]
