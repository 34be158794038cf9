"""Fuzz campaign driver: seeds → programs → oracle verdicts → report.

One *seed* is one reproducible experiment: seed ``s`` deterministically
yields a generated program (and, for every fourth seed, a mutant of it —
the mutator is part of the tested surface), whose differential-oracle
verdict depends only on ``(s, GenConfig, OracleConfig)``.  A campaign runs
a seed range, optionally fans seeds out to worker processes (results are
merged in seed order, so the report is identical for any ``jobs``), stops
at a wall-clock budget, and can ddmin-shrink every disagreement into a
corpus directory.

Reproduction contract: any finding of
``parcoach fuzz --seeds N --seed S`` is reproducible alone via
``parcoach fuzz --seeds 1 --seed <failing seed>`` — generation is keyed on
the absolute seed value, never on the position inside the campaign.
Coverage-guided mutants keep the contract through the arithmetic seed
encoding of :mod:`repro.fuzz.coverage` (``seed >= MUTANT_BASE`` decodes to
``(parent, slot)``), so a mutant finding is still one integer.

Coverage mode (``--coverage``, see ``docs/fuzzing.md``): every seed body
collects a deterministic coverage signature; seeds whose signature adds
new features to the campaign's :class:`~repro.fuzz.coverage.CoverageMap`
earn energy and their mutants enter a bounded queue.  Scheduling is
wave-based with a *constant* wave width (independent of ``jobs``), waves
interleave queue drains with fresh seeds, and results are folded in wave
order — so serial and parallel campaigns produce byte-identical reports,
and a mid-wave kill resumes exactly (the checkpoint stores the in-flight
wave).  Findings are deduplicated by normalized-verdict fingerprint: a
campaign reports *distinct* bugs, not distinct seeds.

Survivability (see ``docs/resilience.md``): ``seed_timeout`` caps one
seed's wall clock — a hung seed is classified ``crash`` with a ``timeout``
detail and the campaign continues, while the abandoned body thread is
*quarantined* (its fault-site activity suppressed) so a zombie cannot
poison later seeds sharing its process; ``checkpoint``/``resume`` persist
the running tally (schema v2: tally + coverage map + mutation queue +
dedupe set + accumulated elapsed) after every completed seed, so a killed
campaign restarts exactly where it stopped and ends with the identical
final tally *and* elapsed accounting.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..minilang import ast_nodes as A
from ..util.faultinject import fault_site, quarantine_thread, release_quarantine
from ..util.probe import collecting
from .coverage import (
    CoverageMap,
    CoverageSignature,
    decode_mutant,
    energy_for,
    finding_fingerprint_for,
    fold_signature,
    is_mutant_seed,
    mutant_seed,
    mutation_rounds,
    mutation_seed,
    program_features,
)
from .generator import GenConfig, GeneratorError, generate_checked, mutate_checked
from .oracle import (
    AGREE,
    CRASH,
    STATIC_MISS,
    STATIC_OVERAPPROX,
    OracleConfig,
    OracleVerdict,
    run_oracle_checked,
)
from .reduce import reduce_counterexample, write_counterexample

#: Every fourth seed fuzzes the mutator too: the generated program is
#: perturbed once before being fed to the oracle.
MUTANT_STRIDE = 4

#: Coverage-mode wave width.  Deliberately constant (never derived from
#: ``jobs``): the wave is the scheduling quantum, and keeping it fixed
#: makes serial and parallel campaigns byte-identical.
WAVE_WIDTH = 8

#: At most this many queued mutants per wave — the rest of the wave is
#: fresh seeds, so the queue can never starve exploration.
WAVE_QUEUE_SHARE = WAVE_WIDTH // 2

#: Mutation-queue bound; beyond it, earned energy is dropped (counted in
#: ``queue_overflow``) instead of growing the checkpoint without limit.
QUEUE_LIMIT = 512


def program_for_seed(seed: int, config: GenConfig = GenConfig()) -> str:
    """The deterministic program text for one absolute seed value."""
    return checked_program_for_seed(seed, config)[0]


def checked_program_for_seed(seed: int, config: GenConfig = GenConfig()
                             ) -> Tuple[str, A.Program]:
    """The program text for one absolute seed value and its checked AST.

    Mutant-encoded seeds (``seed >= MUTANT_BASE``) decode to
    ``(parent, slot)`` — recursively, a parent may itself be a mutant —
    and apply slot-derived mutation rounds to the parent's program, so the
    CLI reproduces coverage-queue mutants from the integer alone."""
    if is_mutant_seed(seed):
        parent, slot = decode_mutant(seed)
        source, program = checked_program_for_seed(parent, config)
        return mutate_checked(source, program, mutation_seed(parent, slot),
                              rounds=mutation_rounds(slot))
    source, program = generate_checked(seed, config)
    if seed % MUTANT_STRIDE == MUTANT_STRIDE - 1:
        source, program = mutate_checked(source, program, seed)
    return source, program


@dataclass
class SeedOutcome:
    """One seed's program + verdict (kept only for non-``agree`` seeds and
    for statistics)."""

    seed: int
    classification: str
    verdict: OracleVerdict
    source: str
    #: Coverage-mode only: the seed's deterministic coverage signature.
    signature: Optional[CoverageSignature] = None

    @property
    def repro(self) -> str:
        return f"parcoach fuzz --seeds 1 --seed {self.seed}"


@dataclass
class FuzzReport:
    """Aggregate of one campaign."""

    requested: int
    base_seed: int
    completed: int = 0
    counts: Counter = field(default_factory=Counter)
    #: static-miss / crash outcomes (the disagreements; coverage mode keeps
    #: one representative per distinct finding fingerprint).
    disagreements: List[SeedOutcome] = field(default_factory=list)
    #: static-overapprox seeds (allowed, tracked for the precision metric).
    overapprox_seeds: List[int] = field(default_factory=list)
    elapsed: float = 0.0
    budget_hit: bool = False
    #: (corpus name, path) pairs written by --shrink.
    reduced: List[Tuple[str, str]] = field(default_factory=list)
    # -- coverage mode state (None / empty in classic mode) ----------------
    coverage_map: Optional[CoverageMap] = None
    #: fingerprint -> {"seed", "classification", "count"} (first seed wins).
    dedupe: Dict[str, dict] = field(default_factory=dict)
    #: Disagreement outcomes suppressed as duplicates of a known finding.
    duplicates: int = 0
    #: Pending mutant seeds (already encoded), FIFO.
    queue: List[int] = field(default_factory=list)
    #: The in-flight wave and how many of its results were folded in —
    #: persisted so a mid-wave kill resumes with the identical schedule.
    wave: List[int] = field(default_factory=list)
    wave_done: int = 0
    #: Next fresh (non-mutant) seed value to schedule.
    next_fresh: Optional[int] = None
    #: Energy discarded because the mutation queue was full.
    queue_overflow: int = 0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def distinct_findings(self) -> int:
        return len(self.dedupe)

    def exit_code(self) -> int:
        """CLI contract: 2 for internal errors (crash), 1 for findings
        (static-miss), 0 otherwise."""
        if self.counts.get(CRASH, 0):
            return 2
        if self.counts.get(STATIC_MISS, 0):
            return 1
        return 0

    def summary(self) -> str:
        rate = self.completed / self.elapsed if self.elapsed > 0 else 0.0
        parts = [f"{self.completed}/{self.requested} seeds"
                 + (" (budget hit)" if self.budget_hit else "")
                 + f" from seed {self.base_seed}:"]
        for cls in (AGREE, STATIC_OVERAPPROX, STATIC_MISS, CRASH):
            if self.counts.get(cls, 0):
                parts.append(f"{cls} {self.counts[cls]}")
        parts.append(f"({rate:.1f} programs/s)")
        if self.coverage_map is not None:
            parts.append(
                f"[coverage: {self.coverage_map.feature_count} features, "
                f"{self.coverage_map.distinct_signatures} signatures, "
                f"{self.distinct_findings} distinct findings"
                + (f", {self.duplicates} duplicates" if self.duplicates
                   else "") + "]")
        return " ".join(parts)


def _call_with_timeout(fn, timeout: Optional[float]):
    """Run ``fn()`` under a wall-clock cap.  Returns ``(result, False)``, or
    ``(None, True)`` on timeout.  The body runs in a daemon thread so a
    genuinely hung body (livelock, injected ``hang``) cannot keep the
    process alive — the same mechanism works serially and inside pool
    workers, where per-task process kills are not available.

    A timed-out body thread cannot be killed: it keeps running until its
    hang resolves, sharing the process (and its fault-injection plan) with
    every later seed on this worker.  The timeout path therefore
    *quarantines* the zombie's thread ident — its ``fault_site`` calls
    become no-ops, so it can neither advance the shared hit counters nor
    trigger faults scheduled for live seeds.  A fresh body thread that
    happens to reuse a quarantined ident (idents are recycled once the
    zombie finally exits) lifts the quarantine on entry."""
    if timeout is None:
        return fn(), False
    box: dict = {}

    def body() -> None:
        release_quarantine(threading.get_ident())
        try:
            box["result"] = fn()
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc

    worker = threading.Thread(target=body, daemon=True)
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        quarantine_thread(worker.ident)
        return None, True
    if "error" in box:
        raise box["error"]
    return box["result"], False


def fuzz_one(seed: int,
             gen_config: GenConfig = GenConfig(),
             oracle_config: OracleConfig = OracleConfig(),
             seed_timeout: Optional[float] = None,
             coverage: bool = False,
             dry_run: bool = False) -> SeedOutcome:
    """Generate + cross-check one seed (the worker body).

    Any failure mode of the seed body — generator error, internal
    exception, or exceeding ``seed_timeout`` — is classified ``crash``
    with a detail string; one bad seed never kills the campaign.

    ``coverage`` collects the seed's coverage signature: a probe sink is
    installed *inside the body thread* (sinks are thread-local, so probes
    from rank threads or an earlier zombie can never leak in), generation
    and analysis probes are folded with structural source features and the
    oracle class.  ``dry_run`` skips the oracle (stub ``agree`` verdict) —
    the campaign scheduler runs at generator speed, which is what the
    coverage-vs-open-loop acceptance test measures."""

    def run_body() -> Tuple[str, List[str], OracleVerdict]:
        fault_site("fuzz.seed")
        source, program = checked_program_for_seed(seed, gen_config)
        # Walked before the oracle instruments ``program`` in place.
        features = program_features(program) if coverage else []
        if dry_run:
            return source, features, OracleVerdict(classification=AGREE)
        return source, features, run_oracle_checked(program, oracle_config)

    def body():
        if not coverage:
            source, _, verdict = run_body()
            return source, verdict, None
        with collecting() as counts:
            source, features, verdict = run_body()
        return source, verdict, fold_signature(counts, features,
                                               verdict.classification)

    def crash_outcome(detail: str) -> SeedOutcome:
        verdict = OracleVerdict(classification=CRASH, crash_detail=detail)
        sig = fold_signature({}, (), CRASH) if coverage else None
        return SeedOutcome(seed=seed, classification=CRASH, verdict=verdict,
                           source="", signature=sig)

    try:
        result, timed_out = _call_with_timeout(body, seed_timeout)
    except GeneratorError as exc:
        return crash_outcome(f"generator: {exc}")
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        return crash_outcome(f"seed body: {type(exc).__name__}: {exc}")
    if timed_out:
        return crash_outcome(f"timeout: seed exceeded {seed_timeout:g}s")
    source, verdict, sig = result
    return SeedOutcome(seed=seed, classification=verdict.classification,
                       verdict=verdict, source=source, signature=sig)


def _fuzz_seed_task(payload: Tuple[int, GenConfig, OracleConfig,
                                   Optional[float], bool, bool]
                    ) -> Tuple[int, str, dict, str, Optional[List[str]]]:
    """Process-pool entry point (top level so it pickles).  The signature
    travels as its sorted feature list — workers never see the campaign's
    coverage map, so their results are position-independent."""
    seed, gen_config, oracle_config, seed_timeout, coverage, dry_run = payload
    outcome = fuzz_one(seed, gen_config, oracle_config,
                       seed_timeout=seed_timeout, coverage=coverage,
                       dry_run=dry_run)
    features = (list(outcome.signature.features)
                if outcome.signature is not None else None)
    return (outcome.seed, outcome.classification, outcome.verdict.as_dict(),
            outcome.source, features)


#: Checkpoint file schema version (bump on incompatible change).
#: v1 (pre-coverage) stored only the tally; v2 adds accumulated elapsed,
#: the coverage map, the mutation queue + in-flight wave, and the dedupe
#: set.  v1 files are rejected with a clear message — their elapsed
#: accounting was wrong anyway (the resumed-elapsed bug this version
#: fixes), so silently upgrading would persist a lie.
CHECKPOINT_VERSION = 2


def _checkpoint_doc(report: FuzzReport) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "base_seed": report.base_seed,
        "requested": report.requested,
        "completed": report.completed,
        "counts": dict(report.counts),
        "disagreements": [
            {"seed": o.seed, "classification": o.classification,
             "verdict": o.verdict.as_dict(), "has_source": bool(o.source)}
            for o in report.disagreements
        ],
        "overapprox_seeds": list(report.overapprox_seeds),
        "elapsed": report.elapsed,
        "coverage": (report.coverage_map.as_dict()
                     if report.coverage_map is not None else None),
        "dedupe": report.dedupe,
        "duplicates": report.duplicates,
        "queue": list(report.queue),
        "wave": list(report.wave),
        "wave_done": report.wave_done,
        "next_fresh": report.next_fresh,
        "queue_overflow": report.queue_overflow,
    }


def write_checkpoint(path: str, report: FuzzReport) -> None:
    """Atomically persist the campaign tally (write-temp + rename, so a
    kill mid-write leaves the previous checkpoint intact)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(_checkpoint_doc(report), handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def load_checkpoint(path: str, seeds: int, base_seed: int,
                    gen_config: GenConfig = GenConfig()) -> FuzzReport:
    """Rebuild a partial :class:`FuzzReport` from a checkpoint.

    Disagreement *sources* are not stored — they are regenerated from the
    absolute seed, which is the reproduction contract anyway (and decodes
    mutant seeds).  Raises ``ValueError`` when the checkpoint belongs to a
    different campaign (seed range mismatch) or an older schema version —
    resuming it would silently mix tallies."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        hint = ""
        if version == 1:
            hint = (" (schema v1 predates coverage-guided campaigns and "
                    "carries no accumulated elapsed; delete the file and "
                    "restart the campaign — see docs/fuzzing.md)")
        raise ValueError(f"checkpoint {path}: unsupported version "
                         f"{version!r}, expected {CHECKPOINT_VERSION}{hint}")
    if doc.get("base_seed") != base_seed or doc.get("requested") != seeds:
        raise ValueError(
            f"checkpoint {path} is for seeds {doc.get('base_seed')}+"
            f"{doc.get('requested')}, not {base_seed}+{seeds}")
    report = FuzzReport(requested=seeds, base_seed=base_seed)
    report.completed = int(doc.get("completed", 0))
    report.counts = Counter({str(k): int(v)
                             for k, v in doc.get("counts", {}).items()})
    report.overapprox_seeds = [int(s)
                               for s in doc.get("overapprox_seeds", [])]
    report.elapsed = float(doc.get("elapsed", 0.0))
    if doc.get("coverage") is not None:
        report.coverage_map = CoverageMap.from_dict(doc["coverage"])
    report.dedupe = {str(k): dict(v)
                     for k, v in (doc.get("dedupe") or {}).items()}
    report.duplicates = int(doc.get("duplicates", 0))
    report.queue = [int(s) for s in doc.get("queue", [])]
    report.wave = [int(s) for s in doc.get("wave", [])]
    report.wave_done = int(doc.get("wave_done", 0))
    nf = doc.get("next_fresh")
    report.next_fresh = int(nf) if nf is not None else None
    report.queue_overflow = int(doc.get("queue_overflow", 0))
    for entry in doc.get("disagreements", []):
        source = ""
        if entry.get("has_source"):
            try:
                source = program_for_seed(int(entry["seed"]), gen_config)
            except Exception:
                source = ""
        report.disagreements.append(SeedOutcome(
            seed=int(entry["seed"]),
            classification=str(entry["classification"]),
            verdict=OracleVerdict.from_dict(entry["verdict"]),
            source=source))
    return report


def run_fuzz(
    seeds: int,
    base_seed: int = 0,
    gen_config: GenConfig = GenConfig(),
    oracle_config: OracleConfig = OracleConfig(),
    budget: Optional[float] = None,
    jobs: int = 1,
    shrink: bool = False,
    corpus_dir: Optional[str] = None,
    shrink_budget: int = 250,
    progress=None,
    seed_timeout: Optional[float] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    coverage: bool = False,
    dry_run: bool = False,
) -> FuzzReport:
    """Run the campaign: ``seeds`` seed bodies starting at ``base_seed``.

    Classic (open-loop) mode runs exactly the seeds ``base_seed ..
    base_seed + seeds - 1``.  Coverage mode (``coverage=True``) runs the
    same *number* of seed bodies, but interleaves fresh seeds with
    mutation-queue drains (energy earned by coverage gain, see
    :mod:`repro.fuzz.coverage`); mutants carry encoded seeds ≥
    ``MUTANT_BASE`` and remain individually reproducible.

    ``budget`` caps wall-clock seconds (checked between seeds; with
    ``jobs > 1`` the queued work is cancelled and only in-flight chunks
    finish).  ``jobs > 1`` fans seeds out to worker processes;
    ``corpus_dir`` implies ``shrink`` — each disagreement is ddmin-reduced
    and the ``.mini``/``.json`` pair persisted there.  ``progress`` is an
    optional callable receiving each :class:`SeedOutcome` as it completes
    (CLI verbose mode); it fires at most once per seed even across the
    broken-pool fallback.

    ``seed_timeout`` caps one seed's wall clock (timed-out seeds classify
    ``crash`` with a ``timeout`` detail, their zombie body thread is
    quarantined, and the campaign continues).  ``checkpoint`` persists the
    tally after every completed seed; ``resume`` restores it and runs only
    the remaining seeds — because outcomes are seed-deterministic and the
    schedule state (queue, in-flight wave, next fresh seed) is persisted,
    a resumed campaign's final tally *and accumulated elapsed* are
    identical to an uninterrupted one's.  ``dry_run`` stubs the oracle
    (every seed classifies ``agree``) for scheduler-speed experiments."""
    if corpus_dir is not None:
        shrink = True

    def fresh_report() -> FuzzReport:
        if resume and checkpoint is not None and os.path.exists(checkpoint):
            loaded = load_checkpoint(checkpoint, seeds, base_seed, gen_config)
            if coverage != (loaded.coverage_map is not None):
                have = "with" if loaded.coverage_map is not None else "without"
                want = "with" if coverage else "without"
                raise ValueError(
                    f"checkpoint {checkpoint} was written {have} --coverage; "
                    f"this campaign runs {want} it")
            return loaded
        report = FuzzReport(requested=seeds, base_seed=base_seed)
        if coverage:
            report.coverage_map = CoverageMap()
            report.next_fresh = base_seed
        return report

    report = fresh_report()
    prior_elapsed = report.elapsed
    start = time.monotonic()
    reported: set = set()

    def note(outcome: SeedOutcome) -> None:
        report.completed += 1
        report.counts[outcome.classification] += 1
        if report.wave:
            report.wave_done += 1
        keep = True
        if outcome.classification in (STATIC_MISS, CRASH,
                                      STATIC_OVERAPPROX):
            if report.coverage_map is not None:
                fp = finding_fingerprint_for(outcome.classification,
                                             outcome.verdict)
                known = report.dedupe.get(fp)
                if known is not None:
                    known["count"] = int(known.get("count", 1)) + 1
                    report.duplicates += 1
                    keep = False
                else:
                    report.dedupe[fp] = {
                        "seed": outcome.seed,
                        "classification": outcome.classification,
                        "count": 1,
                    }
        if outcome.classification in (STATIC_MISS, CRASH):
            if keep:
                report.disagreements.append(outcome)
        elif outcome.classification == STATIC_OVERAPPROX:
            report.overapprox_seeds.append(outcome.seed)
        if report.coverage_map is not None and outcome.signature is not None:
            new_sig = (outcome.signature.digest
                       not in report.coverage_map.signatures)
            new = report.coverage_map.observe(outcome.signature)
            for slot in range(energy_for(new, new_sig)):
                if len(report.queue) >= QUEUE_LIMIT:
                    report.queue_overflow += 1
                    continue
                report.queue.append(mutant_seed(outcome.seed, slot))
        report.elapsed = prior_elapsed + (time.monotonic() - start)
        if checkpoint is not None:
            write_checkpoint(checkpoint, report)
        if progress is not None and outcome.seed not in reported:
            reported.add(outcome.seed)
            progress(outcome)

    def out_of_budget() -> bool:
        return budget is not None and time.monotonic() - start >= budget

    if coverage:
        _run_coverage_waves(report, seeds, jobs, gen_config, oracle_config,
                            seed_timeout, dry_run, note, out_of_budget)
    elif jobs > 1 and seeds - report.completed > 1:
        seed_list = list(range(base_seed + report.completed,
                               base_seed + seeds))
        chunk = max(1, min(8, len(seed_list) // (jobs * 4) or 1))
        pool = ProcessPoolExecutor(max_workers=jobs)
        try:
            payloads = [(s, gen_config, oracle_config, seed_timeout,
                         False, dry_run)
                        for s in seed_list]
            for seed, cls, verdict_dict, source, _feats in pool.map(
                    _fuzz_seed_task, payloads, chunksize=chunk):
                note(SeedOutcome(
                    seed=seed, classification=cls,
                    verdict=OracleVerdict.from_dict(verdict_dict),
                    source=source))
                if out_of_budget():
                    report.budget_hit = True
                    break
        except (BrokenProcessPool, OSError):
            # No usable pool on this platform: restart serially (seed
            # outcomes are deterministic, so a clean restart is cheapest;
            # `reported` keeps progress from firing twice per seed).  The
            # restart re-reads the checkpoint, which the pool attempt may
            # have advanced — continue from *its* tally, never re-counting.
            # Its stored elapsed already covers the pool segment, so the
            # segment clock restarts too (no double counting).
            report = fresh_report()
            prior_elapsed = report.elapsed
            if checkpoint is not None:
                start = time.monotonic()
            for seed in range(base_seed + report.completed,
                              base_seed + seeds):
                note(fuzz_one(seed, gen_config, oracle_config,
                              seed_timeout=seed_timeout, dry_run=dry_run))
                if out_of_budget():
                    report.budget_hit = True
                    break
        finally:
            # cancel_futures drops the queued chunks, so a budget break
            # returns after the in-flight work only instead of silently
            # running the whole campaign to completion.
            pool.shutdown(wait=False, cancel_futures=True)
    else:
        # Completed seeds are always a prefix of the range (serial order),
        # so resuming = skipping them.
        for seed in range(base_seed + report.completed, base_seed + seeds):
            note(fuzz_one(seed, gen_config, oracle_config,
                          seed_timeout=seed_timeout, dry_run=dry_run))
            if out_of_budget():
                report.budget_hit = True
                break

    # Deterministic ordering regardless of resume/fallback history.
    report.disagreements.sort(key=lambda o: o.seed)
    report.overapprox_seeds.sort()

    if shrink and report.disagreements:
        for outcome in report.disagreements:
            if not outcome.source:
                continue
            reduced = reduce_counterexample(
                outcome.source, outcome.verdict, oracle_config,
                budget=shrink_budget)
            outcome.source = reduced
            if corpus_dir is not None:
                name = f"seed{outcome.seed}_{outcome.classification}"
                paths = write_counterexample(
                    corpus_dir, name, reduced, outcome.verdict,
                    config=oracle_config, seed=outcome.seed,
                    note=f"reduced from {outcome.repro}")
                report.reduced.append((name, paths[0]))

    report.elapsed = prior_elapsed + (time.monotonic() - start)
    if checkpoint is not None:
        write_checkpoint(checkpoint, report)
    return report


def _run_coverage_waves(report: FuzzReport, seeds: int, jobs: int,
                        gen_config: GenConfig, oracle_config: OracleConfig,
                        seed_timeout: Optional[float], dry_run: bool,
                        note, out_of_budget) -> None:
    """The coverage-mode scheduler: fixed-width waves of queue mutants +
    fresh seeds, run serially or over a process pool, folded in wave
    order.  Mutates ``report`` only through ``note`` plus the schedule
    fields (queue/wave/next_fresh), which ``note`` checkpoints."""

    def form_wave() -> List[int]:
        room = seeds - report.completed
        if room <= 0:
            return []
        size = min(WAVE_WIDTH, room)
        wave: List[int] = []
        take = min(len(report.queue), WAVE_QUEUE_SHARE, size)
        for _ in range(take):
            wave.append(report.queue.pop(0))
        while len(wave) < size:
            wave.append(report.next_fresh)
            report.next_fresh += 1
        return wave

    def run_wave_serial(pending: List[int]) -> bool:
        for seed in pending:
            note(fuzz_one(seed, gen_config, oracle_config,
                          seed_timeout=seed_timeout, coverage=True,
                          dry_run=dry_run))
            if out_of_budget():
                report.budget_hit = True
                return False
        return True

    pool: Optional[ProcessPoolExecutor] = None

    def run_wave_pool(pending: List[int]) -> bool:
        nonlocal pool
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=jobs)
        saw_timeout = False
        payloads = [(s, gen_config, oracle_config, seed_timeout, True,
                     dry_run) for s in pending]
        for seed, cls, verdict_dict, source, feats in pool.map(
                _fuzz_seed_task, payloads, chunksize=1):
            sig = (CoverageSignature(features=tuple(feats))
                   if feats is not None else None)
            verdict = OracleVerdict.from_dict(verdict_dict)
            if verdict.crash_detail.startswith("timeout:"):
                saw_timeout = True
            note(SeedOutcome(seed=seed, classification=cls, verdict=verdict,
                             source=source, signature=sig))
            if out_of_budget():
                report.budget_hit = True
                return False
        if saw_timeout:
            # A timed-out seed left a quarantined zombie thread inside
            # some worker; the quarantine keeps it harmless, but recycling
            # the pool between waves sheds the busy-waiting thread too.
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        return True

    use_pool = jobs > 1
    try:
        while True:
            # Resume path: finish the persisted in-flight wave first.
            pending = report.wave[report.wave_done:]
            if not pending:
                report.wave = form_wave()
                report.wave_done = 0
                pending = report.wave
            if not pending:
                break
            if use_pool:
                try:
                    if not run_wave_pool(pending):
                        return
                except (BrokenProcessPool, OSError):
                    # Same fallback contract as classic mode: the noted
                    # prefix is checkpointed; rerun the remainder of this
                    # wave serially and stay serial from here on.
                    use_pool = False
                    if pool is not None:
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
                    if not run_wave_serial(report.wave[report.wave_done:]):
                        return
            else:
                if not run_wave_serial(pending):
                    return
            if out_of_budget():
                report.budget_hit = True
                return
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
