"""The four workloads of the end-to-end benchmark, and one run of one of
them (:func:`run_workload`).

Each workload is one single-threaded client in a closed loop: the next
request is sent only when the previous one has returned.  Every input
derives from the run's seed.  The inputs come from generators under
``src/repro/bench`` and ``src/repro/fuzz``, so a change there would change
the workload while looking like a speed-up; each run therefore recomputes
the digest of its inputs at :data:`REFERENCE_SEED` and refuses to run
("workload changed") unless it matches the digest pinned in
``digests.json``.  ``python3 benchmarks/e2e/e2e_workloads.py`` prints the
current digests.

The correctness checks use answers known without running the code under
test: the gallery's recorded expectations, the generators' construction
(which functions are rank-guarded, which edits keep the finding count),
and byte identity between repeated, or warm and cold, answers.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import random
import re
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from e2e_core import REFERENCE_NS, SpeedProbe, Tally, peak_rss_mb, run_units
from e2e_trace import Tracer, install, layer_metrics

#: The seed whose inputs ``digests.json`` pins (and the default seed).
REFERENCE_SEED = 20150207

_DIGESTS = Path(__file__).with_name("digests.json")
_FUZZ_CORPUS = Path(__file__).with_name("fuzz_corpus.json")


class WorkloadChanged(Exception):
    """The generated inputs no longer match the pinned digest."""


def _sha256(parts: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def seeded_passes(tag: str, seed: int, keys: List,
                  repeats: Optional[Callable] = None) -> Iterator[List]:
    """Endless passes over ``keys``, each in a fresh seeded order.  From
    the second pass on, a key is sent ``repeats(key)`` times per pass when
    ``repeats`` is given (it is asked once the first pass was served)."""
    rng = random.Random(f"{tag}:{seed}")
    counts = dict.fromkeys(keys, 1)
    while True:
        order = [key for key in keys for _ in range(counts[key])]
        rng.shuffle(order)
        yield order
        if repeats is not None:
            counts = {key: repeats(key) for key in keys}


def fill_budget(passes: Iterator[List]) -> Iterator[List]:
    """Units for :func:`~e2e_core.run_units`: the first pass whole, so
    every key is sent at least once, then one request per unit, so a run
    uses all of its time.  Every key weighs the same in the metrics (see
    :class:`~e2e_core.Tally`), so a partial last pass shifts none of them;
    it only gives some keys one more repeat."""
    yield next(passes)
    for order in passes:
        for key in order:
            yield [key]


class Recorder:
    """Times each request inside a :class:`~e2e_core.SpeedProbe` (see
    :class:`~e2e_core.Tally`), and in a traced run opens and closes the
    request's root span at exactly the timed boundaries.

    It also reads the memory high-water mark once ``rss_after`` requests
    are recorded.  Memos grow with the number of requests served, so a
    reading at the end of the run would charge a faster program for the
    extra requests it fits into the same time."""

    def __init__(self, tally: Tally, tracer: Optional[Tracer],
                 rss_after: int = 0) -> None:
        self.tally = tally
        self.tracer = tracer
        self.rss_after = rss_after
        #: ``peak_rss_mb()`` once ``rss_after`` requests were recorded.
        self.rss_mb: Optional[float] = None
        self._speed = SpeedProbe()
        self._probe = float(REFERENCE_NS)
        self._elapsed = 0
        self._errors = 0

    def timed(self, call: Callable):
        """Run ``call()`` as one timed request; returns (result, raised)."""
        speed = self._speed
        speed.start()
        start = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.begin_request(start)
        try:
            return call(), False
        except Exception:  # noqa: BLE001 - a failed request, counted
            if self._errors < 3:
                traceback.print_exc(file=sys.stderr)
            self._errors += 1
            return None, True
        finally:
            now = time.perf_counter_ns()
            inside = speed.inside_ns
            if self.tracer is not None:
                self.tracer.end_request(now)
            speed.stop()
            self._elapsed = now - start - inside
            self._probe = speed.mean_ns

    def record(self, ok: bool, key) -> None:
        self.tally.record(self._elapsed, ok, key, self._probe)
        if self.tally.attempted == self.rss_after:
            self.rss_mb = peak_rss_mb()


class Workload:
    """One workload: set up in ``__init__``, then ``drive`` sends the
    requests; ``finish`` runs the post-run checks, ``counters`` reports
    work counts read from public state, ``close`` releases what set-up
    made.

    ``generate()`` builds the inputs that do not depend on the seed (set-up
    keeps them as ``self.generated``), and ``inputs(seed, generated)``
    lists everything the workload sends, for :func:`inputs_digest`."""

    name = ""
    #: Requests after which the memory high-water mark is read.
    rss_after = 0
    generated: object = None

    @classmethod
    def generate(cls):
        raise NotImplementedError

    @classmethod
    def inputs(cls, seed: int, generated) -> Iterator[str]:
        raise NotImplementedError

    def drive(self, budget_s: float, max_requests: Optional[int],
              rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self) -> bool:
        return True

    def counters(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# analyze-cold
# ---------------------------------------------------------------------------


class AnalyzeCold(Workload):
    """What ``parcoach analyze --json`` does after reading the file, over
    the Figure 1 sources, scale XL, calltree D32 and the 24 gallery cases,
    in seeded-shuffled passes.  The heap is collected before each request,
    outside the timed region, as a fresh process would start."""

    name = "analyze-cold"

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.bench import CASES

        self.seed = seed
        self.sources = self.generated = self.generate()
        self.rss_after = len(self.sources)
        self.expect_static = {
            f"gallery/{name}": {code.value for code in case.expect_static}
            for name, case in CASES.items()}
        #: program -> (sha256 of its first rendering, first answer right).
        self.first: Dict[str, Tuple[str, bool]] = {}

    @classmethod
    def generate(cls) -> Dict[str, str]:
        from repro.bench import CASES, benchmark_sources
        from repro.bench.scale import (CALLTREE_SIZES, SCALE_SIZES,
                                       make_calltree_program,
                                       make_scale_program)

        sources = dict(benchmark_sources())
        sources["scale-XL"] = make_scale_program(**SCALE_SIZES["XL"])
        sources["calltree-D32"] = make_calltree_program(
            **CALLTREE_SIZES["D32"])
        for name, case in CASES.items():
            sources[f"gallery/{name}"] = case.source
        return sources

    @classmethod
    def inputs(cls, seed: int, generated: Dict[str, str]) -> Iterator[str]:
        for name, source in generated.items():
            yield f"{name}\n{source}"
        passes = seeded_passes(cls.name, seed, list(generated))
        for _ in range(64):
            yield repr(next(passes))

    def request(self, name: str) -> str:
        from repro.core import driver, report
        from repro.minilang import parser, semantics

        source = self.sources[name]
        program = parser.parse_program(source, f"{name}.mc")
        errors = [issue for issue in semantics.check_program(program)
                  if issue.severity == "error"]
        if errors:
            raise ValueError(f"{name}: {errors[0]}")
        analysis = driver.analyze_program(program)
        return report.render_json(report.report_from_analysis(
            analysis, source_path=f"{name}.mc", source_text=source))

    def expected(self, name: str, doc: dict) -> bool:
        findings = doc["findings"]
        if name in self.expect_static:
            return self.expect_static[name] <= {f["code"] for f in findings}
        if name == "scale-XL":
            # make_scale_program rank-guards every 4th function.
            flagged = {f["function"] for f in findings
                       if f["code"] == "collective-mismatch"}
            return {f"compute_{i}" for i in range(0, 96, 4)} <= flagged
        if name == "calltree-D32":
            # Unconditional collectives; parallel levels wrap calls in single.
            return not findings
        # A Figure 1 benchmark: a warning naming a collective with its line.
        return any(f["severity"] == "warning" and f["collectives"]
                   and all(c["line"] > 0 for c in f["collectives"])
                   for f in findings)

    def check(self, name: str, out: str) -> bool:
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if name not in self.first:
            self.first[name] = (digest, self.expected(name, json.loads(out)))
        first_digest, first_ok = self.first[name]
        return first_ok and digest == first_digest

    def drive(self, budget_s: float, max_requests: Optional[int],
              rec: Recorder) -> None:
        def serve(name: str) -> None:
            gc.collect()
            out, raised = rec.timed(lambda: self.request(name))
            rec.record(not raised and self.check(name, out), name)

        run_units(fill_budget(seeded_passes(self.name, self.seed,
                                            list(self.sources))),
                  budget_s, max_requests, serve)


# ---------------------------------------------------------------------------
# project-edit
# ---------------------------------------------------------------------------

#: One block of edits: 55% constant rewrites, 30% comment toggles (the
#: line-offset patch path), 15% barrier toggles (a collective-summary flip
#: for every caller).  Blocks fix the mix exactly, whatever the run length.
EDIT_BLOCK = ("const",) * 11 + ("comment",) * 6 + ("barrier",) * 3

#: Golden-ratio step of the low-discrepancy target sequences: the edited
#: positions of any prefix of the script spread evenly over the project,
#: so the mix of shallow and deep call chains does not depend on the seed.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_MODULE_FILE = re.compile(r"m\d+\.mc")
_CONST_LINE = re.compile(r"^    v \+= (\d+);$", re.M)

Edit = Tuple[str, int, int, int]  # (kind, file index, function index, value)


class ProjectTree:
    """Text of a ``make_project`` tree under in-place edits: files never
    grow without bound, so the thousandth edit costs what the first did."""

    def __init__(self, files: Dict[str, str]) -> None:
        self.rels = sorted(rel for rel in files if _MODULE_FILE.fullmatch(rel))
        self.funcs = {rel: files[rel].rstrip("\n").split("\n\n")
                      for rel in self.rels}
        self.comment = {rel: False for rel in self.rels}
        self.const: Dict[Tuple[str, int], int] = {}
        self.barrier: set = set()

    def apply(self, edit: Edit) -> str:
        """Apply one edit; returns the relative path it rewrote."""
        kind, file_index, func_index, value = edit
        rel = self.rels[file_index]
        key = (rel, func_index)
        if kind == "const":
            self.const[key] = value
        elif kind == "comment":
            self.comment[rel] = not self.comment[rel]
        else:
            self.barrier ^= {key}
        return rel

    def render(self, rel: str) -> str:
        parts = []
        for j, text in enumerate(self.funcs[rel]):
            if (rel, j) in self.const:
                text = _CONST_LINE.sub(f"    v += {self.const[(rel, j)]};",
                                       text, count=1)
            if (rel, j) in self.barrier:
                text = _CONST_LINE.sub(
                    lambda m: m.group(0) + "\n    MPI_Barrier();", text,
                    count=1)
            parts.append(text)
        head = "// edited\n" if self.comment[rel] else ""
        return head + "\n\n".join(parts) + "\n"


def edit_blocks(seed: int, n_files: int,
                funcs_per_file: int) -> Iterator[List[Edit]]:
    """The seeded edit script, one shuffled :data:`EDIT_BLOCK` at a time."""
    rng = random.Random(f"project-edit:{seed}")
    phase = {kind: rng.random() for kind in ("const", "comment", "barrier")}
    step = {kind: 0 for kind in phase}

    def spot(kind: str, n: int) -> int:
        x = (phase[kind] + step[kind] * _GOLDEN) % 1.0
        step[kind] += 1
        return int(x * n)

    while True:
        block = list(EDIT_BLOCK)
        rng.shuffle(block)
        edits = []
        for kind in block:
            if kind == "comment":
                edits.append((kind, spot(kind, n_files), 0, 0))
            else:
                where = spot(kind, n_files * funcs_per_file)
                value = rng.randrange(1000) if kind == "const" else 0
                edits.append((kind, where // funcs_per_file,
                              where % funcs_per_file, value))
        yield edits


class ProjectEdit(Workload):
    """``parcoach project serve`` edit replies on the 1000-file generated
    project: an untimed file write, then ``update_file`` and the rendered
    delta report.  Set-up writes the tree and opens it cold."""

    name = "project-edit"
    N_FILES = 1000
    FUNCS_PER_FILE = 2
    #: Memory is read after this many edits (a slow host serves ~7,000).
    rss_after = 2000

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.bench import write_project
        from repro.project.session import ProjectSession

        self.seed = seed
        self.files = self.generated = self.generate()
        self.tree = ProjectTree(self.files)
        self.dir = tempfile.mkdtemp(prefix="project-", dir=workdir)
        self.session = None
        try:
            write_project(self.files, self.dir)
            self.session = ProjectSession(self.dir, store=False)
            first = self.session.update_all()
            if first.findings_total != 1:
                raise RuntimeError(f"cold open found {first.findings_total} "
                                   "findings, expected 1")
        except BaseException:
            self.close()
            raise
        self._start = self._end = self._snapshot()
        self.reanalyzed = 0

    @classmethod
    def generate(cls) -> Dict[str, str]:
        from repro.bench import make_project

        return make_project(n_files=cls.N_FILES,
                            funcs_per_file=cls.FUNCS_PER_FILE)

    @classmethod
    def inputs(cls, seed: int, generated: Dict[str, str]) -> Iterator[str]:
        for rel in sorted(generated):
            yield f"{rel}\n{generated[rel]}"
        blocks = edit_blocks(seed, cls.N_FILES, cls.FUNCS_PER_FILE)
        for _ in range(64):
            yield repr(next(blocks))

    def _snapshot(self) -> Dict[str, int]:
        stats = self.session.engine.stats
        return {
            "engine.hits": stats.hits, "engine.misses": stats.misses,
            "engine.remaps": stats.remaps,
            "engine.line_patches": stats.line_patches,
            "session.assembly_reuses": stats.assembly_reuses,
            "session.edges_recomputed": stats.edges_recomputed,
            "session.updates": self.session.updates,
            "session.fast_updates": self.session.fast_updates,
        }

    def drive(self, budget_s: float, max_requests: Optional[int],
              rec: Recorder) -> None:
        from repro.core import report

        position = itertools.count()

        def serve(edit: Edit) -> None:
            rel = self.tree.apply(edit)
            with open(os.path.join(self.dir, rel), "w",
                      encoding="utf-8") as handle:
                handle.write(self.tree.render(rel))

            def reply():
                delta = self.session.update_file(rel)
                report.render_json(delta.report)
                return delta

            delta, raised = rec.timed(reply)
            if not raised:
                self.reanalyzed += len(delta.reanalyzed)
            rec.record(not raised and delta.findings_total == 1,
                       next(position))

        run_units(edit_blocks(self.seed, self.N_FILES, self.FUNCS_PER_FILE),
                  budget_s, max_requests, serve)
        self._end = self._snapshot()

    def finish(self) -> bool:
        """The warm session's full report must be byte-identical to a fresh
        cold session's on the final tree."""
        from repro.core.report import render_json
        from repro.project.session import ProjectSession

        warm = render_json(self.session.report)
        with ProjectSession(self.dir, store=False) as cold:
            cold.update_all()
            return render_json(cold.report) == warm

    def counters(self) -> Dict[str, float]:
        out = {key: self._end[key] - self._start[key] for key in self._start}
        out["session.reanalyzed"] = self.reanalyzed
        return out

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# explore-dpor
# ---------------------------------------------------------------------------


class ExploreDpor(Workload):
    """DPOR sweeps over the 24 gallery cases x {raw, instrumented} in
    seeded-shuffled passes; the static work (parse, analyze, instrument)
    happens in set-up.  The heap is collected between sweeps.

    The sweeps run from 2 ms to 0.5 s, and the 20 that reach the 100-run
    cap take 85% of a pass, so a run fits only three passes or so.  Three
    repeats left the median sweep's time, and with it ``latency_p50_ms``,
    spreading 5-14% across runs.  So after the first pass, a sweep that
    explored ``s`` schedules in its first run is sent
    ``round(REPEAT_SCHEDULES / s)`` times per pass (1 to ``MAX_REPEATS``):
    the 20-32-schedule sweeps around the median get 3-5 repeats a pass, for
    a quarter more time per pass, and 8-13 repeats a run instead of 3.
    Every sweep still weighs the same in the metrics (see
    :class:`~e2e_core.Tally`).  A traced run sends each sweep once per
    pass, so its per-request layer times average over the gallery,
    whatever the schedule counts."""

    name = "explore-dpor"
    SWEEP = dict(strategy="dpor", runs=100, preemptions=2, minimize=True)
    NUM_THREADS = 3
    MODES = ("raw", "instrumented")
    REPEAT_SCHEDULES = 100
    MAX_REPEATS = 8

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.core import analyze_program, instrument_program
        from repro.explore import ExploreConfig
        from repro.minilang.parser import parse_program

        self.seed = seed
        self.generated = self.generate()
        #: (case, mode) -> (program, config, group kinds, allowed error
        #: classes, schedule sensitive).
        self.targets: Dict[Tuple[str, str], tuple] = {}
        for name, case in self.generated.items():
            program = parse_program(case.source, f"{name}.mc")
            analysis = analyze_program(program)
            instrumented, _ = instrument_program(analysis)
            for mode, prog, kinds, allowed in (
                    ("raw", program, None, case.raw_errors),
                    ("instrumented", instrumented, analysis.group_kinds,
                     case.runtime_errors)):
                config = ExploreConfig(nprocs=case.nprocs,
                                       num_threads=self.NUM_THREADS,
                                       instrument=mode == "instrumented")
                self.targets[(name, mode)] = (
                    prog, config, kinds, {e.__name__ for e in allowed},
                    case.schedule_sensitive)
        self.rss_after = len(self.targets)
        #: (case, mode) -> (schedules, verdict counts) of its first sweep.
        self.outcomes: Dict[Tuple[str, str], tuple] = {}
        self.nondeterministic = 0

    @classmethod
    def generate(cls) -> Dict[str, object]:
        from repro.bench import CASES

        return CASES

    @classmethod
    def keys(cls, cases) -> List[Tuple[str, str]]:
        return [(name, mode) for name in cases for mode in cls.MODES]

    @classmethod
    def inputs(cls, seed: int, generated) -> Iterator[str]:
        yield (f"{sorted(cls.SWEEP.items())} nt={cls.NUM_THREADS} "
               f"repeat={cls.REPEAT_SCHEDULES}/{cls.MAX_REPEATS}")
        for name, case in generated.items():
            yield (f"{name}\n{case.source}\n{case.nprocs}\n"
                   f"{sorted(e.__name__ for e in case.raw_errors)}\n"
                   f"{sorted(e.__name__ for e in case.runtime_errors)}\n"
                   f"{case.schedule_sensitive}")
        passes = seeded_passes(cls.name, seed, cls.keys(generated))
        for _ in range(16):
            yield repr(next(passes))

    def check(self, key: Tuple[str, str], report) -> bool:
        """Failing classes within the case's expected ones (none for a
        correct case); a schedule-sensitive case must fail at least once.
        A sweep whose outcome differs from its first sweep is counted as
        nondeterministic, not failed."""
        _prog, _config, _kinds, allowed, sensitive = self.targets[key]
        outcome = (report.schedules, sorted(report.verdict_counts.items()))
        if self.outcomes.setdefault(key, outcome) != outcome:
            self.nondeterministic += 1
        classes = {c for c in report.verdict_counts if c != "clean"}
        if sensitive and not classes:
            return False
        return classes <= allowed

    def repeats(self, key: Tuple[str, str]) -> int:
        """How often ``key`` is sent in a pass after the first."""
        schedules = self.outcomes.get(key, (self.REPEAT_SCHEDULES,))[0]
        return max(1, min(self.MAX_REPEATS,
                          round(self.REPEAT_SCHEDULES / max(1, schedules))))

    def drive(self, budget_s: float, max_requests: Optional[int],
              rec: Recorder) -> None:
        from repro.explore import explore

        def serve(key: Tuple[str, str]) -> None:
            program, config, kinds, _allowed, _sensitive = self.targets[key]
            gc.collect()
            report, raised = rec.timed(lambda: explore.explore_config(
                program, config, group_kinds=kinds, jobs=1, **self.SWEEP))
            rec.record(not raised and self.check(key, report), key)

        repeats = self.repeats if rec.tracer is None else None
        run_units(fill_budget(seeded_passes(
            self.name, self.seed, self.keys(self.generated), repeats)),
            budget_s, max_requests, serve)

    def counters(self) -> Dict[str, float]:
        return {"explore.nondeterministic_sweeps": self.nondeterministic}


# ---------------------------------------------------------------------------
# fuzz-campaign
# ---------------------------------------------------------------------------


class FuzzCampaign(Workload):
    """What a coverage-guided fuzz campaign does per seed --
    ``fuzz_one(seed, coverage=True)``: generate the program, run the
    differential oracle (both static modes, two scheduled runs, a 12-run
    DPOR sweep), and hash its coverage signature -- over a fixed corpus, in
    seeded-shuffled passes.  The heap is collected before each request.

    The corpus (``fuzz_corpus.json``) is the first 128 seeds that a
    coverage campaign from seed 0 visited: 68 fresh programs and 60 queue
    mutants.  A live campaign from ``--seed`` would make a poor benchmark:
    its mix swings with the seed (one slow mutant family took half of a
    25 s run), and some seed regions classify as findings or hang the
    scheduler, which are the fuzzer's results, not load."""

    name = "fuzz-campaign"
    DIGESTED_PROGRAMS = 16

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.fuzz import campaign  # noqa: F401 - loaded in set-up

        self.seed = seed
        self.corpus = self.generated = self.generate()
        self.rss_after = len(self.corpus)
        #: fuzz seed -> (verdict, signature digest) of its first request.
        self.first: Dict[int, tuple] = {}

    @classmethod
    def generate(cls) -> List[int]:
        return json.loads(_FUZZ_CORPUS.read_text())["seeds"]

    @classmethod
    def inputs(cls, seed: int, generated: List[int]) -> Iterator[str]:
        from repro.fuzz import GenConfig
        from repro.fuzz.campaign import program_for_seed
        from repro.fuzz.oracle import OracleConfig

        yield repr(GenConfig())
        yield json.dumps(OracleConfig().as_dict(), sort_keys=True)
        yield repr(generated)
        for fuzz_seed in generated[:cls.DIGESTED_PROGRAMS]:
            yield program_for_seed(fuzz_seed)
        passes = seeded_passes(cls.name, seed, generated)
        for _ in range(16):
            yield repr(next(passes))

    def check(self, fuzz_seed: int, outcome) -> bool:
        """No static-miss or crash (the corpus has none), and every repeat
        of a seed classifies and hashes exactly as its first run did."""
        from repro.fuzz import campaign

        answer = (outcome.verdict.as_dict(), outcome.signature.digest)
        if self.first.setdefault(fuzz_seed, answer) != answer:
            return False
        return outcome.classification not in (campaign.STATIC_MISS,
                                              campaign.CRASH)

    def drive(self, budget_s: float, max_requests: Optional[int],
              rec: Recorder) -> None:
        from repro.fuzz import campaign

        def serve(fuzz_seed: int) -> None:
            gc.collect()
            outcome, raised = rec.timed(
                lambda: campaign.fuzz_one(fuzz_seed, coverage=True))
            rec.record(not raised and self.check(fuzz_seed, outcome),
                       fuzz_seed)

        run_units(fill_budget(seeded_passes(self.name, self.seed,
                                            self.corpus)),
                  budget_s, max_requests, serve)

    def counters(self) -> Dict[str, float]:
        return {"fuzz.signatures": len({digest for _v, digest
                                        in self.first.values()})}


WORKLOADS = {cls.name: cls for cls in (AnalyzeCold, ProjectEdit, ExploreDpor,
                                       FuzzCampaign)}


# ---------------------------------------------------------------------------
# Digests and one run
# ---------------------------------------------------------------------------


def inputs_digest(name: str, seed: int, generated=None) -> str:
    """SHA-256 of everything workload ``name`` sends at ``seed``, from its
    seed-independent inputs ``generated`` (by default, generated now)."""
    cls = WORKLOADS[name]
    if generated is None:
        generated = cls.generate()
    return _sha256(cls.inputs(seed, generated))


def verify_inputs(name: str, generated=None) -> None:
    """Raise :class:`WorkloadChanged` unless the generators still produce,
    at the reference seed, the inputs whose digest is pinned."""
    pinned = json.loads(_DIGESTS.read_text())[name]
    if inputs_digest(name, REFERENCE_SEED, generated) != pinned:
        raise WorkloadChanged(
            f"workload changed: the generated inputs of {name} no longer "
            f"match the digest pinned in {_DIGESTS.name}")


def setup_workload(name: str, seed: int, workdir: Path, speed: SpeedProbe,
                   t0_ns: int):
    """Everything before the first request: the workload's own set-up
    (generating inputs, opening the project, ...).  ``speed`` was started
    just before ``t0_ns`` (a ``perf_counter_ns`` reading); it is stopped
    here.  Returns the workload and its set-up time in seconds, at the
    reference speed."""
    workload = WORKLOADS[name](seed, workdir)
    now = time.perf_counter_ns()
    speed.stop()
    return workload, speed.at_reference_speed(now - t0_ns) / 1e9


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, speed: Optional[SpeedProbe] = None,
                 t0_ns: Optional[int] = None,
                 max_requests: Optional[int] = None,
                 spans_path: Optional[str] = None) -> dict:
    """One measured run.  ``speed`` and ``t0_ns`` are as for
    :func:`setup_workload` (by default, set-up starts now).  The inputs
    set-up generated are checked against the pinned digest before the
    first request.  Returns ``correct``/``attempted``/``failed``, the
    run's metrics (end-to-end, or per-layer when ``trace``), its set-up
    time and the digest of its inputs."""
    if speed is None:
        speed = SpeedProbe()
        speed.start()
        t0_ns = time.perf_counter_ns()
    workload, setup_s = setup_workload(name, seed, workdir, speed, t0_ns)
    try:
        verify_inputs(name, workload.generated)
        digest = inputs_digest(name, seed, workload.generated)
        tally = Tally()
        tracer = Tracer() if trace else None
        rec = Recorder(tally, tracer, workload.rss_after)
        try:
            if tracer is not None:
                install(tracer)
            workload.drive(seconds, max_requests, rec)
        finally:
            if tracer is not None:
                tracer.restore()
        peak = rec.rss_mb if rec.rss_mb is not None else peak_rss_mb()
        finished_ok = workload.finish()
    finally:
        workload.close()
    # A failed post-run check (project-edit's warm-vs-cold report) counts
    # as one more failed request.
    failed = tally.failed + (0 if finished_ok else 1)
    if tracer is not None:
        metrics = layer_metrics(tracer, tally, workload.counters())
        if spans_path is not None:
            tracer.write_spans(spans_path)
    else:
        metrics = {"setup_s": setup_s, **tally.latency_metrics(),
                   "peak_rss_mb": peak,
                   "success_share": max(0.0, 1.0 - failed / tally.attempted)}
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup_s,
        "beyond_p90": tally.samples_beyond(0.9),
        "probe_us": statistics.median(tally.probes_ns) / 1e3,
        "raw_p50_ms": tally.raw_p50_ms(),
        "inputs_sha256": digest,
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    print(json.dumps({name: inputs_digest(name, REFERENCE_SEED)
                      for name in WORKLOADS}, indent=2, sort_keys=True))
