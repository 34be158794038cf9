"""repro.fuzz — differential fuzzing of the static/dynamic pipeline.

A standing adversarial workload: a seeded weighted-grammar generator
produces thousands of well-formed hybrid MPI+OpenMP minilang programs, a
differential oracle cross-checks every verdict source the system has
(intra- and interprocedural static analysis, deterministic raw /
instrumented scheduled runs, a bounded DPOR schedule sweep), and any
disagreement is ddmin-reduced into the checked-in ``tests/corpus/``
regression directory.  Surfaced as ``parcoach fuzz``.
"""

from .campaign import (
    CHECKPOINT_VERSION,
    MUTANT_STRIDE,
    QUEUE_LIMIT,
    WAVE_WIDTH,
    FuzzReport,
    SeedOutcome,
    fuzz_one,
    load_checkpoint,
    program_for_seed,
    run_fuzz,
    write_checkpoint,
)
from .coverage import (
    MUTANT_BASE,
    MUTANT_SLOTS,
    CoverageMap,
    CoverageSignature,
    decode_mutant,
    energy_for,
    finding_fingerprint_for,
    is_mutant_seed,
    mutant_seed,
    signature_for,
    source_features,
)
from .generator import (
    GenConfig,
    GeneratorError,
    build_program,
    generate_program,
    mutate,
)
from .oracle import (
    AGREE,
    CLASSIFICATIONS,
    CRASH,
    STATIC_MISS,
    STATIC_OVERAPPROX,
    OracleConfig,
    OracleVerdict,
    run_oracle,
)
from .reduce import (
    classification_predicate,
    load_corpus,
    reduce_counterexample,
    reduce_source,
    write_counterexample,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "MUTANT_BASE",
    "MUTANT_SLOTS",
    "MUTANT_STRIDE",
    "QUEUE_LIMIT",
    "WAVE_WIDTH",
    "CoverageMap",
    "CoverageSignature",
    "decode_mutant",
    "energy_for",
    "finding_fingerprint_for",
    "is_mutant_seed",
    "mutant_seed",
    "signature_for",
    "source_features",
    "FuzzReport",
    "SeedOutcome",
    "fuzz_one",
    "load_checkpoint",
    "program_for_seed",
    "run_fuzz",
    "write_checkpoint",
    "GenConfig",
    "GeneratorError",
    "build_program",
    "generate_program",
    "mutate",
    "AGREE",
    "CLASSIFICATIONS",
    "CRASH",
    "STATIC_MISS",
    "STATIC_OVERAPPROX",
    "OracleConfig",
    "OracleVerdict",
    "run_oracle",
    "classification_predicate",
    "load_corpus",
    "reduce_counterexample",
    "reduce_source",
    "write_counterexample",
]
