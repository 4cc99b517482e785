"""Data-free iterative prompt optimization with an actor-critic feedback loop,
embedding-similarity scoring, and guided sentence-level mutation."""

from .engine import (
    Engine,
    EngineConfig,
    OptimizationResult,
    ScoredSample,
    check_transition,
    route_feedback,
)
from .errors import (
    BackendUnavailableError,
    ConfigError,
    CorpusError,
    DegenerateInputError,
    DigestMismatchError,
    DimensionMismatchError,
    EmptyResponseError,
    LogError,
    MutationRejectedError,
    PromptloopError,
    ProtocolError,
    RunAbortedError,
)
from .gateway import (
    FAILURE_MARKER,
    BackendDescriptor,
    ChatExchange,
    HealthReport,
    HttpBackend,
    MockBackend,
    build_backend,
    fnv1a64,
)
from .mutation import SentenceSegmentation, run_mutation_phase, segment_sentences
from .pipeline import Runtime, build_runtime, resume_optimization, run_optimization
from .roles import (
    DEFAULT_ROLE_PARAMS,
    DEFAULT_SEED,
    DEFAULT_SYSTEM_PROMPTS,
    ModelRole,
    SamplingParams,
)
from .runstore import EventLog, RunEvent, emit_report, read_log, replay_log
from .scoring import (
    CorpusEvaluator,
    EmbeddingCache,
    ReferenceCorpus,
    corpus_score,
    cosine,
    load_corpus,
)
from .state import (
    ArchiveEntry,
    EngineState,
    PromptArchive,
    PromptCandidate,
    SplitMix64,
    update_archives,
)

__version__ = "0.1.0"
