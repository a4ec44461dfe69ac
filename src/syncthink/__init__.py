"""Entropy-paced early termination for chain-of-thought decoding.

A controller watches the rank of a designated terminator token during
reasoning-phase decoding and injects that token once the rank crosses a
threshold that loosens with elapsed steps and tightens with next-token
entropy.  The package bundles the decision rule, baseline policies, trace
record/replay, a live streaming client, trajectory analytics, saliency
attribution over attention maps, and a small benchmark harness.
"""

from .client import EndpointConfig, EndpointFactory, LiveSession, connect_endpoint
from .controller import (
    BatchItem,
    GenerationRecord,
    read_records,
    record_fingerprint,
    run_batch,
    run_generation,
    write_records,
)
from .evaluation import (
    BenchmarkReport,
    ReportRow,
    Sample,
    efficiency_rate,
    emit_report,
    load_dataset,
    parse_answer,
    read_report,
    score,
)
from .phase_analysis import (
    MacroCurve,
    PhaseSegmentation,
    TruncationZone,
    aggregate_macro,
    optimal_truncation_zone,
    segment_phases,
    truncation_accuracy_curve,
)
from .policy import (
    POLICIES,
    BaselineConfig,
    Distribution,
    PolicyConfig,
    StopDecision,
    StopReason,
    answer_convergence_stop,
    compute_rank,
    dynamic_threshold,
    fixed_ratio_stop,
    shannon_entropy,
    should_stop,
)
from .saliency import (
    RegionMask,
    SaliencyReport,
    TensorBlob,
    build_masks,
    load_tensor,
    saliency_report,
    saliency_score,
    save_tensor,
)
from .stub import StubServer
from .synthetic import SyntheticPhaseSpec, generate_synthetic
from .trace import (
    StepObservation,
    TraceFile,
    TraceHeader,
    TraceReader,
    open_trace,
    read_trace,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig",
    "BatchItem",
    "BenchmarkReport",
    "Distribution",
    "EndpointConfig",
    "EndpointFactory",
    "GenerationRecord",
    "LiveSession",
    "MacroCurve",
    "POLICIES",
    "PhaseSegmentation",
    "PolicyConfig",
    "RegionMask",
    "ReportRow",
    "SaliencyReport",
    "Sample",
    "StepObservation",
    "StopDecision",
    "StopReason",
    "StubServer",
    "SyntheticPhaseSpec",
    "TensorBlob",
    "TraceFile",
    "TraceHeader",
    "TraceReader",
    "TruncationZone",
    "answer_convergence_stop",
    "aggregate_macro",
    "build_masks",
    "compute_rank",
    "connect_endpoint",
    "dynamic_threshold",
    "efficiency_rate",
    "emit_report",
    "fixed_ratio_stop",
    "generate_synthetic",
    "load_dataset",
    "load_tensor",
    "open_trace",
    "optimal_truncation_zone",
    "parse_answer",
    "read_records",
    "read_report",
    "read_trace",
    "record_fingerprint",
    "run_batch",
    "run_generation",
    "saliency_report",
    "saliency_score",
    "save_tensor",
    "score",
    "segment_phases",
    "shannon_entropy",
    "should_stop",
    "truncation_accuracy_curve",
    "write_records",
    "write_trace",
    "__version__",
]
