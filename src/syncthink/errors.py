"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SyncThinkError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SyncThinkError):
    """A parameter is outside its documented domain."""


class MalformedDistributionError(SyncThinkError):
    """A score vector or top-k list violates its structural invariants."""


class MalformedTraceError(SyncThinkError):
    """A trace file cannot be parsed; message carries file and line."""


class MalformedRecordError(SyncThinkError):
    """A records file cannot be parsed; message starts with file:line."""


class TraceIntegrityError(SyncThinkError):
    """A parsed trace violates a cross-line invariant."""


class UnsupportedProbeError(SyncThinkError):
    """The source cannot answer a branch probe at the current step."""


class PolicyUnavailableError(SyncThinkError):
    """The selected policy needs a capability the source does not have."""


class CapabilityError(SyncThinkError):
    """A live endpoint lacks a required feature; message names it."""


class SessionError(SyncThinkError):
    """A live stream failed mid-run."""


class TensorFormatError(SyncThinkError):
    """A tensor container is malformed; message carries the byte offset."""


class ScoringError(SyncThinkError):
    """Benchmark records cannot be scored against the given samples."""


class EmptyInputError(SyncThinkError):
    """An aggregate was requested over an empty collection."""


class InsufficientDataError(SyncThinkError):
    """A trajectory is too short for the requested analysis."""


class UndefinedRateError(SyncThinkError):
    """Efficiency rate requested where the denominator is not positive."""


class UsageError(SyncThinkError):
    """Bad command-line invocation; maps to exit code 2."""
