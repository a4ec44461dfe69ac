"""Entropy-paced early termination for chain-of-thought decoding.

A controller watches the rank of a designated terminator token during
reasoning-phase decoding and injects that token once the rank crosses a
threshold that loosens with elapsed steps and tightens with next-token
entropy.  The package bundles the decision rule, baseline policies, trace
record/replay, a live streaming client, trajectory analytics, saliency
attribution over attention maps, and a small benchmark harness.

The package exports the names README's examples import; everything else
is imported from its module (syncthink.policy, syncthink.controller, ...).
"""

from .client import connect_endpoint
from .controller import run_generation
from .policy import PolicyConfig
from .stub import StubServer
from .synthetic import SyntheticPhaseSpec, generate_synthetic
from .trace import open_trace

__version__ = "0.1.0"

__all__ = [
    "PolicyConfig",
    "StubServer",
    "SyntheticPhaseSpec",
    "connect_endpoint",
    "generate_synthetic",
    "open_trace",
    "run_generation",
    "__version__",
]
