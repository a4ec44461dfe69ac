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

from importlib import import_module

__version__ = "0.1.0"

# each exported name -> the module that defines it, imported on first access,
# so that importing one submodule (the stub process imports syncthink.stub)
# loads no other
_EXPORTS = {
    "PolicyConfig": "policy", "StubServer": "stub", "SyntheticPhaseSpec": "synthetic",
    "connect_endpoint": "client", "generate_synthetic": "synthetic",
    "open_trace": "trace", "run_generation": "controller",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
