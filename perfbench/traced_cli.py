"""Run one syncthink command under the span tracer.

    python3 perfbench/traced_cli.py [--memory] SPANS_OUT COMMAND [ARGS...]

Installs the tracer (with --memory, one that also runs tracemalloc
inside segment_phases; see tracer.py), runs the command through
syncthink.cli.main inside a root span named "cli.<command>", writes the
spans to SPANS_OUT and exits with the command's own exit code.  The package is imported from the
PYTHONPATH the caller sets.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    memory = argv[0] == "--memory"
    if memory:
        argv = argv[1:]
    spans_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(memory=memory)
    import syncthink.cli

    command = cli_args[0].replace("-", "_")
    code = tracer.span(f"cli.{command}", syncthink.cli.main)(cli_args)
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
