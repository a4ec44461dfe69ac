"""Serve one trace through StubServer in a process of its own.

    python3 perfbench/stub_proc.py TRACE

Prints one JSON line with the base URL once the server listens, then
answers commands read from stdin, one per line:

    cpu    print this process's CPU seconds so far (user + system)
    quit   stop the server and exit (end of input does the same)

A separate process keeps the stub's JSON encoding and socket writes off
the client's interpreter lock.
"""

from __future__ import annotations

import json
import resource
import sys

from syncthink.stub import StubServer
from syncthink.trace import read_trace


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    server = StubServer(read_trace(argv[0])).start()
    try:
        print(json.dumps({"base_url": server.base_url}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if command == "cpu":
                print(json.dumps({"cpu_s": _cpu_seconds()}), flush=True)
            elif command == "quit":
                break
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
