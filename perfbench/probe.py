"""Set-up probe: seconds from a fresh interpreter to ready.

    python3 perfbench/probe.py <src dir> [config.json]

Imports twojc's ``cli`` module (which pulls in every layer a workload
uses), then loads the config if one is given, and prints the elapsed
seconds.  The clock starts before any other import.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from twojc import cli, config  # noqa: E402,F401

if len(sys.argv) > 2:
    config.load_config(sys.argv[2])
print(repr(time.perf_counter() - T0))
