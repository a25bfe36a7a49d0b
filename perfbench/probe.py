"""Set-up probe: a fresh interpreter imports msnlib, builds one workload's
inputs and exits.  run.py times it from spawn to exit.

    python3 perfbench/probe.py <workload> <seed> <smoke 0|1> <workdir>
"""

import sys

import msnlib  # noqa: F401 - the cold import is what is timed
import workloads

if __name__ == "__main__":
    name, seed, smoke, workdir = sys.argv[1:5]
    workloads.WORKLOADS[name].build(int(seed), smoke == "1", workdir)
