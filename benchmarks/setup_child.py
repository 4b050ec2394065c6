"""Set-up probe: a fresh interpreter imports the library and builds one workload's inputs.

Usage: python3 benchmarks/setup_child.py <workload> <seed>

`run.py` times this script from start to exit, several times per run, and
reports the median as `setup_s`.
"""

import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
