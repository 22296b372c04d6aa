"""The multicore scaling gate (``repro-net bench``).

perfbench (``perfbench/run.py``) is the benchmark of record for speed.
This package keeps the one comparison perfbench does not make: the
paper's Table 1 / §3.3 serial-vs-multiprocess run of the same
partitioned workload, with the digests of every leg required to
match. It writes one ``BENCH_multicore_scaling.json`` manifest.
"""

from repro.bench.harness import BenchResult, write_result
from repro.bench.scenarios import multicore_scaling

__all__ = ["BenchResult", "multicore_scaling", "write_result"]
