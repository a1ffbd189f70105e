"""The repository benchmark: six end-to-end workloads and an outside-in trace.

``python3 bench/run.py --workload <name>`` is the entry point (see
``bench/README.md``); nothing here is imported by ``src/``.
"""

#: One BLAS thread: set by ``run.py`` before numpy is imported, recorded in
#: every result's host block.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
