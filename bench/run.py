"""Entry point of the repository benchmark.

    python3 bench/run.py --workload sync_10k_topk --seed 7 --seconds 12 --trace 0
    python3 bench/run.py --workloads all --trace --out results.json
    python3 bench/run.py --micro

See ``bench/README.md``.  This file only prepares the process — one BLAS
thread, pinned *before* numpy is imported, and an import path holding the
repository root and ``src/`` — then hands over to :mod:`bench.cli`.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    # The script's own directory would shadow the standard library's ``trace``.
    sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != ROOT / "bench"
    ]
    from bench import THREAD_PINS

    for name in THREAD_PINS:
        os.environ[name] = "1"
    from bench.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
