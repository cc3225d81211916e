"""Run one trinomial CLI command with the benchmark's tracer installed.

Usage: python3 -X importtime perfbench/child.py <cli arguments>

The command's output and exit code are unchanged; the tracer's
aggregates go to stderr as one line starting with ``perfbench-stats``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import trinomial.cli  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import STATS_MARK  # noqa: E402

import coldcache  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = trinomial.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.absorb_cache_infos(coldcache.cache_infos())
        sys.stdout.flush()
        sys.stderr.write(STATS_MARK + json.dumps(tracer.stats()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
