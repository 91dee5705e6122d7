"""Traced CLI command: ``python cli_child.py <result.json> <sropo argv...>``.

Imports sropo, wraps its public functions with the benchmark's tracer, calls
``sropo.cli.main(argv)`` and writes the import time, the per-layer metrics
and the spans to ``result.json``.  Exits with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_metrics, top_level_time  # noqa: E402


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import sropo.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = sropo.cli.main(argv)
    finally:
        tracer.uninstall()
    Path(result_path).write_text(
        json.dumps(
            {
                "import_s": import_s,
                "top_level_s": top_level_time(tracer.spans),
                "metrics": layer_metrics(tracer),
                "absent": tracer.absent,
                "spans": tracer.spans,
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
