"""Record the CLI reference outputs: ``python3 perfbench/record_reference.py``.

Runs every ``cli_cold`` command once on the shipped configs and stores, per
output file, sampled rows (or every scalar field) in ``reference.json``.
The ``cli_cold`` checks compare later runs with it.  Re-record only when a
change to the outputs is deliberate and its size has been justified.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, child_env  # noqa: E402


def main() -> int:
    env = child_env()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import CLI_COMMANDS, reference_entry

    work = ROOT / ".perfbench_work" / "reference"
    reference = {}
    try:
        for name, argv in CLI_COMMANDS:
            out = work / name
            subprocess.run([sys.executable, "-m", "sropo", *argv, "--out", str(out)],
                           cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
            reference[name] = {p.name: reference_entry(p) for p in sorted(out.iterdir())}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
