"""Re-pin ``signatures.json`` from one warm-up iteration of every workload.

``PYTHONPATH=src:. python3 -m perfbench.pin [--scale paper|tiny]``

The pinned counters are exact: any change to them is a behaviour change of
the program and must be explained where it is made, not re-pinned quietly.
"""

import argparse
import json
import tempfile
from pathlib import Path

from perfbench.workloads import SIGNATURES_FILE, WORKLOADS, Signatures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    args = parser.parse_args()
    signatures = Signatures(args.scale, record=True)
    with tempfile.TemporaryDirectory(dir=".") as out:
        for cls in WORKLOADS.values():
            cls(args.scale, 0, 1, Path(out), signatures).iteration(0)
    table = json.loads(SIGNATURES_FILE.read_text()) if SIGNATURES_FILE.exists() else {}
    table[args.scale] = dict(sorted(signatures.table.items()))
    # One signature per line keeps diffs of a re-pin readable.
    scales = [
        f"  {json.dumps(scale)}: {{\n"
        + ",\n".join(f"    {json.dumps(key)}: {json.dumps(sig)}" for key, sig in sorted(rows.items()))
        + "\n  }"
        for scale, rows in sorted(table.items())
    ]
    SIGNATURES_FILE.write_text("{\n" + ",\n".join(scales) + "\n}\n")
    print(f"pinned {len(signatures.table)} signatures at scale {args.scale}")


if __name__ == "__main__":
    main()
