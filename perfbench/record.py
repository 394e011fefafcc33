"""Record the exact values the benchmark gates on.

    python3 perfbench/record.py

Runs every distinct op any seed can produce once, through the same worker
and CLI paths as a benchmark run, and writes what the code computed to
perfbench/expected.json.  Re-record only on purpose: a changed value there
is a changed answer.
"""

import json
import sys

import ops
from run import EXPECTED, Bench


def main() -> int:
    bench = Bench("record")
    try:
        every = ops.all_ops()
        # the replica-truth ops share one interpreter, as in a sweep
        shared = [op for op in every if op["kind"] not in
                  ("partition", "monomial", "cli")]
        batches = [[op] for op in every if op not in shared] + [shared]
        records, _ = bench.run_pass(batches, trace=False)
    finally:
        bench.close()
    failed = [r for r in records if r["error"] or r["values"] is None]
    for r in failed:
        print(f"not recorded: {r['key']}: {r['error']}", file=sys.stderr)
    if failed:
        return 1
    expected = {r["key"]: r["values"] for r in records}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} ops in {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
