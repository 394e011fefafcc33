"""One benchmark op process.

    python3 perfbench/worker.py lib OPS_JSON [--trace]
        Run a batch of library ops in this interpreter, in order.  Prints a
        "ready" line once `import skewtop` is done, then one JSON line per op
        with its call time and exact values (and its spans, when traced).
    python3 perfbench/worker.py cli SPANS_FILE ARG...
        Traced stand-in for `python -m skewtop.cli ARG...`: the same report on
        stdout and the same exit code; the import time and spans go to
        SPANS_FILE.

`skewtop` must come from the `src/` directory beside `perfbench/`.
"""

import json
import os
import sys
import time

import skewtop

READY = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import ops  # noqa: E402  (after the import whose time is measured)
import tracer  # noqa: E402


def _check_source():
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(skewtop.__file__).startswith(src):
        sys.exit(f"skewtop imported from {skewtop.__file__}, not from {src}")


def run_lib(batch: list, trace: bool):
    # protocol lines own stdout; anything the program prints goes to stderr
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr
    recorder = tracer.Recorder()
    if trace:
        recorder.install()
    print(json.dumps({"ready": READY, "missing": recorder.missing}),
          file=out, flush=True)
    for op in batch:
        values = error = None
        t0 = time.monotonic()
        try:  # a failed op is reported, and the batch goes on
            result = ops.execute(op)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.monotonic()
        if error is None:
            try:
                values = ops.result_values(op, result)
            except Exception as exc:
                error = f"unreadable result: {type(exc).__name__}: {exc}"
        print(json.dumps({"t0": t0, "t1": t1, "values": values,
                          "error": error, "spans": recorder.take()}),
              file=out, flush=True)


def run_cli(spans_file: str, argv: list) -> int:
    recorder = tracer.Recorder()
    recorder.install()
    import skewtop.cli

    try:
        return skewtop.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            json.dump({"ready": READY, "missing": recorder.missing,
                       "spans": recorder.take()}, fh)


def main():
    _check_source()
    mode = sys.argv[1]
    if mode == "lib":
        run_lib(json.loads(sys.argv[2]), "--trace" in sys.argv[3:])
        return 0
    if mode == "cli":
        return run_cli(sys.argv[2], sys.argv[3:])
    sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
