"""Time one cold CLI invocation in a fresh interpreter.

Usage: python3 perfbench/cold.py SRC_DIR -- ARGV...

Imports stockwave from SRC_DIR and runs ``stockwave.cli.main(ARGV)``
once. The clock starts before the import, so the figure covers import
cost, transform plan builds and dense-matrix cache fills: what a CLI user
pays on every invocation. Prints one JSON line with the elapsed seconds,
the median time of three reference kernel runs after it, the exit code and the
command's standard output.
"""
import contextlib
import io
import json
import statistics
import sys
import time


def main(argv) -> int:
    src, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        print("usage: cold.py SRC_DIR -- ARGV...", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    started = time.perf_counter()
    from stockwave import cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(cli_argv)
    elapsed = time.perf_counter() - started
    from reference import reference_seconds

    kernel = statistics.median(reference_seconds() for _ in range(3))
    print(json.dumps({"setup_s": elapsed, "kernel_s": kernel, "exit": code,
                      "stdout": captured.getvalue(), "module": cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
