"""One braggsim CLI invocation, timed from inside its own process.

    python3 child.py SRC RESULT MODE -- SUBCOMMAND CONFIG [CLI OPTIONS...]

``braggsim`` is imported from the source tree SRC and nowhere else. MODE is
``setup`` (import the package, load CONFIG, stop), ``run`` (call
``braggsim.cli.main`` with the arguments after ``--``) or ``trace`` (as
``run``, with every layer wrapped in spans). RESULT receives a JSON object:
``loaded_at`` is ``time.monotonic()`` when ``load_config`` returned, which
the parent turns into set-up time against its own stamp taken just before
it started this process; ``run_s`` is the wall time of ``main``. The process
exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, result_path, mode = argv[0], Path(argv[1]), argv[2]
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    import braggsim.cli as cli

    if Path(cli.__file__).resolve().parents[1] != Path(src).resolve():
        print(f"braggsim imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    result: dict = {}
    if mode == "setup":
        cli.load_config(cli_args[1])
        result["loaded_at"] = time.monotonic()
        result_path.write_text(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)

    load_config = cli.load_config

    def stamped(path):
        cfg = load_config(path)
        result.setdefault("loaded_at", time.monotonic())
        return cfg

    cli.load_config = stamped
    started = time.perf_counter()
    code = cli.main(cli_args)
    result["run_s"] = time.perf_counter() - started
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["counts"] = dict(tracer.counts)
        result["maxima"] = tracer.maxima
    result_path.write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
