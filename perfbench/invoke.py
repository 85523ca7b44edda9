"""One rarewave CLI invocation, as a fresh process of the benchmark.

    python3 invoke.py --config CFG --mark FILE [--setup-only]
                      [--trace DIR --run-id ID] -- CLI_ARGS...

Imports rarewave, parses and validates CFG, and writes time.monotonic() to
FILE: that instant ends set-up.  Then it runs rarewave.cli.main(CLI_ARGS)
and exits with its status.  With --trace, the layer wrappers of tracer.py
are installed first and their spans are written to DIR at exit.
"""

import argparse
import sys
import time
from pathlib import Path


def main(argv) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--mark", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--run-id", default="pass1")
    opts, cli_args = parser.parse_args(argv[:split]), argv[split + 1:]

    import rarewave.cli
    from rarewave.harness import parse_config

    parse_config(Path(opts.config).read_text())
    Path(opts.mark).write_text(repr(time.monotonic()))
    if opts.setup_only:
        return 0
    if opts.trace is None:
        return rarewave.cli.main(cli_args)

    import tracer

    recorder = tracer.Recorder(Path(opts.trace), opts.run_id)
    recorder.install()
    try:
        return rarewave.cli.main(cli_args)
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
