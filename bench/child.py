"""One program process of the benchmark.

Usage: python3 child.py '<spec json>'

The spec names the checkout root, the config file, the output directory, the
CLI commands to run (``all``, or ``psf``, ``eigs`` and ``dof`` one after the
other), whether to trace, and whether to stop after set-up.  The process
imports holowdm from the checkout's ``src``, parses the config (end of
set-up), then runs each command through ``holowdm.cli.main`` exactly as the
``holowdm`` entry point would.  Its last stdout line is a JSON report with
CLOCK_MONOTONIC stamps, which the parent compares with its own spawn stamp.
"""

import contextlib
import io
import json
import os
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import holowdm.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"holowdm imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    with open(spec["config"]) as handle:
        cli.parse_config(handle.read())
    report = {"t_ready": time.monotonic()}
    if spec["setup_only"]:
        print(json.dumps(report))
        return 0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    # a failed experiment shows as a missing CSV and a message on stderr
    with contextlib.redirect_stdout(io.StringIO()):
        for command in spec["commands"]:
            cli.main([command, "--config", spec["config"], "--out", spec["out"]])
    report["t_end"] = time.monotonic()
    if tracer is not None:
        report["layers"] = tracer.layers()
        report["threads"] = tracer.threads()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
