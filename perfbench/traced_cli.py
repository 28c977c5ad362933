"""Run one semcontrol CLI command with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_JSON ARG...

Times ``import semcontrol.cli``, installs the :class:`tracer.Tracer`
wrappers, runs ``run_command(ARG...)`` inside a root ``cli.run_command``
span, then writes the import time and the spans to SPANS_JSON and exits
with the command's exit code.  The report goes to stdout as usual.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import semcontrol.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(cli)
    code = tracer.wrap("cli.run_command", cli.run_command)(argv)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
