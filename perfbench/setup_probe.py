"""Set-up probe: in a fresh interpreter, import fockdecay.cli and validate a config.

    python3 perfbench/setup_probe.py CONFIG [--trace]

The caller times the whole process.  With ``--trace`` the import and the
``validate`` command are recorded as spans and printed, with their self
times, as one JSON line after the CLI's own output.
"""
from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    config, trace = argv[0], "--trace" in argv[1:]
    if not trace:
        import fockdecay.cli as cli
        return cli.main(["validate", config])

    from tracer import Tracer, patched

    tracer = Tracer()
    tracer.start_run("setup")
    with tracer.span("cli.import"):
        import fockdecay.cli as cli
    with patched([
        (cli, "load_config", tracer.wrap(cli.load_config, "scenario.parse")),
        (cli, "validate_config", tracer.wrap(cli.validate_config, "scenario.validate")),
    ]):
        with tracer.span("cli.main"):
            code = cli.main(["validate", config])
    print(json.dumps({"self_times": tracer.self_times("setup"), "trace": tracer.to_json()}))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
