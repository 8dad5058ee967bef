"""One benchmark child process: a run of the thermoduct CLI.

    python3 child.py SRC [--trace-out FILE] [--setup-end MODULE.FUNC] -- <CLI arguments>

Calls ``thermoduct.cli.main``, imported from SRC, with the CLI arguments and
exits with its code.

``--trace-out`` first installs the spans of ``tracer.py`` and writes their
summary as JSON when the CLI returns.

``--setup-end`` makes the run a set-up probe: the CLI runs as usual until
the first call of the thermoduct function MODULE.FUNC (as bound in MODULE)
returns, and is cut short there.  The child then prints
``{"setup_s": <seconds since this script started>}`` and exits 0; if the CLI
returns without calling the function, the child exits 1.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import sys  # noqa: E402


class SetupDone(BaseException):
    """Raised past the CLI's own ``except Exception`` when set-up ends."""


def cut_after(path):
    module_name, attr = path.split(".")
    module = importlib.import_module(f"thermoduct.{module_name}")
    fn = getattr(module, attr)

    def stop(*args, **kwargs):
        fn(*args, **kwargs)
        raise SetupDone

    setattr(module, attr, stop)


def main(argv):
    sys.path.insert(0, argv[0])
    opts, cli_args = argv[1:argv.index("--")], argv[argv.index("--") + 1:]
    opts = dict(zip(opts[::2], opts[1::2]))
    from thermoduct import cli

    if "--setup-end" in opts:
        cut_after(opts["--setup-end"])
        try:
            cli.main(cli_args)
        except SetupDone:
            print(json.dumps({"setup_s": time.perf_counter() - T0}))
            return 0
        print(f"child.py: the CLI never called {opts['--setup-end']}", file=sys.stderr)
        return 1

    tracer = None
    if "--trace-out" in opts:
        import tracer as spans

        tracer = spans.Tracer()
        spans.install(tracer)
    code = cli.main(cli_args)
    if tracer is not None:
        with open(opts["--trace-out"], "w", encoding="utf-8") as f:
            json.dump(tracer.report(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
