"""``python -m cuspquot.cli`` with the layer tracer installed.

    python perfbench/cli_traced.py PREFIX JOB_ID CLI_ARGS...

Writes PREFIX.spans and PREFIX.json (see tracer.Tracer.write) when the command
ends, then exits with the command's exit code.
"""

import sys

import tracer


def main() -> int:
    prefix, job, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    spans = tracer.Tracer()
    spans.install()
    spans.job = job
    import cuspquot.cli

    try:
        return cuspquot.cli.main(argv)
    finally:
        spans.write(prefix)


if __name__ == "__main__":
    sys.exit(main())
