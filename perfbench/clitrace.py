"""Run one setcensus command line under the layer trace.

Usage: python3 perfbench/clitrace.py SPANS_JSON ARG...

Equivalent to ``python -m setcensus ARG...`` except that the traced public
functions record spans, which are written to SPANS_JSON when the command
returns.
"""

import sys

import layertrace


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import setcensus.cli

    recorder = layertrace.Recorder()
    recorder.install()
    try:
        return setcensus.cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
