"""Traced `sss-prnu serve` for the TCP workload.

Usage: python3 perfbench/server_main.py SPANS_FILE serve --point ... (the
`sss-prnu serve` arguments).  Installs the same span wrappers as the
client, runs the unmodified `sss_prnu.cli.main`, and on SIGTERM writes
its spans and peak RSS to SPANS_FILE before exiting.
"""

from __future__ import annotations

import resource
import signal
import sys

import spans


def _stop(signum, frame):
    raise SystemExit(0)


def main(argv: list[str]) -> int:
    from sss_prnu import cli

    out_path, serve_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    spans.install(tracer)
    signal.signal(signal.SIGTERM, _stop)
    try:
        return cli.main(serve_args)
    finally:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracer.dump(out_path, {"peak_rss_mib": peak_kib / 1024.0})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
