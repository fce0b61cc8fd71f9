#!/usr/bin/env python3
"""Run a command and fail if its peak resident set exceeds a limit.

Usage: python3 scripts/peak-rss.py LIMIT_MB -- CMD [ARG...]

CMD runs to completion with its standard output and error passed
through. Then one line goes to standard error:

    peak-rss: 175.3 MB (limit 250 MB): CMD ...

The peak is `getrusage(RUSAGE_CHILDREN).ru_maxrss`: the largest resident
set of CMD or of any descendant it waited for (kilobytes on Linux).
Run the binary itself rather than `cargo run`, or cargo's own peak is
what gets measured when it is the larger.

Exit status: CMD's own status when that is non-zero (128 + N for a
signal N); otherwise 1 when the peak is above LIMIT_MB, and 0 when it
is not.
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        sys.exit("usage: peak-rss.py LIMIT_MB -- CMD [ARG...]")
    try:
        limit_mb = float(argv[0])
    except ValueError:
        sys.exit(f"peak-rss: bad limit {argv[0]!r}\nusage: peak-rss.py LIMIT_MB -- CMD [ARG...]")
    cmd = argv[2:]
    status = subprocess.call(cmd)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(
        f"peak-rss: {peak_mb:.1f} MB (limit {argv[0]} MB): {' '.join(cmd)}",
        file=sys.stderr,
    )
    if status != 0:
        # A signal shows as -N; report it the way a shell does.
        return status if status > 0 else 128 - status
    if peak_mb > limit_mb:
        print(f"peak-rss: FAIL, {peak_mb:.1f} MB is above {argv[0]} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
