"""Time one set-up in a fresh interpreter: import zerocorr, run one warm-up op.

Usage: python3 probe.py <zerocorr CLI argv...>.  Prints the seconds taken.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv):
    start = time.perf_counter()
    from zerocorr import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        return code
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
