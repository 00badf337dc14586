"""Run a command and fail if its peak resident set size is above a limit.

    python tests/peak_gate.py LIMIT_MB LABEL -- CMD [ARG...]

Prints one line with LABEL, the command's wall time and the peak RSS of the
command and of every process it waited for (`ru_maxrss` of the children), and
appends that line to the file named by GITHUB_STEP_SUMMARY when the variable
is set.  Exits 1 when the peak is above LIMIT_MB or the command fails.

Only the standard library is imported: a child started by vfork and exec
inherits its launcher's RSS high-water mark, so a launcher that had loaded
numpy would raise the very peak it measures.
"""

import os
import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print("usage: peak_gate.py LIMIT_MB LABEL -- CMD [ARG...]", file=sys.stderr)
        return 2
    limit_mb, label, command = float(argv[0]), argv[1], argv[3:]
    start = time.perf_counter()
    code = subprocess.run(command, stdout=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    if code:
        print(f"{label}: the command exited with {code}", file=sys.stderr)
        return 1
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    line = f"{label}: {wall:.2f} s, peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB)"
    print(line)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as summary:
            summary.write(line + "\n")
    return int(peak_mb > limit_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
