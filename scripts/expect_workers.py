"""Exit non-zero unless a campaign manifest forked the expected workers.

usage: python scripts/expect_workers.py MANIFEST WORKERS

``repro measure --shards N`` forks only as many workers as the rows
pay for, so a sharded parity check must confirm that its run really
left the parent process; this reads ``run.workers`` from the manifest.
"""

import json
import sys


def main(argv) -> int:
    path, expected = argv[1], int(argv[2])
    with open(path) as handle:
        run = json.load(handle)["run"]
    if run.get("workers") != expected:
        print(f"{path}: forked {run.get('workers')} worker(s) of "
              f"{run.get('n_shards')} allowed, expected {expected}",
              file=sys.stderr)
        return 1
    print(f"{path}: forked {expected} worker(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
