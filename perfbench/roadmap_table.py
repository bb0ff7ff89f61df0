"""Time single large requests, each in a fresh client, ungated.

    python3 perfbench/roadmap_table.py [--out perfbench/results/roadmap_table.json]

Reproduces the baseline table of open item 1 in ROADMAP.md with the
benchmark's own client and clock: one cold worker per case, one timing each,
no bound and no oracle beyond the exit code.  Takes about two minutes on the
seed commit; the two slowest cases take half a minute each.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import time

from run import HERE, Client

CASES = [
    ["gen", "--operad", "fcat1", "--max-arity", "11", "--json"],
    ["gen", "--operad", "fcat1", "--max-arity", "12", "--json"],
    ["gen", "--operad", "schr", "--max-arity", "9", "--json"],
    ["gen", "--operad", "comp", "--max-arity", "14", "--json"],
    ["gen", "--operad", "pw", "--max-arity", "7", "--json"],
    ["check", "presentation", "--operad", "schr", "--max-arity", "6", "--json"],
    ["check", "presentation", "--operad", "schr", "--max-arity", "7", "--json"],
    ["check", "presentation", "--operad", "schr", "--max-arity", "8", "--json"],
]


def revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(HERE, "results", "roadmap_table.json"))
    args = parser.parse_args()
    work_dir = os.path.join(HERE, "_run", f"table{os.getpid()}")
    os.makedirs(work_dir)
    rows = []
    try:
        requests_path = os.path.join(work_dir, "requests.json")
        with open(requests_path, "w", encoding="utf-8") as handle:
            json.dump([{"argv": argv} for argv in CASES], handle)
        for index, argv in enumerate(CASES):
            client = Client([requests_path], os.path.join(work_dir, str(index)),
                            time.monotonic() + 300)
            client.request(index)
            client.close()
            result = client.results[0]
            rows.append({"case": " ".join(argv[:-1]), "rc": result["rc"],
                         "seconds": result["seconds"],
                         "error": result["stderr"].strip() or None})
            print(f"{result['seconds']:9.3f} s  rc={result['rc']}  {rows[-1]['case']}"
                  + (f"  ({rows[-1]['error']})" if rows[-1]["error"] else ""), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"revision": revision(), "rows": rows}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
