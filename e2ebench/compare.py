#!/usr/bin/env python3
"""Compare two result files written by run.py (e2ebench/out/result-*.json).

    python3 e2ebench/compare.py BASE.json CHANGE.json

Prints every metric of both runs with the change's ratio to the base, and
every job whose outputs (exit code, stdout, files) are not byte-identical.
Exit codes: 0 outputs identical, 1 outputs differ, 2 runs not comparable
(different kernel backend, workload, seed or trace mode).
"""

from __future__ import annotations

import json
import sys


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.load(open(path, encoding="ascii")) for path in args)
    for key in ("workload", "seed", "trace"):
        if base[key] != change[key]:
            print(f"refused: {key} differs ({base[key]} vs {change[key]})")
            return 2
    env_a, env_b = base["environment"], change["environment"]
    if env_a["backend"] != env_b["backend"]:
        print(f"refused: kernel backends differ ({env_a['backend']} vs "
              f"{env_b['backend']})")
        return 2
    for key in ("python", "nproc"):
        if env_a[key] != env_b[key]:
            print(f"warning: {key} differs ({env_a[key]} vs {env_b[key]})")

    for name, value in base["metrics"].items():
        other = change["metrics"].get(name)
        if other is None:
            print(f"{name:50s} {value:14.6g} {'-':>14} missing in change")
            continue
        ratio = f"{other / value:.3f}x" if value else "-"
        print(f"{name:50s} {value:14.6g} {other:14.6g} {ratio:>8} "
              f"{base['units'][name]}")

    differ = sorted(job for job in base["digests"].keys()
                    | change["digests"].keys()
                    if base["digests"].get(job) != change["digests"].get(job))
    for job in differ:
        print(f"outputs differ: {job}")
    print(f"{len(differ)} of {len(base['digests'])} jobs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
