"""Write perfbench/expected.json: the exit codes and bundle digests of
every benchmark run at the default seed, taken from the package as it is
checked out.  Run it only at the commit whose behaviour is the reference:

    python3 perfbench/record.py

Runs that exit 3 get no digest; their recorded code marks a known defect.
"""
from __future__ import annotations

import json
import sys

import run as bench

import gen
import oracle


def main() -> int:
    doc = {"default_seed": gen.DEFAULT_SEED}
    for name, cls in bench.WORKLOADS.items():
        workload = cls()
        mods = bench.fresh_import()
        workload.setup(gen.DEFAULT_SEED, mods)
        for runs in workload.ops:
            _, results = bench.execute(mods, runs)
            for run, (codes, error, _) in zip(runs, results):
                if error is not None:
                    raise SystemExit(f"{run.key} raised {error}")
                digest = (None if codes[-1] == 3 else
                          oracle.digest_files(oracle.bundle_files(run.out)))
                doc[run.key] = {"exit": codes, "digest": digest}
    with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        # one entry per line keeps diffs of a re-recording readable
        fh.write("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                     for k, v in sorted(doc.items())) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
