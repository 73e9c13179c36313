"""Write ``seed_rows.json``: digests of every workload's anchor rows.

Anchor rows are those whose inputs do not depend on the benchmark seed; they
are found as the rows two seeds share.  The file records how the seed commit
wrote them, so that ``run.py`` can count anchor rows a later commit changes.
Run from the root of a checkout of the seed commit:

    python3 bench/record_seed_rows.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def anchor_digests(bellsim, name: str, workdir) -> dict[str, dict[str, str]]:
    seen = []
    for seed in (0, 1):
        workload = workloads.build(name, seed)
        done = run.run_pass(bellsim, workload, workdir)
        seen.append({
            scan.name: {run.row_key(scan, row): run.row_digest(row)
                        for row in run.parse_rows(scan, done.artifacts[scan.name])}
            for scan in workload.scans
        })
    first, second = seen
    table = {}
    for scan, rows in first.items():
        shared = {key: digest for key, digest in rows.items()
                  if second.get(scan, {}).get(key) == digest}
        if shared:
            table[scan] = dict(sorted(shared.items()))
    return table


def main() -> None:
    bellsim = run.import_bellsim()
    workdir = tempfile.mkdtemp(dir=run.ROOT)
    try:
        table = {name: anchor_digests(bellsim, name, Path(workdir))
                 for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.SEED_ROWS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
