"""Record the SHA-256 of every item's output at the default seed into digests.json.

Run from the repository root after a change that is meant to alter reports:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from corpus import DEFAULT_SEED, write_corpus
from run import SRC, WORK
from workloads import DIGESTS_PATH, WORKLOADS, check, digest, execute, import_solk


def main() -> None:
    solk = import_solk(SRC)
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="digests-", dir=WORK))
    digests = {}
    try:
        for workload in WORKLOADS:
            digests[workload] = {}
            for item in write_corpus(workload, DEFAULT_SEED, directory / workload):
                rc, output = execute(solk, workload, item)
                problem = check(workload, rc, output)
                if problem:
                    raise SystemExit(f"{workload} {item.name}: {problem}")
                digests[workload][item.name] = digest(output)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
