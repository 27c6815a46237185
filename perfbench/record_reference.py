"""Record the reference answers of the default seed into reference/.

    python3 perfbench/record_reference.py [workload ...]

The benchmark compares every default-seed item against these files, so
they pin today's answers: re-record only for a change that is meant to
change an answer, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import worker_env
from worker import ROOT

os.environ.update(worker_env(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS  # noqa: E402


def record(name: str) -> None:
    workdir = ROOT / ".bench_build" / "perfbench" / f"record-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    try:
        wl = WORKLOADS[name](DEFAULT_SEED, workdir)
        wl.reference = None
        wl.setup()
        answers = {}
        outputs = [(item_id, thunk()) for item_id, thunk in wl.items(wl.inputs)]
        for item_id, out in outputs:
            problem, digest = wl.answer(item_id, out)
            if problem:
                raise SystemExit(f"{name} {item_id}: {problem}")
            answers[item_id] = digest
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    seed = DEFAULT_SEED if wl.seeded else None
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in answers.items())
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{name}.json").write_text(
        f'{{\n "seed": {json.dumps(seed)},\n "answers": {{\n{lines}\n }}\n}}\n')
    print(f"{name}: {len(answers)} answers recorded")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
