"""The benchmark's correctness gate as a test: every command of every
workload in perfbench/workloads.py runs once in a fresh process, with the
environment the benchmark gives its children, and perfbench/run.py's
`outcome` must find the report recorded for it. Seeded commands run at two
seeds. The benchmark files are imported, not changed."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from workloads import INPUTS, WORKLOADS  # noqa: E402

COMMANDS = {c.id: c for w in WORKLOADS.values() for c in w.commands}
CASES = [(cid, seed) for cid, c in COMMANDS.items() for seed in ((0, 1) if c.seeded else (0,))]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The generated inputs, written as set-up writes them."""
    work = tmp_path_factory.mktemp("inputs")
    subst = {}
    for name, doc in INPUTS.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        subst[name] = str(path)
    return subst


@pytest.mark.parametrize(
    "cid,seed", CASES, ids=[f"{cid}-seed{seed}" if COMMANDS[cid].seeded else cid for cid, seed in CASES]
)
def test_a_benchmark_command_gives_its_recorded_report(inputs, tmp_path, cid, seed):
    command = COMMANDS[cid]
    ctx = run.Context(tmp_path, run.child_env(None), {**inputs, "seed": str(seed)})
    stderr = tmp_path / "stderr.txt"
    rc, stdout, *_ = run.spawn([sys.executable, "-m", "complat.cli", *ctx.argv(command)], ctx.env, stderr)
    failure, recorded = run.outcome(command, rc, stdout)
    assert recorded, (failure, stderr.read_text()[-2000:])
