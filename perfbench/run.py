"""complat benchmark: run the CLI as a user does, check it, and time it.

    python3 perfbench/run.py --workload walls [--seed 0] [--seconds 20] [--trace 0|1]

From the root of a checkout. Each command of the workload runs in its own
fresh `python -m complat.cli` process with the checkout's `src` on
PYTHONPATH: a closed loop with one client, one command at a time. A pass
runs every command once; passes repeat until --seconds have gone by, and
every report of every pass is checked (see `outcome`).

Before every command of an untraced pass, the reference probe
perfbench/reference.py runs in its own process. --trace 0 prints the
end-to-end metrics: medians over passes of the commands' summed wall and
CPU time divided by the probes' (`wall_rel`, `cpu_rel`), of the largest
child RSS, and the median set-up time over several set-ups. The raw
seconds are printed and recorded too. --trace 1 alternates passes run under
perfbench/tracer.py with untraced passes, and prints the per-layer metrics
and the traced/untraced wall-time ratio. Metric names and units are those
of BENCHMARK.json. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the full record goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from tracer import LAYERS, MAX_COUNTERS
from workloads import EXPECTED, INPUTS, KNOWN_DEFECTS, WORKLOADS, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9  # set-ups per run; the median is setup_s
WARM_SETUP_REPEATS = 3  # each one fills a class cache, about 4 s
REFERENCE_OUTPUT = b"465153 79026 100000\n"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Result:
    command: Command
    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: Optional[str]  # why it fails the gate, None if it passes
    as_recorded: bool  # its output is the one recorded for this commit
    trace: Optional[dict] = None
    probe: tuple[float, float] = (0.0, 0.0)  # wall and CPU s of the probe run just before


@dataclass
class Context:
    work: Path
    env: dict
    subst: dict = field(default_factory=dict)

    def argv(self, command: Command) -> list[str]:
        return [a.format(**self.subst) for a in command.args]


# -- the correctness gate -------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(command: Command, report: dict, stdout: bytes) -> str:
    if command.seeded:
        report = {k: v for k, v in report.items() if k != "seed"}
        return sha256(json.dumps(report, sort_keys=True).encode())
    return sha256(stdout)


def outcome(command: Command, rc: int, stdout: bytes) -> tuple[Optional[str], bool]:
    """Gate one command. It passes when it exits 0, its report says
    "ok": true, and its digest is the recorded one. Returns why it fails
    (None if it passes) and whether the output is the one recorded for this
    commit: the recorded digest with the exit code its verdict implies, or,
    for a seed-dependent known defect, the recorded report but for its
    verdict."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit {rc} without a report", False
    if not isinstance(report, dict):
        return f"exit {rc} with a report that is not an object", False
    ok = report.get("ok") is True
    got = digest(command, report, stdout)
    expected = EXPECTED.get(command.id)
    recorded = got == expected and rc == (0 if ok else 1)
    if not recorded and command.seeded and command.id in KNOWN_DEFECTS and rc == 1:
        recorded = digest(command, dict(report, ok=True, discrepancies=[]), b"") == expected
    if rc != 0:
        return f"exit {rc}", recorded
    if not ok:
        return "report not ok", recorded
    if got != expected:
        return "digest differs from the recorded one", recorded
    return None, recorded


# -- children ---------------------------------------------------------------------------


def child_env(cache: Optional[Path]) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.pop("COMPONENT_LATTICE_CACHE", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", PYTHONNOUSERSITE="1")
    if cache is not None:
        env["COMPONENT_LATTICE_CACHE"] = str(cache)
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path) -> tuple[int, bytes, float, float, float]:
    """Run one child to completion: exit code, stdout, wall s, CPU s, max RSS MB."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err
        )
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def run_probe(ctx: Context) -> tuple[float, float]:
    rc, stdout, wall, cpu, _ = spawn([sys.executable, str(HERE / "reference.py")], ctx.env, ctx.work / "stderr.txt")
    if rc != 0 or stdout != REFERENCE_OUTPUT:
        raise BenchError(f"reference probe failed: exit {rc}, output {stdout!r}")
    return wall, cpu


def run_pass(ctx: Context, commands: tuple[Command, ...], traced: bool) -> list[Result]:
    """Every command once. An untraced pass runs the probe before each command."""
    results = []
    for command in commands:
        probe = (0.0, 0.0) if traced else run_probe(ctx)
        results.append(run_command(ctx, command, traced))
        results[-1].probe = probe
    return results


def run_command(ctx: Context, command: Command, traced: bool) -> Result:
    argv = [sys.executable, "-m", "complat.cli", *ctx.argv(command)]
    trace_path = ctx.work / "trace.json"
    if traced:
        argv[1:3] = [str(HERE / "tracer.py"), str(trace_path), repr(time.monotonic()), "--"]
    rc, stdout, wall, cpu, rss = spawn(argv, ctx.env, ctx.work / "stderr.txt")
    failure, recorded = outcome(command, rc, stdout)
    if failure is not None and not recorded:
        tail = (ctx.work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        print(f"# {command.id}: {failure}; {' '.join(tail)}", file=sys.stderr)
    trace = None
    if traced:
        trace = json.loads(trace_path.read_text())
        trace_path.unlink()
    return Result(command, wall, cpu, rss, failure, recorded, trace)


# -- set-up --------------------------------------------------------------------------------


def check_sources() -> None:
    for needed in ("src/complat/cli.py", "specs", "BENCHMARK.json"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{needed} is missing: run from a complat checkout")


def setup(workload: Workload, seed: int, work: Path) -> Context:
    """Write the generated inputs, confirm that children import complat from
    this checkout's src, and on the warm workload fill a fresh class cache."""
    work.mkdir(parents=True)
    cache = work / "cache" if workload.warm_cache else None
    ctx = Context(work, child_env(cache), {"seed": str(seed)})
    for name, doc in INPUTS.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        ctx.subst[name] = str(path.relative_to(ROOT))
    probe = [sys.executable, "-c", "import complat; print(complat.__file__)"]
    rc, stdout, *_ = spawn(probe, ctx.env, work / "stderr.txt")
    where = Path(stdout.decode().strip()).resolve() if rc == 0 else None
    if where is None or ROOT / "src" not in where.parents:
        raise BenchError(f"children import complat from {where}, not from {ROOT / 'src'}")
    if cache is not None:
        for command in workload.commands:
            result = run_command(ctx, command, traced=False)
            if result.failure is not None:
                raise BenchError(f"set-up command {command.id} failed: {result.failure}")
        if not any(cache.iterdir()):
            raise BenchError(f"set-up left the class cache {cache} empty")
    return ctx


# -- statistics and metrics ----------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) with the sample count."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes: list[list[Result]], setups: list[float]) -> dict:
    return {
        "wall_rel": summary([sum(r.wall_s for r in p) / sum(r.probe[0] for r in p) for p in passes]),
        "cpu_rel": summary([sum(r.cpu_s for r in p) / sum(r.probe[1] for r in p) for p in passes]),
        "wall_s": summary([sum(r.wall_s for r in p) for p in passes]),
        "cpu_s": summary([sum(r.cpu_s for r in p) for p in passes]),
        "peak_rss_mb": summary([max(r.rss_mb for r in p) for p in passes]),
        "setup_s": summary(setups),
    }


def layer_metrics(traced: list[Result]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named <module>.<function>.<stat>."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for r in traced:
        for k, v in r.trace["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in r.trace["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in r.trace["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k in MAX_COUNTERS else counters.get(k, 0) + v
    out: dict[str, float] = dict(counters)
    for layer, names in LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            out[key + ".calls"] = calls[key]
            out[key + ".self_s"] = self_s.get(key, 0.0)
        out[layer + ".self_s"] = sum(self_s.get(f"{layer}.{n}", 0.0) for n in names)
    out["qlinalg.dot.calls"] = calls["qlinalg.dot"]
    cells_out = counters["arrangement.cells.out"]
    out["arrangement.dd_per_cell"] = counters["arrangement.dd_in_cells"] / cells_out if cells_out else 0.0
    yielded = counters["linmoduli.subrep_spaces.yielded"]
    out["linmoduli.subrep_useful_ratio"] = calls["linmoduli.sub_rep"] / yielded if yielded else 0.0
    out["cli.startup_s"] = statistics.median(r.trace["startup_s"] for r in traced)
    out["cli.errors"] = sum(r.trace["errors"] for r in traced)
    return out


# -- machine and source identity -------------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": f"{platform.system()} {platform.release()} {platform.machine()}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


# -- the run ------------------------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    repeats = WARM_SETUP_REPEATS if workload.warm_cache else SETUP_REPEATS
    setups = []
    for i in range(repeats):
        start = time.perf_counter()
        ctx = setup(workload, seed, work / f"setup{i}")
        setups.append(time.perf_counter() - start)
    plain: list[list[Result]] = []
    traced: list[list[Result]] = []
    start = time.perf_counter()
    while not plain or (trace and not traced) or time.perf_counter() - start < seconds:
        use_tracer = trace and len(traced) <= len(plain)
        passes = traced if use_tracer else plain
        passes.append(run_pass(ctx, workload.commands, use_tracer))
    every = [r for p in plain + traced for r in p]
    record = {
        "setup_s": setups,
        "passes": [
            [{"command": r.command.id, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
              "probe_wall_s": r.probe[0], "probe_cpu_s": r.probe[1],
              "failure": r.failure, "traced": r.trace is not None} for r in p]
            for p in plain + traced
        ],
        "attempted": len(every),
        "failed": sum(r.failure is not None for r in every),
        "correct": all(r.as_recorded for r in every),
        "failures": sorted({(r.command.id, r.failure) for r in every if r.failure}),
        "end_to_end": end_to_end(plain, setups),
    }
    if trace:
        layers = [layer_metrics(p) for p in traced]
        per_layer = {k: summary([m[k] for m in layers]) for k in layers[0]}
        for c in {c.id: c for w in WORKLOADS.values() for c in w.commands}.values():
            walls = [r.wall_s for p in plain for r in p if r.command is c]
            per_layer[f"cli.cmd.{c.id}.wall_s"] = summary(walls or [0.0])
        overhead = [sum(r.wall_s for r in p) for p in traced]
        per_layer["trace.overhead_ratio"] = summary(
            [statistics.median(overhead) / statistics.median(sum(r.wall_s for r in p) for p in plain)]
        )
        record["per_layer"] = per_layer
    return record


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_sources()
        spec = load_benchmark()
        info = machine(args.seed)
        work = HERE / "work" / f"{args.workload}-{os.getpid()}"
        try:
            record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace, machine=info)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    stats = record["per_layer"] if args.trace else record["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in stats]
    if missing:
        print(f"error: BENCHMARK.json names metrics this harness does not measure: {missing}", file=sys.stderr)
        return 2
    metrics = {}
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, {args.seconds:g} s per run")
    print("# " + ", ".join(f"{k} {v}" for k, v in info.items()))
    units = {m["name"]: m["unit"] for m in wanted} | {"wall_s": "s", "cpu_s": "s"}
    for name, s in stats.items():
        if name in units:
            print(f"{name:<48} {s['median']:>14.6g} {units[name]:<6} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    for m in wanted:
        metrics[m["name"]] = {"value": stats[m["name"]]["median"], "unit": m["unit"]}
    fail_ratio = record["failed"] / record["attempted"]
    record["fail_ratio"] = fail_ratio
    print(f"{'fail_ratio':<48} {fail_ratio:>14.6g} ratio  ({record['failed']} of {record['attempted']} commands)")
    for cid, why in record["failures"]:
        known = " [known defect]" if cid in KNOWN_DEFECTS else ""
        print(f"#   failed: {cid}: {why}{known}")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"# full record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
