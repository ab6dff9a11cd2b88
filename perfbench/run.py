"""The liecoh benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a liecoh checkout: it runs ``src/liecoh`` from that
checkout and nothing installed.  One run

1. sets up ``SETUP_REPS`` times, once before the passes and the rest after
   them: ``gen.py`` writes the seeded inputs and one ``liecoh validate``
   checks each input file; ``setup_s`` is the median;
2. runs the workload's commands one at a time as ``liecoh`` processes (a
   closed loop with one client), in whole passes, until at least S seconds
   have gone by;
3. checks every command: exit code, basis-invariant report fields, no
   traceback, a time limit, and byte-identical stdout in every pass.

With ``--trace 1`` the set-up runs once and the same passes run, then one
more pass through ``trace_launcher.py``; the per-layer metrics come from
its spans.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything else (per-command hashes and times,
the environment) goes to ``perfbench/out/result-*.json``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, Command, commands  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
LAUNCHER = os.path.join(HERE, "trace_launcher.py")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_REPS = 2
CMD_TIMEOUT_S = 100.0
# Stop starting commands after this long, so a run ends within 180 s even
# when the program under test has become much slower.
RUN_DEADLINE_S = 165.0

END_TO_END = {"setup_s": "s", "total_s": "s", "cpu_s": "s", "top_cmd_s": "s",
              "peak_rss_mb": "MB"}
# cmd_p50_s and cmd_p90_s are printed, not reported: across runs the median
# command time swings with the load of the shared machine by more than any
# usable bound.  cmd_p90_s needs this many command times; below it the 90th
# percentile is one particular command.
P90_MIN_COMMANDS = 100

# Report fields that a change of basis cannot move.
INVARIANT_KEYS = {"dim", "routes_agree", "pass", "zero", "valid", "exact",
                  "i_surjective", "lift_exists", "jacobi", "representation_law",
                  "round_trip_witnessed", "eta_class_nonzero", "identity_samples",
                  "failures", "image_is_ideal", "kernel_is_central",
                  "kernel_is_submodule", "eta_e_f_h", "kind"}

# ROADMAP table: (algebra dim, module dim, p) -> shape of the adjoint d_p.
ROADMAP_SHAPES = {(9, 9, 3): (1134, 756), (10, 10, 2): (1200, 450)}


def invariants(report, path="") -> dict:
    """path -> value for the basis-invariant fields of a report.

    Lists contribute only their length (a dimension); their entries are
    written in the seed's basis."""
    out = {}
    if isinstance(report, dict):
        for key, value in report.items():
            if not key.isidentifier():
                continue  # a basis index or key tuple, e.g. cochain coefficients
            sub = f"{path}/{key}"
            if isinstance(value, (dict, list)):
                out.update(invariants(value, sub))
            elif (key in INVARIANT_KEYS or key.startswith("dim_")
                  or key.endswith("_dim")):
                out[sub] = value
    elif isinstance(report, list):
        out[f"{path}#len"] = len(report)
    return out


def liecoh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class Result:
    """One command execution."""

    cmd: Command
    code: int
    wall: float
    cpu: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    timed_out: bool
    spans: dict = None

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def run_process(argv, cwd, env, timeout):
    """(exit code, wall s, user+sys cpu s, peak rss KB, stdout, stderr, timed out)."""
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        fired = threading.Event()

        def kill():
            fired.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            stdout, stderr, fired.is_set())


def run_command(cmd, work, env, deadline, spans_path=None) -> Result:
    if spans_path is None:
        argv = [sys.executable, "-m", "liecoh.cli", *cmd.argv]
    else:
        argv = [sys.executable, LAUNCHER, spans_path, *cmd.argv]
    timeout = max(1.0, min(CMD_TIMEOUT_S, deadline - time.monotonic()))
    result = Result(cmd, *run_process(argv, work, env, timeout))
    if spans_path is not None and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            result.spans = json.load(fh)
        os.remove(spans_path)
    return result


def parse_report(result: Result) -> tuple:
    """(report, problems) from the checks that need no recorded answer.

    The time limit and stderr are checked before stdout is parsed, so a
    crash reads as a traceback, not as bad JSON; a trivial-coefficient
    Heisenberg dimension must match its closed form.  The report is None
    when stdout could not be read."""
    if result.timed_out:
        return None, ["timed out"]
    problems = []
    if b"Traceback" in result.stderr:
        problems.append("traceback on stderr")
    try:
        report = json.loads(result.stdout)
    except ValueError:
        return None, problems + ["stdout is not JSON"]
    for key, value in (result.cmd.closed_form or {}).items():
        if report.get(key) != value:
            problems.append(f"{key} = {report.get(key)}, closed form gives {value}")
    return report, problems


def check(result: Result, expected: dict) -> list:
    """Reasons the command's answer is wrong; empty when it is right."""
    report, problems = parse_report(result)
    if expected is None:
        return problems + ["no recorded expectation"]
    if not result.timed_out and result.code != expected["exit"]:
        problems.append(f"exit {result.code}, expected {expected['exit']}")
    if report is not None:
        got = invariants(report)
        if got != expected["invariants"]:
            diff = sorted(k for k in set(got) | set(expected["invariants"])
                          if got.get(k) != expected["invariants"].get(k))
            problems.append(f"invariants differ at {diff[:5]}")
    return problems


def setup(workload, seed, work, env, deadline):
    """Generate and validate the inputs once; (seconds, validations, failures)."""
    start = time.perf_counter()
    gen = subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--workload",
                          workload, "--seed", str(seed), "--out", work],
                         env=env, capture_output=True, timeout=CMD_TIMEOUT_S)
    if gen.returncode != 0:
        raise RuntimeError(f"input generation failed: {gen.stderr.decode()[-2000:]}")
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    failures = []
    for entry in manifest:
        kind = entry["kind"]
        flag = "--ext" if kind.startswith("ext") else f"--{kind}"
        cmd = Command(f"validate {flag} {entry['file']}", ("validate", flag, entry["file"]))
        r = run_command(cmd, work, env, deadline)
        want = 2 if kind == "ext-invalid" else 0
        if r.timed_out or r.code != want or b"Traceback" in r.stderr:
            failures.append(f"setup: {cmd.id}: exit {r.code}, expected {want}")
    return time.perf_counter() - start, len(manifest), failures


def run_pass(cmds, work, env, deadline, traced=False) -> list:
    results = []
    for i, cmd in enumerate(cmds):
        if time.monotonic() > deadline:
            break
        spans_path = os.path.join(work, f".spans-{i}.json") if traced else None
        results.append(run_command(cmd, work, env, deadline, spans_path))
    return results


def quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(setup_times, passes) -> dict:
    tops = [r.wall for p in passes for r in p if r.cmd.top]
    return {
        "setup_s": statistics.median(setup_times),
        "total_s": statistics.median(sum(r.wall for r in p) for p in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "top_cmd_s": statistics.median(tops),
        "peak_rss_mb": max(r.rss_kb for p in passes for r in p) / 1024,
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "io.emit.bytes":
        return "B"
    if name == "trace.slowdown":
        return "ratio"
    return "count"


def per_layer(traced, untraced_total) -> tuple:
    """(metrics, problems, differential shapes) from one traced pass."""
    from spans import aggregate, root_duration_s
    from trace_launcher import COUNTERS, SPAN_NAMES
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = 0.0
        metrics[f"{name}.calls"] = 0
    for name in COUNTERS:
        metrics[name] = 0
    startup = 0.0
    shapes = set()
    problems = []
    for r in traced:
        if r.spans is None:
            problems.append(f"{r.cmd.id}: no spans written")
            continue
        spans = [tuple(s) for s in r.spans["spans"]]
        for name, agg in aggregate(spans).items():
            metrics[f"{name}.self_s"] += agg["self_s"]
            metrics[f"{name}.calls"] += agg["calls"]
        for name, value in r.spans["counters"].items():
            if name == "linalg.rref.max_entries":
                metrics[name] = max(metrics[name], value)
            else:
                metrics[name] += value
        startup += r.wall - root_duration_s(spans, "cli.run_command")
        shapes.update(tuple(s) for s in r.spans["shapes"])
    metrics["cli.startup_s"] = startup
    traced_total = sum(r.wall for r in traced)
    metrics["trace.total_s"] = traced_total
    # A ratio, not a difference: noise can make the traced pass the faster
    # one, and a difference would then change sign.
    metrics["trace.slowdown"] = traced_total / untraced_total
    return metrics, problems, shapes


def shape_problems(shapes) -> list:
    """ROADMAP shapes that a traced pass built with a different size."""
    problems = []
    for key, want in ROADMAP_SHAPES.items():
        got = {(rows, cols) for a, m, p, rows, cols in shapes if (a, m, p) == key}
        if got and got != {want}:
            problems.append(f"adjoint d_{key[2]} of a {key[0]}-dim algebra is {got}, "
                            f"ROADMAP gives {want}")
    return problems


def src_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def read_proc(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def environment(seed) -> dict:
    cpuinfo = read_proc("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg_start": (read_proc("/proc/loadavg") or "").strip(),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src_hash(),
    }


def _interrupt(signum, _frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C: the running command is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, _interrupt)
    parser = argparse.ArgumentParser(description="liecoh benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liecoh", "cli.py")):
        print(f"no liecoh sources at {SRC}: run from the root of a liecoh checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    env = liecoh_env()
    info = environment(args.seed)
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work_root = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        # Compile the bytecode once, untimed: users pay it once per install.
        subprocess.run([sys.executable, "-c", "import liecoh.cli, liecoh.io"],
                       env=env, check=True, timeout=CMD_TIMEOUT_S)
        setup_times, failures, attempted = [], [], 0

        def set_up(rep):
            nonlocal attempted
            work = os.path.join(work_root, f"setup{rep}")
            seconds, validated, problems = setup(args.workload, args.seed, work, env,
                                                 deadline)
            setup_times.append(seconds)
            attempted += validated
            failures.extend(problems)
            return work

        work = set_up(0)
        cmds = commands(args.workload, args.seed)
        passes = []
        measure_start = time.monotonic()
        while not passes or time.monotonic() - measure_start < args.seconds:
            passes.append(run_pass(cmds, work, env, deadline))
            if time.monotonic() > deadline:
                break
        if args.trace:
            traced = run_pass(cmds, work, env, deadline, traced=True)
        else:
            # The other set-ups run after the passes, so that the median
            # spans the run instead of one stretch of it.
            traced = []
            for rep in range(1, SETUP_REPS):
                if time.monotonic() > deadline:
                    break
                set_up(rep)
        failed = len(failures)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    first = {r.cmd.id: r for r in passes[0]}
    records = []
    for p in passes + [traced]:
        for r in p:
            problems = check(r, expected.get(r.cmd.id))
            if r.sha256 != first[r.cmd.id].sha256:
                problems.append("stdout differs from the first pass")
            failures += [f"{r.cmd.id}: {msg}" for msg in problems]
            records.append((r, bool(problems)))
    attempted += len(records)
    failed += sum(1 for _, bad in records if bad)
    missing = sum(len(cmds) - len(p) for p in passes + ([traced] if args.trace else []))
    if missing:
        failures.append(f"{missing} commands not started before the run deadline")
        attempted += missing
        failed += missing

    if args.trace:
        untraced_total = statistics.median(sum(r.wall for r in p) for p in passes)
        metrics, problems, shapes = per_layer(traced, untraced_total)
        problems += shape_problems(shapes)
        if args.workload == "cohomology-ladder" and (9, 9, 3) not in {s[:3] for s in shapes}:
            problems.append("the traced ladder did not build the adjoint d_3 of h9")
        failures += problems
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(setup_times, passes)
        units = END_TO_END

    aggregate_sha = hashlib.sha256("".join(
        r.sha256 for r in passes[0]).encode()).hexdigest()
    info["loadavg_end"] = (read_proc("/proc/loadavg") or "").strip()
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": info, "passes": len(passes),
        "aggregate_sha256": aggregate_sha,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures[:200],
        "commands": [{"id": r.cmd.id, "exit": r.code, "wall_s": r.wall, "cpu_s": r.cpu,
                      "peak_rss_kb": r.rss_kb, "stdout_sha256": r.sha256,
                      "traced": r.spans is not None, "failed": bad}
                     for r, bad in records],
        "metrics": metrics,
    }
    result_path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for msg in failures[:20]:
        print(f"FAIL {msg}")
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"commands={sum(len(p) for p in passes)} error_rate={result['error_rate']:.4f} ratio "
          f"aggregate_sha256={aggregate_sha} result={os.path.relpath(result_path, ROOT)}")
    for name, value in metrics.items():
        if not args.trace or not name.endswith(".calls"):
            print(f"  {name} = {value:.6g} {units[name]}")
    walls = [r.wall for p in passes for r in p]
    if args.trace:
        print(f"  trace.overhead_s = {metrics['trace.total_s'] - untraced_total:.6g} s "
              "(printed only: traced minus untraced total_s)")
    else:
        print(f"  cmd_p50_s = {statistics.median(walls):.6g} s (printed only)")
        if len(walls) >= P90_MIN_COMMANDS:
            print(f"  cmd_p90_s = {quantile(walls, 0.9):.6g} s (printed only)")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
