#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pillowdeg CLI.

    python3 perfbench/run.py --workload table_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1            # every workload, every metric
    python3 perfbench/run.py --self-test               # the oracle rejects bad output

Run it from the root of a checkout.  With ``--trace 0`` it drives the CLI as
users do: one ``python -m pillowdeg ...`` subprocess per invocation with
``PYTHONPATH=src``, a closed loop with one client and one invocation in
flight.  With ``--trace 1`` it replays the same argv in-process through
``pillowdeg.cli.main``, once untraced and once with spans around each
layer's public functions (see layers.py), and reports per-layer numbers and
the tracing overhead.

``--seconds`` sets the run's nominal length: the workload's cycle of
invocations (see workloads.py) runs round(seconds / NOMINAL_CYCLE_S)
times, so two commits measured with the same ``--seconds`` do the same
work.  End-to-end times are scaled by the host's speed, measured with a
probe between invocations (see PROBE below).  Every output is checked
against closed forms (oracle.py); a wrong output counts as a failed
invocation.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
metric names, units and directions come from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, PAIR_KERNEL, Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # for the in-process replay and the extension check

# One cycle's wall time on a 2-core x86-64 box with Python 3.11; sets how
# many cycles a run of --seconds makes.
NOMINAL_CYCLE_S = {"table_sweep": 6.4, "verify_sweep": 6.0, "pillow_export": 2.5}
SETUP_SAMPLES = 15
# On a shared host the CPU speed drifts: on the 2-core box this was tuned
# on, the quartile spread of 20 s mean speeds was about 13% for any window
# from 5 s to 60 s, so longer runs do not average it out.  A fixed
# pure-Python probe, which does not touch pillowdeg, runs in a fresh
# interpreter after every invocation; the run's times are divided, and its
# throughput multiplied, by median(probe) / PROBE_REF_S.  The figures
# reported are thus those of a host on which the probe takes PROBE_REF_S;
# the unscaled ones are printed on the "# raw" line.
PROBE = ["-S", "-E", "-c", "sum(i * i for i in range(200000))"]
PROBE_REF_S = 0.03
INVOCATION_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
TAIL_BEYOND = 10


# Runs in a small interpreter of its own that starts every timed child.  A
# child's ru_maxrss counts the resident set of the process it was spawned
# from, so spawning from the harness would report the harness's memory as
# the program's peak; this process stays under 10 MB.  One request per
# line: timeout, then argv, tab-separated.  Reply: exit code (or
# "timeout"), wall seconds, peak RSS in KiB.
SPAWNER = r"""
import os, signal, sys, time
pid = 0
timed_out = False

def expire(signum, frame):
    global timed_out
    timed_out = True
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass

signal.signal(signal.SIGALRM, expire)
for line in sys.stdin:
    timeout, *argv = line.rstrip("\n").split("\t")
    timed_out = False
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, "stdout.txt", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    _, status, usage = os.wait4(pid, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    code = "timeout" if timed_out else os.waitstatus_to_exitcode(status)
    print(code, repr(wall), usage.ru_maxrss, flush=True)
"""


class Spawner:
    """Starts interpreters one at a time in ``scratch`` with PYTHONPATH=src;
    each child's stdout goes to scratch/stdout.txt."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.proc = subprocess.Popen([sys.executable, "-S", "-E", "-c", SPAWNER], cwd=scratch,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)

    def run(self, args: list[str], timeout: float):
        """Return (exit code or None on timeout, wall s, peak RSS bytes, stdout)."""
        self.proc.stdin.write("\t".join([str(max(timeout, 0.1)), sys.executable, *args]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 3:
            raise RuntimeError("the spawner process died")
        code = None if reply[0] == "timeout" else int(reply[0])
        stdout = (self.scratch / "stdout.txt").read_text(errors="replace")
        return code, float(reply[1]), int(reply[2]) * 1024, stdout

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10 if exc[0] is None else 0.1)
        except subprocess.TimeoutExpired:
            pass
        if self.proc.returncode is None or exc[0] is not None:
            # the spawner and any child still running share its process group
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        self.proc.stdout.close()


def judge(inv: workloads.Invocation, code, stdout: str, scratch: Path) -> str | None:
    """Why the invocation failed, or None; removes its --out file."""
    out_content = None
    if inv.out is not None:
        path = scratch / inv.out
        if path.exists():
            out_content = path.read_text()
            path.unlink()
    if code is None:
        return "timed out"
    if code != 0:
        return f"exit code {code}"
    try:
        return inv.validate(stdout, out_content)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {exc!r}"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, argv, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")


# ---------------------------------------------------------------------------
# end to end


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure_end_to_end(warmup, runs, scratch: Path, tally: Tally, notes: list[str],
                       spawner: Spawner) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S

    def invoke(inv):
        code, wall, rss, stdout = spawner.run(
            ["-m", "pillowdeg", *inv.argv],
            min(INVOCATION_TIMEOUT_S, deadline - time.perf_counter()))
        tally.record(inv.argv, judge(inv, code, stdout, scratch))
        return wall, rss

    setup, walls, rss, probes, configs = [], [], [], [], 0

    def sample_setup():
        code, wall, _, _ = spawner.run(["-c", "import pillowdeg.cli"], 30.0)
        tally.record(["import pillowdeg.cli"], None if code == 0 else f"exit code {code}")
        setup.append(wall)

    invoke(warmup)  # untimed: writes __pycache__ before anything is timed
    for i, inv in enumerate(runs):
        # set-up samples are spread over the run, so a slow spell of the
        # host does not decide all of them
        for _ in range(round((i + 1) * SETUP_SAMPLES / len(runs))
                       - round(i * SETUP_SAMPLES / len(runs))):
            sample_setup()
        if time.perf_counter() >= deadline:
            tally.record(inv.argv, "run deadline passed before it started")
            continue
        wall, peak = invoke(inv)
        walls.append(wall)
        rss.append(peak)
        configs += inv.configs
        probes.append(spawner.run(PROBE, 30.0)[1])
    if not walls:
        return {}
    tail_value, tail_pct = tail(walls)
    raw = {
        "throughput_configs_per_s": configs / sum(walls),
        "invocation_p50_s": statistics.median(walls),
        "invocation_tail_s": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss) / 2**20,
    }
    slowdown = statistics.median(probes) / PROBE_REF_S
    notes.append(f"invocation_tail_s is the p{tail_pct:.1f} of {len(walls)} invocations")
    notes.append(f"setup_s is the median of {len(setup)} interpreters")
    notes.append(f"host slowdown {slowdown:.4f} (median of {len(probes)} probes / {PROBE_REF_S} s)")
    notes.append("raw " + json.dumps(raw))
    scaled = {name: value / slowdown for name, value in raw.items()}
    scaled["throughput_configs_per_s"] = raw["throughput_configs_per_s"] * slowdown
    scaled["peak_rss_mb"] = raw["peak_rss_mb"]
    return scaled


# ---------------------------------------------------------------------------
# per layer


def exported_bytes(inv: workloads.Invocation, stdout: str, scratch: Path) -> int:
    """Bytes an export invocation delivered, to its --out file or inside stdout."""
    if "--export" not in inv.argv:
        return 0
    if inv.out is not None:
        path = scratch / inv.out
        return path.stat().st_size if path.exists() else 0
    try:
        return len(json.loads(stdout).get("export", "").encode())
    except (ValueError, AttributeError):
        return 0


def replay(cli_module, inv, scratch: Path, tally: Tally,
           tracer: Tracer | None) -> tuple[float, int]:
    """Run one invocation in-process; return (wall s of main, stdout bytes)."""
    stdout = io.StringIO()
    crash = None
    cwd = os.getcwd()
    os.chdir(scratch)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli_module.main(list(inv.argv))
            except Exception as exc:  # a crash is a failed invocation
                code, crash = None, f"raised {exc!r}"
            wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    text = stdout.getvalue()
    if tracer is not None:
        tracer.export_bytes += exported_bytes(inv, text, scratch)
    tally.record(inv.argv, crash or judge(inv, code, text, scratch))
    return wall, len(text.encode())


def measure_layers(warmup, runs, scratch: Path, tally: Tally, notes: list[str],
                   spans_path: Path) -> dict:
    import pillowdeg.cli as cli_module

    replay(cli_module, warmup, scratch, tally, None)
    tracer = Tracer()
    plain = traced = 0.0
    stdout_bytes = 0
    configs = {}
    deadline = time.perf_counter() + RUN_DEADLINE_S
    for i, inv in enumerate(runs):
        if time.perf_counter() >= deadline:
            tally.record(inv.argv, "run deadline passed before it started")
            continue
        plain += replay(cli_module, inv, scratch, tally, None)[0]
        tracer.invocation, tracer.command = i, inv.command
        with tracer.installed():
            wall, nbytes = replay(cli_module, inv, scratch, tally, tracer)
        traced += wall
        stdout_bytes += nbytes
        configs[inv.command] = configs.get(inv.command, 0) + inv.configs
    if tracer.missing:
        notes.append(f"not found, traced as zero calls: {', '.join(sorted(set(tracer.missing)))}")
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        fh.write(json.dumps(["id", "invocation", "span", "parent", "start_s", "end_s"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    notes.append(f"spans written to {spans_path.relative_to(ROOT)}")

    total_configs = sum(configs.values())

    def per_config(span, command=None):
        n = configs.get(command, 0) if command else total_configs
        return tracer.calls_of(span, command) / n if n else 0.0

    s = tracer.self_s
    useful = tracer.pairs_found / tracer.comparisons if tracer.comparisons else 0.0
    metrics = {
        f"{PAIR_KERNEL}.calls": tracer.calls_of(PAIR_KERNEL),
        f"{PAIR_KERNEL}.self_s": s[PAIR_KERNEL],
        f"{PAIR_KERNEL}.comparisons": tracer.comparisons,
        "pairs.useful_ratio": useful,
        "pillow.build_pillow.calls": tracer.calls_of("pillow.build_pillow"),
        "pillow.build_pillow.self_s": s["pillow.build_pillow"],
        "pillow.build_pillow.calls_per_config": per_config("pillow.build_pillow"),
        "pillow.build_pillow.calls_per_verify_config": per_config("pillow.build_pillow", "verify"),
        "pillow.verify_sphere_triangulation.calls":
            tracer.calls_of("pillow.verify_sphere_triangulation"),
        "pillow.verify_sphere_triangulation.self_s": s["pillow.verify_sphere_triangulation"],
        "pillow.count_disjoint_line_pairs.calls_per_config":
            per_config("pillow.count_disjoint_line_pairs"),
        "pillow.count_disjoint_line_pairs.calls_per_verify_config":
            per_config("pillow.count_disjoint_line_pairs", "verify"),
        "pillow.disjoint_pairs_via_degrees.self_s": s["pillow.disjoint_pairs_via_degrees"],
        "pillow.stages.self_s": s["pillow.stages"],
        "pillow.transpose.self_s": s["pillow.transpose"],
        "pillow.export.calls": tracer.calls_of("pillow.export"),
        "pillow.export.self_s": s["pillow.export"],
        "pillow.export.bytes": tracer.export_bytes,
        "degeneration.build_table.self_s": s["degeneration.build_table"],
        "degeneration.verify_conservation.self_s": s["degeneration.verify_conservation"],
        "surfaces.self_s": s["surfaces"],
        "cli.self_s": s["cli"],
        "cli.stdout_bytes": stdout_bytes,
        "trace.untraced_s": plain,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - plain,
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = tracer.errors[layer]
    return metrics


# ---------------------------------------------------------------------------
# entry point


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(workload: str, seed: int, cycles: int, runs) -> dict:
    compiled = importlib.util.find_spec("pillowdeg._pairs_cy") is not None
    argv = [list(inv.argv) for inv in runs]
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiled_extension": compiled,
        "comparable": not compiled,  # Tier-1 measures the pure-Python pair kernel
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "cycles": cycles,
        "argv_sha256": hashlib.sha256(json.dumps(argv).encode()).hexdigest(),
        "argv": argv,
    }


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"],
            "workloads": [w["name"] for w in spec["workloads"]]}


def run_workload(workload: str, seed: int, seconds: int,
                 trace: bool) -> tuple[dict, dict, list[str]]:
    cycles = max(1, round(seconds / NOMINAL_CYCLE_S[workload]))
    warmup, runs = workloads.WORKLOADS[workload](seed, cycles)
    env = environment(workload, seed, cycles, runs)
    tally, notes = Tally(), []
    scratch = Path(tempfile.mkdtemp(prefix="_scratch_", dir=HERE))
    try:
        if trace:
            values = measure_layers(warmup, runs, scratch, tally, notes,
                                    HERE / "out" / f"spans-{workload}-{seed}.jsonl")
        else:
            with Spawner(scratch) as spawner:
                values = measure_end_to_end(warmup, runs, scratch, tally, notes, spawner)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    result = {
        "correct": not tally.failures and bool(values),
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in specs},
    }
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing and values:
        raise SystemExit(f"BENCHMARK.json names metrics this harness does not produce: {missing}")
    notes.append(f"error_rate {len(tally.failures)}/{max(tally.attempted, 1)}"
                 f" = {len(tally.failures) / max(tally.attempted, 1):.4f}")
    notes.extend(f"FAILED {f}" for f in tally.failures[:20])
    return result, env, notes


def print_table(workload: str, result: dict, specs: list[dict]) -> None:
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for m in specs:
        value = result["metrics"][m["name"]]["value"]
        better = m.get("better", "")
        print(f"  {m['name']:<52} {value:>14.6g} {m['unit']:<10} {better}")


def self_test() -> int:
    """Feed the oracle the real and a corrupted output of a table, an export
    and a verify invocation; pass when exactly the corrupted ones fail."""
    pairs = oracle.disjoint_pairs(oracle.genus(2, 3))

    def drop_last_edge(text):
        kept = text.splitlines()
        del kept[max(i for i, line in enumerate(kept) if " -- " in line)]
        return "\n".join(kept) + "\n"

    cases = [
        (workloads.table_invocation(2, 3, "json"),
         lambda s: s.replace(f'"count": {pairs}', f'"count": {pairs + 1}')),
        (workloads.export_invocation(3, 2, "dot", "lines", "self-test.dot"), drop_last_edge),
        (workloads.verify_invocation((2, 3), (2, 2), "text"),
         lambda s: "".join(line for line in s.splitlines(True) if "(3, 2)" not in line)),
    ]
    tally = Tally()
    caught = false_alarms = 0
    scratch = Path(tempfile.mkdtemp(prefix="_scratch_", dir=HERE))
    try:
        with Spawner(scratch) as spawner:
            for inv, corrupt in cases:
                for corrupted in (False, True):
                    code, _, _, stdout = spawner.run(["-m", "pillowdeg", *inv.argv], 60.0)
                    if corrupted and inv.out:
                        path = scratch / inv.out
                        path.write_text(corrupt(path.read_text()))
                    elif corrupted:
                        stdout = corrupt(stdout)
                    reason = judge(inv, code, stdout, scratch)
                    tally.record(inv.argv, reason)
                    label = "corrupted" if corrupted else "real"
                    print(f"{label:>9} {' '.join(inv.argv)}: {reason or 'accepted'}")
                    caught += corrupted and reason is not None
                    false_alarms += not corrupted and reason is not None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ok = caught == len(cases) and false_alarms == 0
    print(f"self-test: error_rate {len(tally.failures)}/{tally.attempted}, "
          f"expected {len(cases)}/{tally.attempted}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pillowdeg CLI benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload of BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted outputs are counted as failures")
    args = parser.parse_args(argv)

    if not (SRC / "pillowdeg" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no pillowdeg sources under {SRC}, or no BENCHMARK.json", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    specs = metric_specs()
    if args.all:
        results = {}
        for name in specs["workloads"]:
            result, env, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_table(name, result, specs["per_layer" if args.trace else "end_to_end"])
            for note in notes:
                print(f"  # {note}")
            results[name] = result
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload is None:
        parser.error("--workload is required unless --all or --self-test is given")
    result, env, notes = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(env))
    for note in notes:
        print(f"# {note}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
