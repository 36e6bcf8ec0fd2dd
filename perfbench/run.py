"""fedsim end-to-end benchmark: ``fedsim run`` on three federation workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Runs are closed-loop: one ``fedsim run`` at a time, from this process.

The host is a shared VM whose speed changes by up to 2x with its
neighbours' load, in stretches from a fraction of a second to many minutes
(CPU time slows as much as wall time, so it is not descheduling). No
statistic of an invocation's own run times stays put across such
stretches. So ``--trace 0`` times the checkout's fedsim against a frozen
copy of it (baseline/fedsim_base, the package as it was when the benchmark
was written) in pairs of runs back to back, alternating which goes first,
and reports each time metric as the median over the pairs of checkout /
baseline, times the baseline's figure on a quiet host
(workloads.BASELINE_QUIET). Both sides of a pair see nearly the same host,
so the ratio holds still while the raw times wander; the figures read as
seconds on a quiet host, and a change to the checkout moves them by its
own ratio.

A pair in fresh interpreters (child.py, ``src`` and ``baseline`` on
PYTHONPATH, BLAS pinned to one thread) starts every FRESH_PERIOD_S and gives
setup_s and peak_rss_mb; the pairs between are forked from this process
after it has imported both packages the same way (child.run_once) and give
run_s and cpu_s. New pairs start while the last pair of their kind would
still end within ``--seconds`` and until each kind has its MIN_RUNS.
steps_per_s is the run's output-derived local SGD steps over run_s;
peak_rss_mb is the median over the checkout's fresh runs, unscaled. The
record keeps every raw time, with its run count, median and quartiles, and
the pair ratios.

Every run's output tree is hashed; at the default seed the checkout's
digest must equal the one pinned in workloads.py, and at any seed all runs
of one side in an invocation must agree. A failed run exits non-zero,
misses the digest or writes inconsistent outputs; it counts in
``failed``. Step, commit and evaluation counts come from the run's output
files, not from hooks.

``--trace 1`` runs the checkout alone, alternating traced and untraced
fresh runs, and reports the per-layer metrics of the fastest traced run
(hooks.py), with ``trace_overhead`` = fastest traced run_s / fastest
untraced run_s. A hook that no longer finds its function reports -1 for
the metrics it feeds and is counted in ``trace.hooks_missing``.

The last stdout line is the JSON result; the full record, with the host,
versions, thread setting and source revision, goes to
``.perfbench-out/results/`` in the checkout. ``--smoke`` drives every
workload at reduced size (``--small``) through both paths and checks that
each metric named in BENCHMARK.json is printed once, with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

from workloads import (BASELINE_QUIET, DEFAULT_SEED, GOLDEN, WORKLOADS,
                       config_text)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BASE = os.path.join(HERE, "baseline")
# Side of a run -> (package it imports, directory that package is in).
PACKAGES = {"program": ("fedsim", SRC), "base": ("fedsim_base", BASE)}
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
CHILD = os.path.join(HERE, "child.py")

CHILD_TIMEOUT_S = 120
# Least runs (--trace 1) or pairs (--trace 0) of each kind per invocation,
# whatever --seconds says.
MIN_RUNS = {"forked": 6, "fresh": 2, "traced": 3}
# With --trace 0, a pair of runs in fresh interpreters starts every
# FRESH_PERIOD_S seconds; the pairs between are forked.
FRESH_PERIOD_S = 20.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "run_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

_LATENCY = ("calls", "busy_s", "us_p50", "us_p99")
# Span metric -> fields reported from its traced spans.
SPAN_FIELDS = {
    "tasks.loss_and_grad": _LATENCY,
    "tasks.evaluate": _LATENCY,
    "optimizers.step": _LATENCY,
    "optimizers.run_client_opt": ("calls", "self_s"),
    "params.axpy": ("calls",),
    "params.scale": ("calls",),
    "params.zeros_like": ("calls", "busy_s"),
    "params.weighted_average": ("calls", "busy_s"),
    "controller.cached_update": _LATENCY,
    "controller.record_fetch": _LATENCY,
    "controller.compute_contribution": ("calls",),
    "engine.run_policy": ("busy_s",),
    "runner.export_metrics": ("busy_s",),
    "runner.save_model": ("busy_s",),
    "runner.build_world": ("busy_s",),
    "partition.make_sizes": ("busy_s",),
    "partition.assign_classes": ("busy_s",),
    "config.parse_config": ("busy_s",),
}
FIELD_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s",
               "us_p50": "us", "us_p99": "us"}
PER_LAYER = {
    **{f"{span}.{field}": FIELD_UNITS[field]
       for span, fields in SPAN_FIELDS.items() for field in fields},
    "engine.self_s": "s",
    "engine.commits": "count",
    "engine.evals": "count",
    "engine.events": "count",
    "engine.virtual_s": "s",
    "engine.idle_share": "ratio",
    "engine.host_us_per_commit": "us",
    "runner.output_bytes": "bytes",
    "setup.import_s": "s",
    "trace_overhead": "ratio",
    "trace.hooks_missing": "count",
}
MISSING = -1


class RunFailed(Exception):
    """A run exited non-zero or left outputs that fail a check."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, BASE, env.get("PYTHONPATH", "")) if p
    )
    env.update({var: "1" for var in THREAD_VARS})
    return env


def call_child(args: list[str]) -> dict:
    """Run child.py and return the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, CHILD, *args], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RunFailed(f"child exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(lines[-1])


def load_packages():
    """Import fedsim and fedsim_base into this process, BLAS pinned as in
    the fresh children, so that forked runs start with them imported."""
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path[:0] = [SRC, BASE]
    import child
    import fedsim.cli  # noqa: F401
    import fedsim_base.cli  # noqa: F401

    gc.freeze()
    return child


def call_forked(child, args: list[str], package: str, log: str) -> dict:
    """``child.run_once`` of ``package`` in a process forked from this one;
    stdout and stderr of the run go to ``log``."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            log_fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(log_fd, 1)
            os.dup2(log_fd, 2)
            result = child.run_once(args[0], args[1], int(args[2]), package)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(result).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                raise RunFailed(f"forked run took over {CHILD_TIMEOUT_S} s")
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not chunks:
        with open(log, encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-5:]
        raise RunFailed(f"forked run exited {code}: " + " | ".join(tail))
    return json.loads(b"".join(chunks))


def tree_digest(root: str) -> str:
    """sha256 over every file under ``root``: sorted relative paths, each
    followed by the sha256 of its bytes."""
    entries = []
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                entries.append((os.path.relpath(path, root),
                                hashlib.sha256(fh.read()).hexdigest()))
    h = hashlib.sha256()
    for rel, digest in sorted(entries):
        h.update(f"{rel}\0{digest}\n".encode())
    return h.hexdigest()


def read_outputs(root: str, workload: str) -> dict:
    """Counts derived from a run's output files.

    Local steps are each (learner, round) row's active time in idle.csv over
    the per-batch latency of the learner's device class, taken from
    partition_report.json and the config.
    """
    learners = WORKLOADS[workload]["learners"]
    latency_ms = {"fast": float(learners["t_beta_fast_ms"]),
                  "slow": float(learners["t_beta_slow_ms"])}
    with open(os.path.join(root, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(root, "partition_report.json"), encoding="utf-8") as fh:
        devices = {entry["learner_id"]: entry["device_class"]
                   for entry in json.load(fh)["learners"]}
    steps = 0
    idle_ms = active_ms = 0.0
    with open(os.path.join(root, "idle.csv"), encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            lid, _, active, idle = line.split(",")
            batches = float(active) / latency_ms[devices[int(lid)]]
            if abs(batches - round(batches)) > 1e-6:
                raise RunFailed(f"idle.csv: learner {lid} active {active} ms "
                                "is not a whole number of batches")
            steps += round(batches)
            active_ms += float(active)
            idle_ms += float(idle)
    with open(os.path.join(root, "events.jsonl"), encoding="utf-8") as fh:
        events = sum(1 for _ in fh)
    if steps < 1 or summary["update_requests"] < 1:
        raise RunFailed(f"run trained nothing: {steps} steps")
    output_bytes = sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, files in os.walk(root) for name in files
    )
    return {
        "steps": steps,
        "commits": summary["update_requests"],
        "evals": summary["evaluations"],
        "virtual_s": summary["total_virtual_ms"] / 1000.0,
        "events": events,
        "idle_share": idle_ms / (idle_ms + active_ms),
        "output_bytes": output_bytes,
    }


def one_run(config: str, workload: str, seed: int, kind: str, side: str,
            run_dir: str, expect: str | None, want_env: bool = False,
            child=None) -> dict:
    """One ``fedsim run``; checks and counts its outputs.

    ``kind`` is "fresh" (a new interpreter), "traced" (the same, through
    hooks.py) or "forked" (forked from this process, which ``child`` says
    has both packages imported). ``side`` is "program" (the checkout's
    fedsim) or "base" (the frozen copy in baseline/).
    """
    shutil.rmtree(run_dir, ignore_errors=True)
    args = [config, run_dir, str(seed)]
    package, package_dir = PACKAGES[side]
    record = {"kind": kind, "side": side, "ok": False}
    t0 = time.perf_counter()
    try:
        if kind == "forked":
            record.update(call_forked(child, args, package, run_dir + ".log"))
        else:
            record.update(call_child(
                args + (["--base"] if side == "base" else [])
                + (["--trace"] if kind == "traced" else [])
                + (["--env"] if want_env else [])))
        if record["rc"] != 0:
            raise RunFailed(f"fedsim run returned {record['rc']}")
        if not record["fedsim_file"].startswith(package_dir + os.sep):
            raise RunFailed(f"imported fedsim from {record['fedsim_file']}")
        record["digest"] = tree_digest(run_dir)
        if expect is not None and record["digest"] != expect:
            raise RunFailed(f"output digest {record['digest']} != {expect}")
        record["outputs"] = read_outputs(run_dir, workload)
        record["ok"] = True
    except (RunFailed, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        print(f"run failed: {record['error']}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        record["wall_s"] = time.perf_counter() - t0
    return record


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced run; MISSING where a hook is gone."""
    spans = record["trace"]["spans"]
    missing = record["trace"]["missing"]
    out = {}
    for span, fields in SPAN_FIELDS.items():
        for field in fields:
            value = spans[span][field]
            out[f"{span}.{field}"] = MISSING if span in missing else value
    outputs = record["outputs"]
    policy_gone = "engine.run_policy" in missing
    policy_s = spans["engine.run_policy"]["busy_s"]
    out.update({
        "engine.self_s": (MISSING if policy_gone
                          else spans["engine.run_policy"]["self_s"]),
        "engine.commits": outputs["commits"],
        "engine.evals": outputs["evals"],
        "engine.events": outputs["events"],
        "engine.virtual_s": outputs["virtual_s"],
        "engine.idle_share": outputs["idle_share"],
        "engine.host_us_per_commit": (
            MISSING if policy_gone else policy_s / outputs["commits"] * 1e6
        ),
        "runner.output_bytes": outputs["output_bytes"],
        "setup.import_s": record["import_s"],
        "trace.hooks_missing": sum(len(h) for h in missing.values()),
    })
    return out


def fastest(rows: list[dict]) -> dict:
    return min(rows, key=lambda row: row["run_s"])


def summary(values: list[float]) -> dict:
    """Run count, median and quartiles of one metric, for the record."""
    q = (statistics.quantiles(values, n=4) if len(values) > 1
         else [values[0]] * 3)
    return {"n": len(values), "min": min(values), "q1": q[0],
            "median": statistics.median(values), "q3": q[2],
            "max": max(values)}


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fedsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def measure_traced(config: str, workload: str, seed: int, seconds: float,
                   least: dict, work: str, golden: str | None) -> list[dict]:
    """Traced and untraced fresh runs of the checkout, alternating."""
    runs: list[dict] = []
    last_wall = {"traced": 0.0, "fresh": 0.0}
    t_start = time.perf_counter()
    while True:
        kind = ("traced", "fresh")[len(runs) % 2]
        done = all(sum(r["kind"] == k for r in runs) >= n
                   for k, n in least.items())
        if done and (time.perf_counter() - t_start + last_wall[kind]
                     > seconds):
            break
        expect = golden or next((r["digest"] for r in runs if r["ok"]), None)
        want_env = not any(r["ok"] and "env" in r for r in runs)
        runs.append(one_run(config, workload, seed, kind, "program",
                            os.path.join(work, "out"), expect, want_env))
        last_wall[kind] = runs[-1]["wall_s"]
    return runs


def measure_pairs(config: str, workload: str, seed: int, seconds: float,
                  least: dict, work: str,
                  golden: str | None) -> list[tuple[dict, dict]]:
    """(checkout, baseline) pairs of runs, run back to back.

    A fresh pair is due every FRESH_PERIOD_S; the pairs between are forked
    from this process. Which side goes first alternates from pair to pair.
    """
    child = load_packages()
    pairs: list[tuple[dict, dict]] = []
    last_wall = {"fresh": 0.0, "forked": 0.0}
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        count = {k: sum(p[0]["kind"] == k for p in pairs) for k in last_wall}
        due = count["fresh"] < 1 + elapsed // FRESH_PERIOD_S
        kind = "fresh" if due else "forked"
        # Start no pair that would end past --seconds, going by the last one
        # of its kind, unless some kind still lacks its least pairs.
        if elapsed + last_wall[kind] > seconds:
            short = [k for k in last_wall if count[k] < least[k]]
            if not short:
                break
            kind = short[0]
        t0 = time.perf_counter()
        pair = {}
        order = ("program", "base") if len(pairs) % 2 == 0 else (
            "base", "program")
        for side in order:
            same = [p[side == "base"] for p in pairs]
            expect = next((r["digest"] for r in same if r["ok"]), None)
            if side == "program" and golden:
                expect = golden
            want_env = side == "program" and not any(
                r["ok"] and "env" in r for r in same)
            pair[side] = one_run(config, workload, seed, kind, side,
                                 os.path.join(work, "out"), expect, want_env,
                                 child)
        pairs.append((pair["program"], pair["base"]))
        last_wall[kind] = time.perf_counter() - t0
    return pairs


def median_ratio(pairs: list[tuple[dict, dict]], key: str) -> float:
    return statistics.median(a[key] / b[key] for a, b in pairs)


def pair_metrics(pairs: list[tuple[dict, dict]], workload: str) -> dict:
    """End-to-end metrics from (checkout, baseline) pairs whose runs both
    passed: each time metric is the median over the pairs of checkout /
    baseline, times the baseline's quiet-host figure. The median, because
    a pair that straddles a change in host speed gives a wild ratio."""
    ok = [(a, b) for a, b in pairs if a["ok"] and b["ok"]]
    forked = [(a, b) for a, b in ok if a["kind"] == "forked"]
    fresh = [(a, b) for a, b in ok if a["kind"] == "fresh"]
    if not forked or not fresh:
        return {}
    quiet = BASELINE_QUIET[workload]
    run_s = median_ratio(forked, "run_s") * quiet["run_s"]
    return {
        "run_s": run_s,
        "steps_per_s": forked[0][0]["outputs"]["steps"] / run_s,
        "setup_s": median_ratio(fresh, "setup_s") * quiet["setup_s"],
        "cpu_s": median_ratio(forked, "cpu_s") * quiet["cpu_s"],
        "peak_rss_mb": statistics.median(a["peak_rss_mb"] for a, _ in fresh),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool,
          small: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    work = os.path.join(OUT_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    config = os.path.join(work, "config.ini")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text(workload, small))
    golden = GOLDEN[workload] if seed == DEFAULT_SEED and not small else None
    kinds = ("traced", "fresh") if trace else ("fresh", "forked")
    least = {kind: 1 if small else MIN_RUNS[kind] for kind in kinds}

    pairs: list[tuple[dict, dict]] = []
    if trace:
        runs = measure_traced(config, workload, seed, seconds, least, work,
                              golden)
    else:
        pairs = measure_pairs(config, workload, seed, seconds, least, work,
                              golden)
        runs = [r for pair in pairs for r in pair]
    shutil.rmtree(work, ignore_errors=True)
    ok = [r for r in runs if r["ok"]]
    groups = {}
    for r in ok:
        groups.setdefault(f"{r['side']}.{r['kind']}", []).append(r)

    if trace:
        metrics = {}
        if "program.traced" in groups and "program.fresh" in groups:
            best = fastest(groups["program.traced"])
            metrics = layer_metrics(best)
            metrics["trace_overhead"] = (
                best["run_s"] / fastest(groups["program.fresh"])["run_s"])
        units = PER_LAYER
    else:
        metrics = pair_metrics(pairs, workload)
        units = END_TO_END
    failed = len(runs) - len(ok)
    missing = next((r["trace"]["missing"]
                    for r in groups.get("program.traced", ())), {})
    for metric, hooks in sorted(missing.items()):
        print(f"trace: layer {metric.split('.')[0]}: {', '.join(hooks)} "
              f"missing; {metric} reported as {MISSING}", file=sys.stderr)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    ratios = {
        f"{kind}.{key}": summary([a[key] / b[key] for a, b in pairs
                                  if a["ok"] and b["ok"]
                                  and a["kind"] == kind])
        for kind, key in (("forked", "run_s"), ("forked", "cpu_s"),
                          ("fresh", "setup_s"))
        if any(a["ok"] and b["ok"] and a["kind"] == kind for a, b in pairs)
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "small": small,
        "env": {**next((r["env"] for r in ok if "env" in r), {}),
                "git_commit": git_revision(),
                "source_sha256": source_digest()},
        "fail_ratio": failed / len(runs),
        "counts": next((r["outputs"] for r in ok
                        if r["side"] == "program"), None),
        "missing_hooks": missing,
        "spread": {
            f"{group}.{key}": summary([r[key] for r in rows])
            for group, rows in groups.items()
            for key in ("run_s", "cpu_s", "setup_s", "peak_rss_mb")
            if key in rows[0]
        },
        "pair_ratios": ratios,
        "runs": runs,
        "result": result,
    }
    return result, record


def smoke() -> int:
    """Drive every workload at reduced size through both paths and check
    each metric of BENCHMARK.json is printed once, with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")

    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        dupes = {k for k in keys if keys.count(k) > 1}
        if dupes:
            raise ValueError(f"printed more than once: {sorted(dupes)}")
        return dict(pairs)

    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload",
                     workload, "--trace", str(trace), "--seconds", "1",
                     "--small"],
                    capture_output=True, text=True, timeout=170,
                )
            except subprocess.TimeoutExpired:
                problems.append(f"{label}: timed out")
                continue
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}")
                continue
            try:
                result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
            except ValueError as exc:
                problems.append(f"{label}: {exc}")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: run not correct")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            for name in sorted(set(expected) | set(got)):
                if name not in got:
                    problems.append(f"{label}: {name} not printed")
                elif name not in expected:
                    problems.append(f"{label}: {name} not in BENCHMARK.json")
                elif got[name]["unit"] != expected[name]:
                    problems.append(f"{label}: {name} unit "
                                    f"{got[name]['unit']} != {expected[name]}")
                elif not isinstance(got[name]["value"], (int, float)):
                    problems.append(f"{label}: {name} value is not a number")
            print(f"{label}: {len(got)} metrics, "
                  f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems, "problems": len(problems)}))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced workload sizes (the smoke check's)")
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload and metric at small size")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fedsim", "cli.py")):
        print(f"no fedsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    result, record = bench(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.small)
    results_dir = os.path.join(OUT_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(
        results_dir,
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"{'-small' if args.small else ''}.json",
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(f"record: {path}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
