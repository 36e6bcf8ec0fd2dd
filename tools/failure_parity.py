"""Exit code and last stderr line of ``fedsim run`` over a grid of
configs that fail, or nearly fail, in every way a run can.

The grid is 288 small worlds (3 classes of 20 examples, 8 hidden units,
3 fast learners at 1 ms a batch and 2 slow ones, 2 rounds of 2 epochs, a
40 ms async budget, seed 11): every policy (sync, semisync, async) x task
(softmax_regression, mlp1) x optimizer (vanilla, momentum, fedprox) x
learning rate (1e300, 5e10, 0.1) x slow latency (3 or 1e305 ms) x batch
size (4 or 100), and each async world once more under ``fedasync_poly``.
Huge learning rates diverge in training or evaluation; 1e305 ms batches
push a barrier round past the float range.

After the grid come 15 hand-written rows, each the grid's sync softmax
vanilla world (learning rate 0.1, 3 ms slow batches, batch size 4) with
one setting replaced: the config refusals (a failed cast, a bound, a
clock floor, a lambda list) that exit 2 with the violation as the last
line, a 400-digit batch size that runs, and worlds too large to build,
which fail the run.

    python tools/failure_parity.py SRC [SRC2] [--only ID ...]

runs ``python -m fedsim run`` on each config, two at a time, with
``PYTHONPATH=SRC``, a checkout's ``src`` directory, and prints one JSON
line per config: ``{"id", "exit", "last"}``. Given a second tree it runs
the grid on both and prints only the configs whose exit code or last
stderr line differ, as ``{"id", "a", "b"}``. The exit-code counts go to
stderr. Stdlib only, so it runs against any tree.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

SEED = 11
JOBS = 2
POLICIES = ("sync", "semisync", "async")
TASKS = ("softmax_regression", "mlp1")
OPTIMIZERS = ("vanilla", "momentum", "fedprox")
ETAS = ("1e300", "5e10", "0.1")
SLOW_MS = ("3", "1e305")
BATCHES = ("4", "100")

TEMPLATE = """\
[task]
kind = {task}
hidden_dim = 8
num_classes = 3
per_class = 20
[learners]
num_fast = 3
num_slow = 2
t_beta_fast_ms = 1
t_beta_slow_ms = {slow_ms}
batch_size = {batch}
[protocol]
policy = {policy}
rounds = 2
epochs = 2
time_budget_ms = 40
[optimizer]
kind = {optimizer}
eta = {eta}
[weighting]
scheme = {scheme}
"""


def grid() -> dict[str, str]:
    """Config text of every grid entry, by id, in grid order."""
    configs = {}
    for policy, task, optimizer, eta, slow_ms, batch in itertools.product(
            POLICIES, TASKS, OPTIMIZERS, ETAS, SLOW_MS, BATCHES):
        schemes = ("fedavg_static", "fedasync_poly") if policy == "async" \
            else ("fedavg_static",)
        for scheme in schemes:
            cid = (f"{policy}-{task}-{optimizer}-eta{eta}-slow{slow_ms}"
                   f"-batch{batch}-{scheme}")
            configs[cid] = TEMPLATE.format(
                policy=policy, task=task, optimizer=optimizer, eta=eta,
                slow_ms=slow_ms, batch=batch, scheme=scheme)
    return configs


BASE = TEMPLATE.format(
    policy="sync", task="softmax_regression", optimizer="vanilla", eta="0.1",
    slow_ms="3", batch="4", scheme="fedavg_static")

# id -> (a line of BASE, the text that replaces it). A new key joins the
# section of the line it follows, since configparser rejects a repeated
# section. No row sets [experiment] seed, which --seed replaces.
EDITS = {
    "batch-not-int": ("batch_size = 4", "batch_size = abc"),
    "batch-400-digits": ("batch_size = 4", "batch_size = " + "9" * 400),
    "eta-not-number": ("eta = 0.1", "eta = fast"),
    "eta-inf": ("eta = 0.1", "eta = inf"),
    "eta-zero": ("eta = 0.1", "eta = 0"),
    "gamma-one": ("eta = 0.1", "eta = 0.1\ngamma = 1"),
    "mixing-above-one": ("scheme = fedavg_static",
                         "scheme = fedavg_static\nmixing = 1.5"),
    "fast-below-1us": ("t_beta_fast_ms = 1", "t_beta_fast_ms = 0.0004"),
    "budget-past-clock": ("time_budget_ms = 40", "time_budget_ms = 1e306"),
    "semisync-lambdas-share-a-cell": (
        "policy = sync", "policy = semisync\nlambda = 1, 1.0000001"),
    "semisync-lambda-negative": (
        "policy = sync", "policy = semisync\nlambda = 1, -2"),
    "semisync-lambda-zero": ("policy = sync", "policy = semisync\nlambda = 0"),
    "sync-lambda-list": ("policy = sync", "policy = sync\nlambda = 1, 2"),
    "per-class-unallocatable": ("per_class = 20",
                                "per_class = 1000000000000"),
    "per-class-400-digits": ("per_class = 20", "per_class = " + "9" * 400),
}


def refusals() -> dict[str, str]:
    """Config text of every hand-written row, by id, in table order."""
    return {cid: BASE.replace(old + "\n", new + "\n", 1)
            for cid, (old, new) in EDITS.items()}


def run_one(src: str, cid: str, text: str) -> dict:
    """``{"id", "exit", "last"}`` of one ``fedsim run`` of ``text`` with
    the package from ``src``."""
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        path = os.path.join(tmp, "run.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "fedsim", "run", path, "--seed", str(SEED),
             "--out", os.path.join(tmp, "out")],
            capture_output=True, text=True, env=env, cwd=tmp,
        )
    lines = proc.stderr.splitlines()
    return {"id": cid, "exit": proc.returncode,
            "last": lines[-1] if lines else ""}


def run_grid(src: str, configs: dict[str, str]) -> list[dict]:
    """One row per config, in ``configs`` order."""
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        return list(pool.map(lambda item: run_one(src, *item),
                             configs.items()))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="SRC",
                        help="a checkout's src directory (one or two)")
    parser.add_argument("--only", action="append", metavar="ID",
                        help="run only this row (repeatable)")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two src directories")
    configs = {**grid(), **refusals()}
    if args.only:
        unknown = [cid for cid in args.only if cid not in configs]
        if unknown:
            parser.error(f"no row {', '.join(unknown)}")
        configs = {cid: configs[cid] for cid in args.only}
    runs = [run_grid(src, configs) for src in args.trees]
    for src, rows in zip(args.trees, runs):
        counts = Counter(row["exit"] for row in rows)
        print(f"{src}: {len(rows)} configs, " + ", ".join(
            f"{n} exit {code}" for code, n in sorted(counts.items())),
            file=sys.stderr)
    rows = runs[0]
    if len(runs) == 2:
        rows = [
            {"id": a["id"], "a": {"exit": a["exit"], "last": a["last"]},
             "b": {"exit": b["exit"], "last": b["last"]}}
            for a, b in zip(*runs)
            if (a["exit"], a["last"]) != (b["exit"], b["last"])
        ]
        print(f"{len(rows)} of {len(configs)} configs differ", file=sys.stderr)
    for row in rows:
        print(json.dumps(row))
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
