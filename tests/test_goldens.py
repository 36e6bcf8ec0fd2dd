"""Golden digests of every file ``run_experiment`` writes.

Criterion 10 only shows that two reruns agree; these pins show that a
refactor kept behaviour. Each cell takes one distinct path through the
engine: barrier rounds (sync, semisync matrix), every async weighting
scheme (fedasync in both alpha forms), every optimizer, both task
families, both evaluation cadences, and a model too wide to stack, whose
every arrival trains one step alone.
``config.txt`` echoes the config text and is skipped. Change a digest only
for an intended behaviour change, and record why in CHANGES.md.

The BLAS thread count is an input to the bytes: OpenBLAS splits a large
enough matmul across threads, and the split changes how its sums round.
So the cells run twice, in two interpreters started at once, one with BLAS
pinned to one thread (what perfbench uses) and one pinned to two. GOLDENS
holds the two-thread digests; ONE_THREAD holds the files whose one-thread
digest differs, for the cells that have any.

    python tests/test_goldens.py OUT

runs every cell under OUT and prints the digests as JSON, under whatever
thread setting the environment gives.
"""

import json
import os
import subprocess
import sys

import pytest

from fedsim.config import parse_config_text
from fedsim.runner import run_experiment
from oracles import digest_tree

TEMPLATE = """
[experiment]
seed = {seed}
[task]
kind = {task}
input_dim = {input_dim}
num_classes = {num_classes}
hidden_dim = 8
activation = {activation}
per_class = {per_class}
test_per_class = {test_per_class}
[partition]
size_dist = powerlaw
class_dist = non_iid
classes_per_learner = {classes_per_learner}
[learners]
num_fast = 2
num_slow = 2
t_beta_fast_ms = 5
t_beta_slow_ms = 40
batch_size = {batch_size}
[protocol]
policy = {policy}
epochs = {epochs}
lambda = {lam}
rounds = 3
time_budget_ms = {budget}
eval_every = {eval_every}
[optimizer]
kind = {optimizer}
eta = 0.05
gamma = 0.75
mu = 0.01
[weighting]
scheme = {scheme}
staleness_adaptive = {adaptive}
"""

DEFAULTS = dict(seed=5, task="softmax_regression", activation="relu",
                input_dim=6, num_classes=4, per_class=30, test_per_class=10,
                classes_per_learner=2, batch_size=10,
                policy="sync", epochs=1, lam="2", budget=400, eval_every=1,
                optimizer="vanilla", scheme="fedavg_static", adaptive="true")

CELLS = {
    "sync": dict(epochs=2),
    "sync_mlp_fedprox_every2": dict(task="mlp1", optimizer="fedprox",
                                    eval_every=2),
    "semisync_matrix": dict(policy="semisync", lam="1, 2", task="mlp1",
                            optimizer="momentum", eval_every=2),
    "async_fedavg_static": dict(policy="async", optimizer="fedprox"),
    "async_fedrec_staleness": dict(policy="async", scheme="fedrec_staleness",
                                   task="mlp1", activation="tanh",
                                   optimizer="momentum", budget=410,
                                   eval_every=2),
    "async_fedasync_poly": dict(policy="async", scheme="fedasync_poly"),
    "async_fedasync_fixed_alpha": dict(policy="async", scheme="fedasync_poly",
                                       adaptive="false"),
    # A 20,100-entry softmax (past half of engine._COHORT_ENTRIES, so every
    # learner trains alone) and batches larger than any shard: each arrival
    # is one lone learner-step, committed through the cache on its own.
    "async_wide_lone_step": dict(policy="async", scheme="fedrec_staleness",
                                 input_dim=200, num_classes=100, per_class=4,
                                 test_per_class=2, classes_per_learner=25,
                                 batch_size=1000),
}

GOLDENS = {
    "async_fedasync_fixed_alpha": {
        "contributions.csv":
            "c39b31cfbc45ad0bf49e25b5d24c38c563f9187b39dd8b8d39a2562bc8a3fef2",
        "controller_snapshot.json":
            "9f9562bb5294f58c3e7eb543040d4cb7e260135bf1a7d7a54a8284bf35fe183a",
        "events.jsonl":
            "2cc0e55b89eac052b2feed830cb207543fbbd5e70d6c0e2c2ddff69d2862f943",
        "final_model.json":
            "149214064aa8018df4f2341ef9bfd5c8e910e67665ddded963c6363f5569a92c",
        "idle.csv":
            "4458c76e09efc5f504e5f006f8ead387a20eb7e4964c29f9e224daa8ec255661",
        "manifest.json":
            "42d6f6db71082c5f975a25f19163ab59ac15673b75d0127f04018cf7dfd000d6",
        "metrics.csv":
            "ae5bcd283a1d28e88a3fe2e857d1a27a6987986e62c9343fde0c02c72277ad1e",
        "partition_report.json":
            "561473c2136aede3c421d5a3cf6317e8457e2463fc914d57764057216620ff93",
        "summary.json":
            "eb5f971f809d5cccdfe374ad71e4d460c04bcecf9255a9ad6784f35a29e48fc5",
    },
    "async_fedasync_poly": {
        "contributions.csv":
            "8721eb0285d74f2c66924df48218d3623078efa706f0cb0744b5aa86eeff28c5",
        "controller_snapshot.json":
            "9f9562bb5294f58c3e7eb543040d4cb7e260135bf1a7d7a54a8284bf35fe183a",
        "events.jsonl":
            "2cc0e55b89eac052b2feed830cb207543fbbd5e70d6c0e2c2ddff69d2862f943",
        "final_model.json":
            "7c12a4c690a28ef966de91f37d556a0a4d364083147c19ecd405023d6dbc982c",
        "idle.csv":
            "4458c76e09efc5f504e5f006f8ead387a20eb7e4964c29f9e224daa8ec255661",
        "manifest.json":
            "42d6f6db71082c5f975a25f19163ab59ac15673b75d0127f04018cf7dfd000d6",
        "metrics.csv":
            "ab8be99646df2be5c8a7d6ffa6fb1154ec95c16f5afe4d0d54fc7f9e8a32c317",
        "partition_report.json":
            "561473c2136aede3c421d5a3cf6317e8457e2463fc914d57764057216620ff93",
        "summary.json":
            "a248685810b999e7235b81d553210efe56f6b82408435dbbb8ee8b1a55910177",
    },
    "async_fedavg_static": {
        "contributions.csv":
            "c17efc13c1bbf8153eebbb2902ea9daf0f3101a381c05778ec018b620a7f71b1",
        "controller_snapshot.json":
            "090991945a3702233e1d63f026e26c1cb9dbb2edd130751c0317bf483f2f09a1",
        "events.jsonl":
            "2cc0e55b89eac052b2feed830cb207543fbbd5e70d6c0e2c2ddff69d2862f943",
        "final_model.json":
            "5c07f7a24dfda02c5815ba07ab284454d223bc628eeb9e6d4d886de8253af98e",
        "idle.csv":
            "4458c76e09efc5f504e5f006f8ead387a20eb7e4964c29f9e224daa8ec255661",
        "manifest.json":
            "42d6f6db71082c5f975a25f19163ab59ac15673b75d0127f04018cf7dfd000d6",
        "metrics.csv":
            "4b9fed8d9dcd340ee923df551ba0fb19af7b34e12fa352de6971c7f907b2a528",
        "partition_report.json":
            "561473c2136aede3c421d5a3cf6317e8457e2463fc914d57764057216620ff93",
        "summary.json":
            "f047abf741371894268bc90bc433fb1b79969c4600e5704215fc029c5de60315",
    },
    "async_fedrec_staleness": {
        "contributions.csv":
            "abecddea7c8393e244ba8e27a66f383cb425b059e5b7d0ef7ae7c344851248ad",
        "controller_snapshot.json":
            "0bc17a4aefddd8c767a9c3324def7e2b45eaf148e9e5411460859db9862fe76d",
        "events.jsonl":
            "4ea87cfa2b63c75f6aa4a8b1c53b28c1f5be5cba83b26da3ab0a54f3a66af548",
        "final_model.json":
            "3b6208ab5a005384a9567103d055853866b9e1655c48d36b9cb7e248019d47bf",
        "idle.csv":
            "212e049291970a6188166b42ca1af730d56adb40564c612be437bf5c582d2767",
        "manifest.json":
            "42d6f6db71082c5f975a25f19163ab59ac15673b75d0127f04018cf7dfd000d6",
        "metrics.csv":
            "c0d52ee723c52dd0d9eff4668013898065237f19f5b5c670914305a16f9ed80c",
        "partition_report.json":
            "561473c2136aede3c421d5a3cf6317e8457e2463fc914d57764057216620ff93",
        "summary.json":
            "a5997396135a0eaf9568a72323de12aa2c9fd8d8d22ac74623db983fd97dc532",
    },
    "async_wide_lone_step": {
        "contributions.csv":
            "7b14e117f679adbdbbe991e979b5604a314a9e754f409e6aaa6bb97a10c59cbc",
        "controller_snapshot.json":
            "e6b5d813fc634cfa7f987cbe77e8629ccccc9f68d1bf4254d87ef9f59c2ccdce",
        "events.jsonl":
            "b558bad57ae8e4bbf24b57df42d51b572abe2de9b6c8f5b8e469b69bce3d7ce4",
        "final_model.json":
            "bb10cdcc13d59af00a46ea122ecfaa828636b786a11c3c22c1707d24d15eebe0",
        "idle.csv":
            "506692b441a89e9aabc168db2285711ecaa3606a6118c822e13daed9c57fb327",
        "manifest.json":
            "42d6f6db71082c5f975a25f19163ab59ac15673b75d0127f04018cf7dfd000d6",
        "metrics.csv":
            "95c402293f2b928f0377f5a5d367fcbfa9533c5cc6e1a8a63bcd5861b91f301b",
        "partition_report.json":
            "7af2b03c44dc046f20176e59cddb64137998f417970ed93a614f12315697803e",
        "summary.json":
            "416a4c67e9ce89915992040678d39001258a2dde08b7d37eb3f4fba6e57a47c0",
    },
    "semisync_matrix": {
        "lam-1/contributions.csv":
            "498dd4b04d1a43efc3c56b276d90dbd5b04b06b6ad347b5a5ba0a608e3fc7afd",
        "lam-1/events.jsonl":
            "554bfc4abcb33821301bb1e624f1c81a2d8747a53946bffed041fe6fd562cd34",
        "lam-1/final_model.json":
            "ad3b5c66c20cda1e4586b41db1088691a1346b866b21b84579d97f55ff7f559f",
        "lam-1/idle.csv":
            "dc03eb1b703d36a91b9972e4399734591de59d729fde99fae61723eb63a5905c",
        "lam-1/metrics.csv":
            "a58e3c540d54425aae8db13f64daac353a90d4727218ffce95c93d1811949648",
        "lam-1/partition_report.json":
            "561473c2136aede3c421d5a3cf6317e8457e2463fc914d57764057216620ff93",
        "lam-1/summary.json":
            "a36b2be07e809fd91632629021ec3f4b28947f6f68a9eb523865d83e395f5718",
        "lam-2/contributions.csv":
            "6a761b4d220c03f26fc734e5d369d77e64f4f6f02fe17484745935213540fd78",
        "lam-2/events.jsonl":
            "1aa2cf7b77fd86ed405f25e612f377998d2ce262776a869ce5295b121e6f0f49",
        "lam-2/final_model.json":
            "a14d86a320d6381b2ddd4c0130f3876c07b68bd6f45f2dbb88cb88e497e39415",
        "lam-2/idle.csv":
            "384b6d0ebfbfcc2ae154a83962d8cc3f928feb47dc5c96cbd3be88acc4d7c436",
        "lam-2/metrics.csv":
            "bcc0eaec4feb6c3dcec10b5eef50e304b5a056f14cbe6758abd2e04ff8bd25ff",
        "lam-2/partition_report.json":
            "561473c2136aede3c421d5a3cf6317e8457e2463fc914d57764057216620ff93",
        "lam-2/summary.json":
            "8fba3634aea38d94f85ffe5fca5eeb869aa5325d5b05752b3e248e94f620c8a4",
        "manifest.json":
            "3ea0e94d44ef483841f7bbd4b1560a7f77d11a1b4928da5fd732a60d08cb2242",
    },
    "sync": {
        "contributions.csv":
            "7b8eb247c138c692ba1b7f9a8948ee31bdfeba275375606738ce774f0cd3a760",
        "events.jsonl":
            "934292ed8e626faf20ad32851cfe419896c99e9bb7492b8dc38a7fb1314cab1e",
        "final_model.json":
            "581bb857b7f0b30c42dedabea621de492ceff5b9807b32989bf673d77dc39e17",
        "idle.csv":
            "c5a5f26d721dd8fb619f5fd3e6289b0d1caf85aec51d2fe0b636b18a7c885919",
        "manifest.json":
            "8db651417ca0251a399b41ad844e6df802774934a1d3d8e59680154cc2f197f3",
        "metrics.csv":
            "14171e7dbcd22c9c1603387b6fb40d93cec3c82e33f305bff38f7421a5f88ab9",
        "partition_report.json":
            "561473c2136aede3c421d5a3cf6317e8457e2463fc914d57764057216620ff93",
        "summary.json":
            "0ecacd8a2f644c204bd84e376e0c74c375ae625b8a2043f2367152f0b1c6998e",
    },
    "sync_mlp_fedprox_every2": {
        "contributions.csv":
            "06fa57bec91a15e72c4753c04fafbbeed683098e72d37cef36dbe71e81c80bb8",
        "events.jsonl":
            "b42218ffe66768ea205eab025085f8ca233d87fd15c32bcf21aafafa84c5607b",
        "final_model.json":
            "1eca6b2912968076fec708873e618d6341c07ded8b5c7fc634743a09af29e95b",
        "idle.csv":
            "34a3a87be7f84e6d91dedafc705d0704f3ca14d94b0b48bdbb736e5c3c37092a",
        "manifest.json":
            "8db651417ca0251a399b41ad844e6df802774934a1d3d8e59680154cc2f197f3",
        "metrics.csv":
            "d9508b802e29c852c722b2b058f3e556b4d767d249fa4cd536f125abd2ae346c",
        "partition_report.json":
            "561473c2136aede3c421d5a3cf6317e8457e2463fc914d57764057216620ff93",
        "summary.json":
            "0aa1686ac9d3c7af739ac6ad3fe74beb038c3862f45eebb16a30b0206cc4fef4",
    },
}

# One-thread digests of the files whose bytes depend on the thread count:
# in async_wide_lone_step a lone learner's (1, 100, 200) @ (1, 200, 100)
# gradient product rounds differently on one thread than on two or more.
ONE_THREAD = {
    "async_wide_lone_step": {
        "final_model.json":
            "f530c1dbc2721762478f3555f6627e50034fb1e07d53aa7e0b2a4da10ad48b52",
        "metrics.csv":
            "21a0b9246e1603e2bb9fb8742ea4de433ff47c9d001de0e2a673edd72cf14fb3",
        "summary.json":
            "bfbca5c1a6c0afb6fde86bdda573d8df5f09d16cfb2723f1af09c051e833a81c",
    },
}


def run_cells(root):
    """Run every cell into its own directory under ``root``; returns
    {cell: {file: sha256}}, config.txt left out."""
    digests = {}
    for cell in sorted(CELLS):
        out = os.path.join(root, cell)
        cfg = parse_config_text(TEMPLATE.format(**{**DEFAULTS, **CELLS[cell]}),
                                output=out)
        if run_experiment(cfg) != 0:
            raise RuntimeError(f"cell {cell} failed")
        digests[cell] = digest_tree(out, skip=("config.txt",))
    return digests


BLAS_THREADS = (1, 2)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


@pytest.fixture(scope="module")
def digests_by_threads(tmp_path_factory):
    """{BLAS threads: run_cells digests}, one child interpreter each."""
    procs = {}
    for threads in BLAS_THREADS:
        env = {**os.environ, **{var: str(threads) for var in THREAD_VARS}}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH", "")) if p
        )
        out = tmp_path_factory.mktemp(f"blas{threads}")
        procs[threads] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(out)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    results = {}
    try:
        for threads, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=600)
            assert proc.returncode == 0, stderr
            results[threads] = json.loads(stdout.strip().splitlines()[-1])
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return results


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cell_outputs_match_goldens(cell, digests_by_threads):
    assert digests_by_threads[2][cell] == GOLDENS[cell]
    assert digests_by_threads[1][cell] == {**GOLDENS[cell],
                                           **ONE_THREAD.get(cell, {})}


if __name__ == "__main__":
    print(json.dumps(run_cells(sys.argv[1])))
