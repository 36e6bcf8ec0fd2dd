"""One benchmark run of ``fedsim run``.

    python3 perfbench/child.py CONFIG OUT SEED [--base] [--trace] [--env]

Run as a script, this is a run in a fresh interpreter: the parent (run.py)
starts it with ``src`` and ``perfbench/baseline`` on PYTHONPATH and BLAS
pinned to one thread, and reads the JSON object printed as the last line of
stdout. It runs the checkout's ``fedsim``, or with ``--base`` the frozen
copy ``fedsim_base``. run.py also calls ``run_once`` in processes it forks
after importing both packages itself; those runs give ``run_s`` and
``cpu_s`` without paying the import each time.
Timings, all host seconds:

* ``setup_s`` (fresh interpreter only): from the first statement of this
  script to the end of a fresh import of the package's ``cli`` plus
  ``parse_config``, ``build_world`` and ``init_params`` on the workload;
  ``import_s`` is the import part alone.
* ``run_s``: ``<package>.cli.main(["run", ...])`` minus the parse, world build
  and init it repeats from the set-up just before it, i.e. from the start
  of the policy driver to the last cell file written.
* ``cpu_s``: user+sys CPU time of the process, every thread, over the same
  span as ``run_s``.
* ``peak_rss_mb`` (fresh interpreter only): peak resident memory of the
  whole process.

With ``--trace`` the run goes through the wrappers of hooks.py, installed
after set-up, and the per-layer report is added under ``"trace"``. With
``--env`` the host's versions and thread setting are added under ``"env"``
once everything is measured; the parent asks for them once per invocation,
since importing scipy for them costs every run that asks.
"""

import time

_T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_once(config: str, out: str, seed: int, package: str = "fedsim",
             tracer=None) -> dict:
    """Set up the workload's world as ``fedsim run`` does, then run it with
    ``package`` ("fedsim" or "fedsim_base").

    The set-up is timed on its own and subtracted from the run, which
    repeats it; ``tracer``, if given, wraps the run but not the set-up.
    """
    import numpy as np

    pkg = importlib.import_module(package)
    cli = importlib.import_module(package + ".cli")
    t0, c0 = time.perf_counter(), _cpu_s()
    cfg = pkg.parse_config(config)
    world = pkg.build_world(cfg, seed)
    pkg.init_params(cfg.task, np.random.default_rng(seed))
    del world
    t1, c1 = time.perf_counter(), _cpu_s()
    if tracer is not None:
        tracer.install()
    t2, c2 = time.perf_counter(), _cpu_s()
    rc = cli.main(["run", config, "--out", out, "--seed", str(seed)])
    t3, c3 = time.perf_counter(), _cpu_s()
    if tracer is not None:
        tracer.uninstall()
    return {
        "rc": rc,
        "fedsim_file": cli.__file__,
        "world_s": t1 - t0,
        "run_s": (t3 - t2) - (t1 - t0),
        "cpu_s": (c3 - c2) - (c1 - c0),
    }


def _env() -> dict:
    import platform

    import numpy as np
    import scipy

    def blas(config):
        deps = config.get("Build Dependencies", {}).get("blas", {})
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": os.cpu_count(),
        "threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")
        },
    }


def main(argv: list[str]) -> int:
    config, out, seed = argv[0], argv[1], int(argv[2])
    package = "fedsim_base" if "--base" in argv else "fedsim"
    importlib.import_module(package + ".cli")
    import_s = time.perf_counter() - _T0
    tracer = None
    if "--trace" in argv:
        from hooks import Tracer

        tracer = Tracer()
    result = run_once(config, out, seed, package, tracer)
    result.update({
        "import_s": import_s,
        "setup_s": import_s + result["world_s"],
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        result["trace"] = tracer.report()
    if "--env" in argv:
        result["env"] = _env()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
