"""One benchmark run in a fresh driver process with its own Ray session.

Started by ``run.py`` with one JSON argument (the run spec); writes the
run's metrics to ``spec["result"]`` and one line per finished operation
to ``spec["progress"]``.  Its stdout and stderr go to log files.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time

# Ray 2.49 sizes each hash-shuffle aggregator at min(1, (CPU/2)/P) CPU;
# with one CPU the two aggregators hold 0.5 CPU and a map task asking for
# one full CPU never schedules, so the session deadlocks at the first
# shuffle.  Two logical CPUs is the smallest budget that runs.
NUM_CPUS = 2


def start_session(spec: dict) -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        log_to_driver=False,
        logging_level=logging.ERROR,
        object_store_memory=512 << 20,
        # Keep idle workers.  By default Ray kills a worker idle for 1 s
        # beyond num_cpus of them and respawns one at the next task, so
        # each run's wall drew a random number of process restarts:
        # +-20% run to run, against +-2% with the pool kept.
        _system_config={"num_workers_soft_limit": 6, "idle_worker_killing_time_threshold_ms": 600_000},
        _temp_dir=spec["ray_tmp"],
        # Workers import the package through the PYTHONPATH this process
        # was started with, which Ray's daemons and workers inherit.  A
        # runtime_env carrying it instead sends every worker and shuffle
        # actor start through Ray's runtime-env agent: the distributed
        # components stage ran 40-50% slower and twice as spread.
    )
    import ray.data as rd

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["root"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import ray

    import raydedup  # noqa: F401  (a missing package fails here, before Ray starts)
    from spans import Tracer
    from workloads import Ops, run_workload

    ops = Ops(spec["progress"])
    tracer = Tracer() if spec["trace"] else None
    log = lambda what: print(f"{time.time() - spec['spawn_ts']:7.2f} s  {what}", file=sys.stderr, flush=True)
    log("imported")
    start_session(spec)
    open(spec["ready"], "w").close()  # the parent stops waiting for a session to start
    log("ray session up")
    try:
        e2e, layers = run_workload(spec, ops, tracer)
        log("workload done")
    finally:
        ops.close()
        if tracer is not None:
            tracer.write(spec["trace_path"])
        ray.shutdown()
        log("ray shut down")
    with open(spec["result"] + ".tmp", "w") as f:
        json.dump({"e2e": e2e, "layers": layers}, f)
    os.replace(spec["result"] + ".tmp", spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
