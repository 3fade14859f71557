"""raydedup benchmark: two seeded workloads against the public API.

    python3 perfbench/run.py --workload {flagship,lsh-distributed}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The seed's corpus is generated once
and cached under ``.perfbench/`` (untimed).  The run itself happens in a
fresh child process with its own 2-CPU Ray session, under a wall-clock
limit; a hang, crash or timeout counts as a failed operation, and a
session that does not start is started again.  Set-up
(``setup_s``) runs from process start through Ray start-up and an
untimed warm-up pipeline run on a small corpus; ``wall_s`` is the median
of the timed pipeline runs that follow, at least one.
While the child runs, this process samples the resident memory of the
child and its Ray worker processes from ``/proc``.  Afterwards it stops
anything of the session still alive and prints one JSON line:
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans go to ``.perfbench/traces/``).

Outputs are checked on every run, untimed (see ``workloads.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
# Ray's session directory and the child's temp dir, inside the checkout.
# Ray's sockets live below the session directory and their paths must
# fit the 107-byte AF_UNIX limit whatever the checkout's path, so they
# are named through /proc/self/cwd: every process of the session runs in
# the checkout root (Ray starts its daemons and workers in the caller's
# working directory).
RAY_TMP = "/proc/self/cwd/.perfbench/ray"
CHILD_TMP = "/proc/self/cwd/.perfbench/tmp"
LIMIT_S = 170  # whole run, input generation included
RSS_PERIOD_S = 0.5
# A Ray session that is not up within SESSION_START_S (normally 3-15 s)
# is torn down and started again in a fresh child, up to
# SESSION_ATTEMPTS times.  Seen once: the raylet stalled while mapping
# its object store and ray.init gave up after 30 s, before the first
# operation.  A session that never starts runs none of the program, so
# it is reported on stderr, not as a failed operation.
SESSION_START_S = 60
SESSION_ATTEMPTS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dup_pair_recall", "ratio"),
    ("success_rate", "ratio"),
)


# --------------------------------------------------------------- /proc
def _stat(pid: int):
    """(ppid, start time) of a running process; None once it has exited."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            s = f.read()
    except OSError:
        return None
    fields = s[s.rindex(")") + 2 :].split()
    if fields[0] == "Z":
        return None
    return int(fields[1]), int(fields[19])


def _peak_rss_kb(pid: int) -> int:
    """The process's own resident-memory high-water mark (VmHWM)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_worker(pid: int) -> bool:
    """A Ray worker process (task or actor), as opposed to a daemon."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


class Session:
    """The child and every process descending from it, as seen so far."""

    def __init__(self, root_pid: int):
        self.root = root_pid
        self.seen: dict[int, int] = {}  # pid -> start time

    def scan(self) -> list[int]:
        """Pids of the live session, remembering each with its start time."""
        children: dict[int, list[int]] = {}
        start: dict[int, int] = {}
        for name in os.listdir("/proc"):
            if name.isdigit():
                st = _stat(int(name))
                if st:
                    children.setdefault(st[0], []).append(int(name))
                    start[int(name)] = st[1]
        tree, frontier = [], [self.root]
        while frontier:
            p = frontier.pop()
            tree.append(p)
            frontier.extend(children.get(p, ()))
        for p in tree:
            if p in start:
                self.seen.setdefault(p, start[p])
        return tree

    def peak_rss_mb(self, pids: list[int]) -> float:
        """Sum of the high-water marks of the driver and the live Ray
        workers; its maximum over the run is the reported peak."""
        kb = sum(_peak_rss_kb(p) for p in pids if p == self.root or _is_worker(p))
        return kb / 1024.0

    def kill_all(self, timeout: float = 10.0) -> None:
        """SIGKILL every process of the session still alive (matched by
        start time, so a reused pid is left alone) and wait for them."""
        self.scan()
        alive = lambda: [p for p, t in self.seen.items() if (_stat(p) or (0, None))[1] == t]
        for p in alive():
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        deadline = time.time() + timeout
        while alive() and time.time() < deadline:
            time.sleep(0.05)


# ---------------------------------------------------------------- main
def run_child(spec: dict, env: dict, log_path: str, deadline: float) -> tuple[str, float]:
    """Run one child to its end, sampling the session's peak resident
    memory, and stop every process of its session.  Returns what ended
    it ("exited with code N", "timed out" or "no session") and the peak."""
    for p in (spec["ready"], spec["progress"], spec["result"]):
        if os.path.exists(p):
            os.remove(p)
    spec["spawn_ts"] = time.time()
    with open(log_path, "wb") as log:
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        sess = Session(child.pid)
        peak, outcome = 0.0, None
        while child.poll() is None:
            now = time.time()
            if now > deadline:
                outcome = "timed out"
                break
            if now - spec["spawn_ts"] > SESSION_START_S and not os.path.exists(spec["ready"]):
                outcome = "no session"
                break
            peak = max(peak, sess.peak_rss_mb(sess.scan()))
            time.sleep(RSS_PERIOD_S)
        sess.kill_all()
        child.wait()
    if outcome is None:
        started = os.path.exists(spec["ready"])
        outcome = f"exited with code {child.returncode}" if started else "no session"
    return outcome, peak


def log_tail(path: str) -> str:
    with open(path, "rb") as f:
        return f.read()[-4000:].decode(errors="replace")


def corpus_seed(seed: int, k: int) -> int:
    return seed * 100 + k


def parse_args(argv):
    sys.path[:0] = [HERE, ROOT]
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> dict:
    t_start = time.time()
    import corpus
    from workloads import PER_LAYER

    inputs = os.path.join(WORK, "inputs")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    runs = os.path.join(WORK, "runs")
    os.makedirs(runs, exist_ok=True)
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "root": ROOT,
        "input": corpus.ensure_images(corpus_seed(args.seed, 0), inputs),
        "warmup": corpus.ensure_images(corpus_seed(args.seed, 1), inputs, corpus.WARMUP_N_BASE),
        "ray_tmp": RAY_TMP,
        "ready": os.path.join(runs, tag + ".ready"),
        "progress": os.path.join(runs, tag + ".progress"),
        "result": os.path.join(runs, tag + ".result.json"),
        "trace_path": os.path.join(WORK, "traces", tag + ".json"),
    }
    if args.trace and args.workload == "flagship":
        spec["docs_dir"] = corpus.DOCS_DIR
        # oracle results, and digests of the queries without one
        digest = corpus.file_digest(
            os.path.join(corpus.DOCS_DIR, "documents.parquet"), os.path.join(ROOT, "raydedup", "queries.py")
        )
        spec["queries_stable_path"] = os.path.join(inputs, f"queries-{digest}.json")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=ROOT,
        TMPDIR=CHILD_TMP,
        RAY_TMPDIR=CHILD_TMP,
        RAY_USAGE_STATS_ENABLED="0",
        # The host's memory is shared with other tenants: Ray's monitor
        # would kill this session's workers when the host, not the
        # session, runs low.
        RAY_memory_monitor_refresh_ms="0",
    )
    deadline = t_start + LIMIT_S
    for attempt in range(1, SESSION_ATTEMPTS + 1):
        log_path = os.path.join(runs, f"{tag}.{attempt}.log")
        outcome, peak = run_child(spec, env, log_path, deadline)
        if outcome != "no session" or attempt == SESSION_ATTEMPTS:
            break
        print(f"Ray session did not start (attempt {attempt}); log tail:\n{log_tail(log_path)}", file=sys.stderr)

    ops = []
    if os.path.exists(spec["progress"]):
        with open(spec["progress"]) as f:
            ops = [json.loads(line) for line in f if line.strip()]
    result = None
    if os.path.exists(spec["result"]):
        with open(spec["result"]) as f:
            result = json.load(f)
    attempted = len(ops)
    failed = sum(not o["ok"] for o in ops)
    if result is None:  # hang, crash or timeout: the operation in flight failed
        attempted += 1
        failed += 1
        print(f"run failed ({outcome}); log tail:\n{log_tail(log_path)}", file=sys.stderr)
    for o in ops:
        if not o["ok"]:
            print(f"failed operation {o['op']}: {o['why']}", file=sys.stderr)

    # Every metric is reported.  A layer that does not run on this
    # workload reads 0.  A run that failed before its result reports
    # how long it ran as its times and no recall.
    elapsed = time.time() - t_start
    if args.trace:
        layers = (result or {}).get("layers", {})
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    else:
        e2e = {"wall_s": elapsed, "setup_s": elapsed, "dup_pair_recall": 0.0}
        e2e.update({k: v for k, v in (result or {}).get("e2e", {}).items() if v is not None})
        e2e["peak_rss_mb"] = peak
        e2e["success_rate"] = (attempted - failed) / attempted
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": result is not None and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    out = run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
