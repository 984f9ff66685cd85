"""rayquality benchmark: one seeded workload per invocation, one Ray session.

Usage (from the repository root):

    python3 perfbench/run.py --workload images_full --seed 1 --seconds 8 --trace 0

The run builds (or reuses) the seed's inputs, sets up ``SETUPS`` times
(``ray.init`` with ``num_cpus=1``, then an
untimed warm-up call) and keeps the last session. It then repeats the timed
call for ``--seconds`` seconds (at least ``MIN_CALLS`` times), checking
every call's output against an independent reference. ``--trace 1`` adds
traced calls and the per-layer probes of :mod:`layers`. The measurement
runs in a child process, which is rerun once if it dies early without a
result (see :func:`supervise`).

The last stdout line is one short JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``). The full record, with per-call times, spans and host
context, goes to ``.perfbench/results/``. All files the run writes stay
under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")

RAY_CPUS = 1  # one-core benchmark: Ray schedules on one logical CPU
SETUPS = 2  # set-ups per run; setup_s is their median
MIN_CALLS = 3  # timed calls per run, even past --seconds
TRACED_CALLS = 2  # extra traced calls with --trace 1
CALL_TIMEOUT_S = 60  # a call running longer counts as failed (hung)
RUN_BUDGET_S = 100  # start no new call once this much time is gone
RERUN_BEFORE_S = 75  # a run that died is rerun only if it died this early
UNIX_SOCKET_MAX = 107
# set in the measuring child process by the supervising parent
ATTEMPT_ENV = "PERFBENCH_ATTEMPT"
DEADLINE_ENV = "PERFBENCH_DEADLINE"

# wall-clock rows/s is in the artifact but not bounded: on top of the
# host's load it adds the time a call waits for CPUs, so it spreads most
END_TO_END = {
    "cpu_ms_per_row": "ms",
    "setup_s": "s",
    "driver_peak_rss_mb": "MB",
}


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout(f"call exceeded {CALL_TIMEOUT_S} s")


def with_timeout(seconds: float, fn, *args):
    """Run ``fn`` with SIGALRM armed; raises CallTimeout when it hangs."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---- host context -------------------------------------------------------------


def cpu_times() -> dict:
    """Host-wide CPU seconds from the aggregate line of /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    tick = os.sysconf("SC_CLK_TCK")
    user, nice, system, idle, iowait, irq, softirq, steal = (v + [0] * 8)[:8]
    return {
        "busy_s": (user + nice + system + irq + softirq) / tick,
        "idle_s": idle / tick,
        "iowait_s": iowait / tick,
        "steal_s": steal / tick,
    }


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def tree_cpu_s() -> float:
    """CPU seconds of this process and all its descendants (Ray's GCS,
    raylet and workers), each with its reaped children, from /proc."""
    kids: dict[int, list[int]] = {}
    ticks: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while listing
            continue
        # fields from state on: ppid is [1]; utime, stime, cutime, cstime [11:15]
        kids.setdefault(int(fields[1]), []).append(int(name))
        ticks[int(name)] = sum(int(x) for x in fields[11:15])
    total, stack = 0, [os.getpid()]
    while stack:
        pid = stack.pop()
        total += ticks.get(pid, 0)
        stack.extend(kids.get(pid, []))
    return total / os.sysconf("SC_CLK_TCK")


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


# ---- Ray session --------------------------------------------------------------


def ray_temp_dir() -> str | None:
    """A Ray temp dir inside the work dir, or None (Ray's default) when the
    path would push Ray's session sockets past the Unix socket limit."""
    d = os.path.join(WORK, "ray")
    # session_<date>_<time>_<us>_<pid>/sockets/plasma_store
    return d if len(d) + 70 <= UNIX_SOCKET_MAX else None


def start_ray(n_cpus: int) -> None:
    import ray
    import ray.data as rd

    ray.init(
        address="local",
        num_cpus=n_cpus,
        object_store_memory=512 * 1024**2,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=ray_temp_dir(),
    )
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.WARNING)


# ---- the run ------------------------------------------------------------------


def timed_calls(wl, seconds: float, deadline: float, log: list) -> None:
    """Repeat the timed call; append one record per call to ``log``. A hung
    call ends the loop: the session it leaves behind is not trusted."""
    started = time.perf_counter()
    n = 0
    while (time.perf_counter() - started < seconds or n < MIN_CALLS) and time.perf_counter() < deadline:
        rec = call_once(wl, lambda: (wl.call(), None), log)
        n += 1
        if rec["hung"]:
            break


def call_once(wl, fn, log: list) -> dict:
    """One checked call. ``fn`` returns (result, layer metrics or None).
    The run budget is enforced only by the callers starting no new call, so
    running out of it never counts as a failure."""
    rec = {"seconds": None, "cpu_s": None, "hung": False, "error": None, "mismatch": [], "layers": None}
    try:
        wl.before_call()
        c0, t0 = tree_cpu_s(), time.perf_counter()
        result, rec["layers"] = with_timeout(CALL_TIMEOUT_S, fn)
        rec["seconds"] = time.perf_counter() - t0
        rec["cpu_s"] = tree_cpu_s() - c0
        rec["mismatch"] = wl.check(result)
    except CallTimeout as exc:
        rec["hung"], rec["error"] = True, str(exc)
    except Exception:  # noqa: BLE001 — any failure of a call is counted, not fatal
        rec["error"] = traceback.format_exc(limit=4)
    rec["failed"] = bool(rec["error"] or rec["mismatch"])
    log.append(rec)
    return rec


def run_traced(wl, tr, n_calls: int, deadline: float, log: list) -> list[dict]:
    """Traced calls: a span around the call, then the workload's layer
    calls and the bytes its sinks wrote."""
    from workloads import file_sizes, written_bytes

    def traced():
        tr.trace = f"call-{len(log)}"
        started = time.time()
        before = file_sizes(wl.run_dir) if wl.run_dir else {}
        with tr.span("workload.call"):
            result = wl.call_traced(tr)
        after = file_sizes(wl.run_dir) if wl.run_dir else {}
        with tr.span("layers"):
            metrics = wl.layers(tr, result, started)
        written = written_bytes(before, after)
        in_bytes = sum(os.path.getsize(f) for f in wl.scored_input_files())
        metrics["sink.bytes_written_mb"] = written / 1024**2
        metrics["sink.write_amp"] = written / in_bytes if in_bytes else 0.0
        return result, metrics

    recs = []
    for _ in range(n_calls):
        if time.perf_counter() >= deadline:
            break
        recs.append(call_once(wl, traced, log))
    return recs


def layer_metrics(tr, traced_recs: list[dict], untraced_s: list[float], seed: int) -> dict:
    """Every per-layer metric: the fixed probes, then the median of the
    traced calls' layer values, the baseline and the tracing overhead."""
    import layers
    import inputs

    root = inputs.cache_root(WORK)
    img_corpus = os.path.join(inputs.images(root, seed), "corpus")
    docs = inputs.documents(root, seed)
    tr.trace = "probes"
    batch = layers.image_batch(img_corpus)
    with tr.span("probes"):
        counts = layers.probe_kernels(tr, batch)
        layers.probe_doc_scorer(tr, os.path.join(docs, "corpus"))
        floor = layers.probe_ray_data(tr, batch)
        baseline = layers.probe_oracle(tr, img_corpus)
    out = {name: 0.0 for name in layers.METRICS}
    for name in layers.METRICS:
        if name.endswith("_ms") and tr.durations(name[: -len("_ms")]):
            out[name] = tr.median_s(name[: -len("_ms")]) * 1e3
    out.update(counts)
    out.update(floor)
    ok = [r["layers"] for r in traced_recs if not r["failed"]]
    for name in ok[0] if ok else {}:
        out[name] = statistics.median(r[name] for r in ok)
    out.update(baseline)
    call_s = tr.durations("workload.call")
    if call_s and untraced_s:
        out["trace.overhead_ms"] = (statistics.median(call_s) - statistics.median(untraced_s)) * 1e3
    return {k: (layers.METRICS[k][0], v) for k, v in out.items()}


def set_up(wl) -> list[float]:
    """SETUPS times: (shut down,) ``ray.init``, warm-up call."""
    import ray

    setups = []
    for k in range(SETUPS):
        if k:
            ray.shutdown()
        t0 = time.perf_counter()
        start_ray(RAY_CPUS)
        with_timeout(CALL_TIMEOUT_S, wl.warm_up)
        setups.append(time.perf_counter() - t0)
    return setups


def supervise(argv: list[str]) -> int:
    """Measure in a child process, and rerun it once when it dies without
    a result early enough for the rerun to fit the time limit. Ray's core
    worker can abort the driver process on a failed internal check
    (``reference_count.cc``: ``submitted_task_ref_count > 0``), seen in 3
    of about 90 ``images_full`` runs on a loaded host; no Python handler can
    catch that."""
    start = time.time()
    env = dict(os.environ, **{DEADLINE_ENV: repr(start + RUN_BUDGET_S)})
    child = None

    def stop(signum, frame):
        if child is not None and child.poll() is None:
            child.terminate()
            child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    attempt = 1
    while True:
        env[ATTEMPT_ENV] = str(attempt)
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv], env=env, stdout=subprocess.PIPE, text=True
        )
        out, _ = child.communicate()
        # 2 is a usage error: rerunning cannot help
        if child.returncode in (0, 2) or attempt == 2 or time.time() - start > RERUN_BEFORE_S:
            sys.stdout.write(out)
            return child.returncode
        print(f"run died with code {child.returncode}; running it again", file=sys.stderr)
        attempt += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "rayquality", "__init__.py")):
        print(f"no rayquality package next to the benchmark under {ROOT}", file=sys.stderr)
        return 2
    # Ray workers are separate processes: they find the package through
    # PYTHONPATH (else the scorer actors retry ModuleNotFoundError forever)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)

    import inputs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if ATTEMPT_ENV not in os.environ:
        # inputs and reference answers are built here, so the measuring
        # child only loads them: its peak RSS must not depend on whether
        # they were cached
        WORKLOADS[args.workload](WORK, args.seed)
        return supervise(sys.argv[1:] if argv is None else argv)

    t_start = time.perf_counter()
    deadline = t_start + float(os.environ[DEADLINE_ENV]) - time.time()
    signal.signal(signal.SIGALRM, _on_alarm)
    # a terminated run still stops its Ray processes (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # Ray leaves each session's logs behind; keep only the current run's
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
    host0, load0 = cpu_times(), os.getloadavg()

    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](WORK, args.seed)
    inputs_s = time.perf_counter() - t0

    import ray

    try:
        setups = set_up(wl)
        ray_cpus = ray.cluster_resources().get("CPU")
        log: list[dict] = []
        reset_peak_rss()
        timed_calls(wl, args.seconds, deadline, log)
        rss = peak_rss_mb()
        ok = [r for r in log if not r["failed"]]
        untraced_s = [r["seconds"] for r in ok]
        untraced_cpu_s = [r["cpu_s"] for r in ok]
        tr = None
        if args.trace:
            import layers

            tr = layers.Tracer()
            recs = run_traced(wl, tr, TRACED_CALLS, deadline, log)
            layer = layer_metrics(tr, recs, untraced_s, args.seed)
    finally:
        if ray.is_initialized():
            ray.shutdown()

    attempted = len(log)
    failed = sum(r["failed"] for r in log)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in layer.items()}
    else:
        values = {
            "cpu_ms_per_row": statistics.median(untraced_cpu_s) / wl.rows * 1e3 if ok else 0.0,
            "setup_s": statistics.median(setups),
            "driver_peak_rss_mb": rss,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rows_per_call": wl.rows,
        "rows_per_s": wl.rows / statistics.median(untraced_s) if untraced_s else None,
        "fail_frac": failed / attempted if attempted else 1.0,
        "calls": log,
        "setups_s": setups,
        "attempt": int(os.environ[ATTEMPT_ENV]),
        "inputs_s": inputs_s,
        "metrics": metrics,
        "spans": tr.spans if tr else [],
        "host": {
            "git_sha": git_sha(),
            "source_sha1": inputs.source_digest(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "ray_cpus": ray_cpus,
            "ray_temp_dir": ray_temp_dir(),
            "loadavg_before": load0,
            "loadavg_after": os.getloadavg(),
            "cpu_s": {k: v - host0[k] for k, v in cpu_times().items()},
            "wall_s": time.perf_counter() - t_start,
            "python": sys.version.split()[0],
            "ray": ray.__version__,
        },
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json")
    with open(path, "w") as f:
        json.dump(detail, f, indent=1, default=str)
    print(f"detail: {os.path.relpath(path, ROOT)}", file=sys.stderr)
    line = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
