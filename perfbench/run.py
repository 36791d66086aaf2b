"""MISCELA-V benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds nothing: it puts ``src/`` on
the path, starts one Spark ``local[N]`` session (N = min(4, cores)),
generates the workload's data from ``--seed``, uploads it through
``MiscelaApi`` and then either

* ``--trace 0``: plays the closed-loop analyst session for ``--seconds``
  and reports the end-to-end metrics, or
* ``--trace 1``: runs the traced pass and reports the per-layer metrics.

Every answer is checked (see checks.py). The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Scratch
files live in ``.perfbench_work/`` under the checkout and are removed at
exit.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

TIMED_UNITS = {  # end-to-end metrics taken from timed calls
    "setup_s": "s",
    "upload_s": "s",
    "mine_cold_s": "s",
    "mine_hit_s": "s",
    "click_ms": "ms",
    "timeseries_ms": "ms",
}
DEADLINE_S = 170  # a run that hangs fails before the 180 s limit
CORES = max(1, min(4, os.cpu_count() or 1))
DRIVER_MEMORY = "3g"
SHUFFLE_PARTITIONS = CORES  # one per core: a stage holds ~10^4 readings (NOTES.md)
# The JVM runs with its default compilers and collector, as the program's
# callers run it; this only keeps it from writing hsperfdata files outside
# the checkout.
JVM_OPTIONS = "-XX:-UsePerfData"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def configure_environment(work: Path) -> None:
    """Everything Spark and its Python workers write goes under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        f"--driver-java-options \"-Djava.io.tmpdir={tmp} {JVM_OPTIONS}\"",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={work / 'spark'}",
        f"--conf spark.sql.warehouse.dir={work / 'warehouse'}",
        "pyspark-shell",
    ])


def start_bundles(workload, seed: int, work: Path) -> tuple[list[Path], list]:
    """Generate the two bundles (the upload and the refresh) in child
    processes, so their memory never counts toward this process."""
    from perfbench.workloads import base_params

    params = base_params(workload)
    dirs = [work / "bundle-0", work / "bundle-1"]
    procs = [
        subprocess.Popen([sys.executable, str(HERE / "bundle.py"), workload.generator,
                          str(workload.scale), str(gen_seed), str(params.epsilon),
                          str(params.segment_tolerance), str(d)])
        for d, gen_seed in zip(dirs, (seed, seed + 1_000_003))
    ]
    return dirs, procs


def wait_all(procs) -> None:
    for p in procs:
        if p.wait() != 0:
            raise RuntimeError(f"bundle generation failed: {p.args}")


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM (and with it the Python
    worker daemon) has exited."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    proc = gateway.proc
    if proc.stdin:
        proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def end_to_end(session, setup_s: float) -> dict:
    from perfbench.probes import HOST_PROBE_NOMINAL_S, driver_peak_rss_mb, jvm_live_heap_mb
    from perfbench.workloads import HOST_SCALED, summary

    samples = {"setup_s": [setup_s], **session.samples}
    host = summary(session.host)["trimmed"] if session.host else HOST_PROBE_NOMINAL_S
    scale = HOST_PROBE_NOMINAL_S / host
    print(f"host probe {host * 1000:.4f} ms (nominal {HOST_PROBE_NOMINAL_S * 1000:.4f} ms, "
          f"n={len(session.host)}): {', '.join(HOST_SCALED)} scaled by {scale:.4f}")
    out = {}
    for name, unit in TIMED_UNITS.items():
        if not samples.get(name):
            raise RuntimeError(f"no samples of {name}")
        s = summary([v * (1000.0 if unit == "ms" else 1.0) for v in samples[name]])
        value = s["trimmed"] * (scale if name in HOST_SCALED else 1.0)
        print(f"{name:20s} {value:.4f} {unit}  trimmed mean {s['trimmed']:.4f}  "
              f"median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
              f"min {s['min']:.4f}  n={s['n']}")
        out[name] = {"value": value, "unit": unit}
    out["driver_peak_rss_mb"] = {"value": driver_peak_rss_mb(), "unit": "MB"}
    out["jvm_live_heap_mb"] = {"value": jvm_live_heap_mb(session.spark), "unit": "MB"}
    return out


def on_deadline(signum, frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    if not (ROOT / "src" / "repro" / "server" / "api.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    configure_environment(work)
    spark = None
    procs: list = []
    try:
        bundles, procs = start_bundles(workload, args.seed, work)
        t0 = time.perf_counter()
        spark = start_spark()
        session_start_s = time.perf_counter() - t0
        wait_all(procs)

        from perfbench.workloads import Session

        session = Session(spark, workload, bundles, work / "store")
        if args.trace:
            from perfbench.trace import traced_run

            metrics = traced_run(session, session_start_s)
        else:
            t1 = time.perf_counter()
            session.warm_up()
            setup_s = time.perf_counter() - STARTED
            print(f"setup {setup_s:.1f} s: session start {session_start_s:.1f} s, "
                  f"bundles ready at {t1 - STARTED:.1f} s, warm-up {setup_s - (t1 - STARTED):.1f} s")
            rounds = session.run(args.seconds)
            print(f"workload {workload.name} seed {args.seed}: {rounds} rounds, "
                  f"{session.attempted} operations, {session.failed} failed, "
                  f"stale-cache mines {session.stale_mines}")
            metrics = end_to_end(session, setup_s)
        for version, (n, sha) in sorted(session.fingerprints.items()):
            print(f"caps bundle={version}: n_caps={n} sha256={sha}")
        result = {
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": metrics,
        }
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
