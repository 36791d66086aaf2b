"""Resource probes read from outside the program: process memory peaks,
Spark's own job, task and storage counters, and the host's speed."""
from __future__ import annotations

import gc
import json
import resource
import time
from contextlib import contextmanager

# A small document shaped like a cache entry: the host probe parses it.
_PROBE_DOC = json.dumps([
    {"sensors": [f"sa{i:05d}", f"sa{i + 1:05d}"], "attributes": ["light", "sound"], "support": i}
    for i in range(400)
])
HOST_PROBE_NOMINAL_S = 0.003  # the probe's usual time on the 4-vCPU VM of NOTES.md


def host_probe_s() -> float:
    """Time of a fixed piece of pure-Python work, six parses of a small
    JSON document, with the garbage collector held off: it follows the
    speed the host gives this process at that moment, not what the
    process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(6):
            json.loads(_PROBE_DOC)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def driver_peak_rss_mb() -> float:
    """Peak resident set of this Python process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def jvm_pid(spark) -> int:
    return spark.sparkContext._gateway.proc.pid


def jvm_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of the JVM, from ``/proc``."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def jvm_live_heap_mb(spark) -> float:
    """Heap in use in the JVM right after a full collection: what the
    program keeps alive there (cached data, plans, broadcast blocks).
    The JVM's resident peak follows how the collector sized the heap, and
    the same work gives peaks from 1.2 to 2.2 GB."""
    jvm = spark.sparkContext._jvm
    jvm.java.lang.System.gc()
    runtime = jvm.java.lang.Runtime.getRuntime()
    return (runtime.totalMemory() - runtime.freeMemory()) / (1024.0 * 1024.0)


def persisted_rdds(spark) -> int:
    return len(spark.sparkContext._jsc.getPersistentRDDs())


class JobCounter:
    """Counts Spark jobs and tasks run inside ``with counter.group():``
    blocks, via a job group and the status tracker."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self._n = 0

    @contextmanager
    def group(self):
        self._n += 1
        name = f"perfbench-{self._n}"
        self.sc.setJobGroup(name, name)
        counts = {"jobs": 0, "tasks": 0}
        try:
            yield counts
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            tracker = self.sc.statusTracker()
            jobs = tracker.getJobIdsForGroup(name)
            counts["jobs"] = len(jobs)
            for job in jobs:
                info = tracker.getJobInfo(job)
                for stage in info.stageIds if info else ():
                    s = tracker.getStageInfo(stage)
                    counts["tasks"] += s.numTasks if s else 0


