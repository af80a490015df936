"""One repetition of a workload, in the fresh interpreter `run.py` starts.

    rep.py WORKLOAD SEED MODE SPAWNED

MODE is `setup` (set up and stop), `plain` (timed job) or `traced` (timed
job under the tracer). SPAWNED is the parent's `time.monotonic()` just
before it started this process; setup_s runs from there until owllab is
imported and the workload's machines are built. Prints one JSON object.
"""

import sys
import time


def main() -> None:
    name, seed, mode, spawned = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    import workloads

    w = workloads.WORKLOADS[name]()
    ctx = w.setup()
    setup_s = time.monotonic() - spawned

    import json
    import os
    import resource

    import owllab

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(owllab.__file__))) != src:
        sys.exit(f"owllab imported from {owllab.__file__}, not from {src}")
    out = {"setup_s": setup_s}
    if mode != "setup":
        data = w.inputs(seed)
        tracer = None
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.begin()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        outputs, item_ns = w.job(ctx, data)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if tracer is not None:
            tracer.finish()
            out["trace"] = tracer.summary()
        out.update(
            cpu_s=cpu,
            wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            item_ms=[ns / 1e6 for ns in item_ns],
            check=w.check(data, outputs),
        )
    print(json.dumps(out), flush=True)
    os._exit(0)  # skip freeing the inputs object by object at exit


if __name__ == "__main__":
    main()
