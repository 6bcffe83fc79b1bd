"""gyrodenoise benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload {train,calibrate,evaluate} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The inputs are generated from the seed, then
the workload's `gyrodenoise` command runs in-process through cli.main until
the next repeat would end past S seconds. Every end-to-end metric (trace 0)
or per-layer metric (trace 1) is printed by name with its unit; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Any failed output check makes the exit code
non-zero. Run artifacts go to .bench_work/<workload>/.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# a stated BLAS thread budget, fixed before numpy is imported
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("GYRODENOISE_OUT", None)

WORKLOADS = ("train", "calibrate", "evaluate")
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import gyrodenoise from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "gyrodenoise", "__init__.py")):
        sys.exit(f"error: no gyrodenoise sources under {SRC}")
    sys.path.insert(0, SRC)
    import gyrodenoise

    if os.path.dirname(os.path.abspath(gyrodenoise.__file__)) != \
            os.path.join(SRC, "gyrodenoise"):
        sys.exit(f"error: gyrodenoise imported from {gyrodenoise.__file__}")


def environment():
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS}


def main(argv=None):
    args = parse_args(argv)
    import_program()

    import json
    import resource
    import shutil
    import statistics

    import inputs
    import spans
    import workloads as wl

    import_s = perf_counter() - T_START
    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    outdir = os.path.join(work, "out")
    os.makedirs(outdir)

    # -- set-up: inputs from the seed, plus a warm-up, several times ----------
    setup_rec = spans.Recorder()
    setup_tracer = spans.Tracer(setup_rec)
    if args.trace:
        setup_tracer.install()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        paths, scene = inputs.write_inputs(args.workload, args.seed,
                                           os.path.join(work, "inputs"))
        inputs.warm_up(scene)
        setup_times.append(perf_counter() - t0)
    setup_tracer.uninstall()
    setup_s = import_s + statistics.median(setup_times)

    # -- measurement ---------------------------------------------------------
    argv_cmd = wl.command_argv(args.workload, paths, outdir, args.seed)
    clock = wl.StepClock()
    rec = spans.Recorder()
    if args.trace:
        # half untraced (the reference for the overhead ratio), half traced
        with clock:
            plain = wl.run_phase(args.workload, argv_cmd, outdir,
                                 args.seconds / 2, 1, clock)
        tracer = spans.Tracer(rec)
        tracer.install()
        try:
            with clock:
                traced = wl.run_phase(args.workload, argv_cmd, outdir,
                                      args.seconds / 2, 1, clock)
        finally:
            tracer.uninstall()
        cmds = plain + traced
        measured = traced
    else:
        with clock:
            cmds = wl.run_phase(args.workload, argv_cmd, outdir, args.seconds,
                                2, clock)
        measured = cmds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- output checks ---------------------------------------------------------
    if args.workload == "evaluate":
        per_cmd, run_bad, notes = wl.check_evaluate(cmds, outdir, scene)
    else:
        per_cmd, run_bad, notes = wl.check_fit(args.workload, cmds, outdir,
                                                 scene)
    per_op = wl.ops_per_command(args.workload)
    attempted = per_op * len(cmds)
    failed = attempted if run_bad else per_op * sum(1 for b in per_cmd if b)
    problems = run_bad + [f"repeat {i}: {m}" for i, bad in enumerate(per_cmd)
                          for m in bad]

    # -- report ------------------------------------------------------------------
    p50, tail, n_ops = wl.timing(wl.op_samples(args.workload, measured))
    env = environment()
    print(f"gyrodenoise benchmark: workload {args.workload}, seed {args.seed},"
          f" {args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env))
    print(f"repeats: {len(cmds)} commands, ops_attempted {attempted}, "
          f"ops_failed {failed}")
    for key, val in notes.items():
        print(f"  {key} = {val!r}")
    tail_txt = (f"p{tail[0]:g} = {tail[1]:.6f} s" if tail else
                f"no tail (needs >= {10 / (1 - wl.TAIL_LADDER[0] / 100):.0f}"
                f" samples)")
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (p50, "s"),
        "samples_per_s": (wl.samples_per_s(args.workload, measured), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"  setup_s = {setup_s:.6f} s (imports {import_s:.3f} s + median "
          f"of {SETUP_REPEATS} set-ups {[round(t, 3) for t in setup_times]})")
    print(f"  op_s.p50 = {p50:.6f} s over n = {n_ops} ops; op_s.tail: "
          f"{tail_txt}")
    print(f"  samples_per_s = {end_to_end['samples_per_s'][0]:.1f} 1/s")
    print(f"  peak_rss_mb = {peak_rss_mb:.1f} MB")

    if args.trace:
        plain_p50 = wl.timing(wl.op_samples(args.workload, plain))[0]
        metrics = spans.per_layer_metrics(
            rec, setup_rec, p50 / plain_p50 if plain_p50 else 0.0)
        rec.write(os.path.join(work, "spans.jsonl"))
        for name, (val, unit) in metrics.items():
            print(f"  {name} = {val:.6g} {unit}")
    else:
        metrics = end_to_end
    for msg in problems:
        print(f"CHECK FAILED: {msg}")

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(dict(result, environment=env, notes=notes,
                       setup_times=setup_times,
                       op_samples=wl.op_samples(args.workload, measured),
                       tail=tail), f, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
