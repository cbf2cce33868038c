"""Run one flatfront benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports flatfront from its
``src`` directory.  With ``--trace 0`` it times the workload untraced and
reports the end-to-end metrics; with ``--trace 1`` it wraps every layer's
entry functions and reports the per-layer metrics instead.  The last line of
standard output is one JSON object; a fuller record of the run, with the
environment, every op and the failure list, goes to
``.perfbench_runs/<workload>-seed<seed>-trace<0|1>.json``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One caller per process: keep numpy's thread pools at one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"
SETUPS = 5  # set-up repeats per run; setup_s takes their median


def _git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(ff, numpy, seed, ops):
    from perfbench.workloads import HELDOUT_SEED

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "flatfront").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "n_terms": {repr(r): ff.ThetaContext.create(r).n_terms for r in sorted({op.r for op in ops})},
    }


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import numpy
        import flatfront
        import flatfront.cli  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import flatfront from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(flatfront.__file__).resolve().parent != ROOT / "src" / "flatfront":
        print(f"perfbench: flatfront imported from {flatfront.__file__}, not this checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0

    from perfbench import workloads as wl
    from perfbench.tracer import METRICS, Tracer

    args = _parse(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    tracer = Tracer(flatfront) if args.trace else None
    speed = wl.Speedometer()
    workload = wl.WORKLOADS[args.workload](flatfront, args.seed, workdir, tracer, speed)
    try:
        setup_times, setup_nominal = [], []
        for _ in range(1 if args.trace else SETUPS):
            workload.clear_caches()
            speed.sample()
            t0 = time.perf_counter()
            workload.setup()
            t1 = time.perf_counter()
            speed.sample()
            setup_times.append(t1 - t0)
            setup_nominal.append((t1 - t0) / speed.around(t0, t1))
        if tracer:
            with tracer:
                ops, elapsed = wl.measure(workload, args.seconds)
        else:
            ops, elapsed = wl.measure(workload, args.seconds)
        # before the run record is built, which takes memory per op
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = _environment(flatfront, numpy, args.seed, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = wl.summary(workload, ops)
    # times are reported at nominal speed; a median that falls on a miss
    # reads as the whole measured time, which every op of the run finished within
    op_nominal = [statistics.mean(op.nominal(speed)) if op.ok else math.inf for op in ops]
    op_p50 = min(wl.percentile(op_nominal, 0.5), elapsed / speed.slowdown)
    failed = [op for op in ops if not op.ok]
    unrepeatable = [op.op for op in ops if not op.repeatable]
    correct = not any(op.wrong for op in ops)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": env,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "setup_nominal_s": setup_nominal,
        "rounds": ops[-1].round + 1,
        "elapsed_s": elapsed,
        "slowdown": speed.slowdown,
        "reference_samples": list(zip(speed.ends, speed.samples)),
        "summary": summary,
        "unrepeatable_ops": unrepeatable,
        "failures": [op.record(speed) for op in failed],
        "ops": [op.record(speed) for op in ops],
    }
    if tracer:
        metrics = tracer.layer_metrics(op.op for op in ops if op.round == 0)
        metrics["trace.op_s.p50"] = op_p50
        untraced = OUT_DIR / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())
            record["tracing_overhead_s"] = {  # at nominal speed
                k: summary[k] / speed.slowdown - base["summary"][k] / base["slowdown"]
                for k in summary if k.endswith(("p50", "p90"))
            }
        tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl")
        units = METRICS
    else:
        metrics = {
            "op_s.p50": op_p50,
            "setup_s": import_s / speed.slowdown + statistics.median(setup_nominal),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"op_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    record["metrics"] = metrics
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=repr) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops in "
          f"{record['rounds']} round(s), two passes, {elapsed:.1f} s measured, {len(failed)} failed, "
          f"{len(unrepeatable)} with outputs that differ between passes")
    print("  " + "  ".join(f"{k}={v:.6g}" for k, v in summary.items()) + f"  (raw; slowdown {speed.slowdown:.3f})")
    for op in failed:
        print(f"  failed op {op.op} (r={op.r:.4f}, s={op.s:.4f}): {op.error[:160]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
