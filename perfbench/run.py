"""thetaheights benchmark: one seeded workload, timed in a closed loop.

    python3 perfbench/run.py --workload ec_batch --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
caller issues operations one after another (closed loop, no threads) until
the next block of operations would end past ``--seconds`` of measured time;
BLAS/OpenMP pools are pinned to one thread.

After the timed loop every operation is scored untimed: refusal inputs must
raise the typed error named by the workload; answers must pass their oracle
and agree with a recompute at bits + 64 to at least ``bits`` bits.  A failure
never stops the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs each
operation under the outside-in tracer (``tracing.py``) and prints per-layer
metrics, per operation, plus the tracing overhead and an import-time breakdown.
The last line of standard output is the JSON result; lines before it, starting
with ``#``, give the tail percentile, the deck's properties and any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from mpmath import mp, mpc, mpf

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ec_batch", "arch_decomp", "jacobian_g2")
SETUP_RUNS = 5        # single cold starts vary by 8% or more; report the median
IMPORTTIME_RUNS = 3


@dataclass
class Record:
    op: object
    latency: float
    out: dict | None
    error: BaseException | None


def timed_call(op, ctx) -> Record:
    from sympy.ntheory.factor_ import factor_cache

    # sympy keeps the factors it finds for the life of the process; a CLI run
    # starts without them, and so does every operation here
    factor_cache.clear()
    t0 = perf_counter()
    try:
        out, err = op.call(ctx), None
    except Exception as exc:    # scored as a failure, never fatal
        out, err = None, exc
    return Record(op, perf_counter() - t0, out, err)


def traced_call(tracer, op, ctx) -> Record:
    tracer.install()
    try:
        return timed_call(op, ctx)
    finally:
        tracer.uninstall()


def run_deck(blocks, ctx, seconds: float, tracer=None):
    """Closed loop over whole blocks; returns (records, traced records,
    measured seconds).  A new block starts only if the mean block time so far
    still fits in ``seconds``.

    With a tracer, each operation also runs under it, next to its untraced
    run, so the overhead compares calls made in the same state of the machine,
    whose speed drifts over seconds.  Which of the two goes first alternates,
    so a faster second run of the same input does not count as overhead.
    """
    records, traced, block_times, spent = [], [], [], 0.0
    for block in blocks:
        if block_times and spent + statistics.fmean(block_times) > seconds:
            break
        block_s = 0.0
        for op in block:
            if tracer is None:
                records.append(timed_call(op, ctx))
            elif len(records) % 2 == 0:
                tracer.op_id = len(records)
                records.append(timed_call(op, ctx))
                traced.append(traced_call(tracer, op, ctx))
            else:
                tracer.op_id = len(records)
                traced.append(traced_call(tracer, op, ctx))
                records.append(timed_call(op, ctx))
            block_s += records[-1].latency
        spent += block_s
        block_times.append(block_s)
    return records, traced, spent


def accuracy_bits(lo: dict, hi: dict, bits: int) -> float:
    """min over mpf/mpc components of -log2|x(bits) - x(bits + 64)|, capped
    at bits + 64 where the two agree exactly; 0 for a component the
    recompute does not report."""
    best = float(bits + 64)
    with mp.workprec(bits + 192):
        for key, v in lo.items():
            if not isinstance(v, (mpf, mpc)):
                continue
            if key not in hi:
                return 0.0
            gap = abs(v - hi[key])
            if gap:
                best = min(best, float(-mp.log(gap, 2)))
    return best


def score(records, ctx) -> tuple:
    """(failure messages by record index, indices of answers that raised or
    missed their oracle, accuracy_bits over answers)."""
    failures, wrong, acc = {}, set(), float(ctx.bits + 64)
    hi_ctx = ctx.higher(64)
    for i, r in enumerate(records):
        op = r.op
        if op.refuse is not None:
            if r.error is None:
                failures[i] = f"returned instead of raising {op.refuse.__name__}"
            elif not isinstance(r.error, op.refuse):
                failures[i] = f"raised {type(r.error).__name__}, not {op.refuse.__name__}"
            continue
        if r.error is not None:
            failures[i] = f"raised {type(r.error).__name__}: {r.error}"
            wrong.add(i)
            continue
        try:
            msg = op.oracle(r.out, ctx) if op.oracle else None
            if msg is not None:
                wrong.add(i)
            elif op.recompute:
                bits_i = accuracy_bits(r.out, op.call(hi_ctx), ctx.bits)
                acc = min(acc, bits_i)
                if bits_i < ctx.bits:
                    msg = f"accuracy {bits_i:.1f} bits < {ctx.bits}"
        except Exception as exc:
            msg = f"check raised {type(exc).__name__}: {exc}"
            wrong.add(i)
        if msg:
            failures[i] = msg
    return failures, wrong, acc


def latency_tail(lat: list) -> tuple:
    """(latency, percentile, samples beyond) at the highest percentile with
    at least ten samples beyond it, never below the median; interpolated
    between neighbouring samples like the median."""
    s = sorted(lat)
    k = max(len(s) - 11, (len(s) - 1) / 2)
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    value = s[lo] + (k - lo) * (s[hi] - s[lo])
    return value, 100.0 * (k + 1) / len(s), int(len(s) - 1 - k)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing thetaheights."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import thetaheights"], cwd=ROOT,
                       env=_child_env(), check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_breakdown() -> dict:
    """Median -X importtime figures for `import thetaheights`."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import thetaheights"],
                             cwd=ROOT, env=_child_env(), check=True, capture_output=True,
                             text=True).stderr
        self_us, cum_us, modules = {}, {}, 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            s, c, name = line[len("import time:"):].split("|")
            name = name.strip()
            modules += 1
            self_us[name], cum_us[name] = int(s), int(c)
        own = sum(v for k, v in self_us.items() if k.split(".")[0] == "thetaheights")
        runs.append({"import.self_s": own / 1e6, "import.calls": modules,
                     "import.sympy_s": cum_us.get("sympy", 0) / 1e6,
                     "import.numpy_s": cum_us.get("numpy", 0) / 1e6,
                     "import.mpmath_s": cum_us.get("mpmath", 0) / 1e6})
    units = {"import.calls": "count"}
    out = {k: (statistics.median(r[k] for r in runs), units.get(k, "s")) for k in runs[0]}
    out["import.errors"] = (0, "count")   # a failed import aborts the run
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "thetaheights" / "__init__.py").is_file():
        print(f"thetaheights sources not found under {SRC}", file=sys.stderr)
        return 2
    # pin BLAS/OpenMP pools before numpy is imported here or in a child process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from thetaheights.precision import PrecisionContext

    import workloads
    from tracing import Tracer

    ctx = PrecisionContext(bits=workloads.BITS[args.workload])
    deck = workloads.DECKS[args.workload]
    # warm-up on another seed's input: lazy imports, sieves, constant caches
    timed_call(next(deck(-1 - args.seed))[0], ctx)
    tracer = Tracer() if args.trace else None
    records, traced, spent = run_deck(deck(args.seed), ctx, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures_extra = {i: "traced run gave a different result" for i, (r, t)
                      in enumerate(zip(records, traced))
                      if r.out != t.out or type(r.error) is not type(t.error)}
    failures, wrong, acc = score(records, ctx)
    failures.update(failures_extra)
    wrong.update(failures_extra)
    answers = [i for i, r in enumerate(records) if r.op.refuse is None]
    lat = [records[i].latency for i in answers]

    print(f"# workload={args.workload} seed={args.seed} bits={ctx.bits} ops={len(records)} "
          f"answers={len(answers)} refusals={len(records) - len(answers)} measured_s={spent:.3f}")
    for i, msg in sorted(failures.items()):
        print(f"# FAILED op {i} {records[i].op.kind}: {msg}")
    props = [records[i].op.props for i in answers]
    for key in sorted({k for p in props for k in p}):
        share = sum(bool(p.get(key)) for p in props) / len(props)
        print(f"# share of answer operations with {key}: {share:.3f}")

    if args.trace:
        metrics = tracer.summary(len(records))
        metrics.update(import_breakdown())
        traced_s = sum(t.latency for t in traced)
        metrics["trace.overhead_frac"] = (traced_s / spent - 1, "ratio")
    else:
        tail, pct, beyond = latency_tail(lat)
        print(f"# latency_tail_s is p{pct:.1f} of {len(lat)} answer latencies, "
              f"{beyond} samples beyond it")
        metrics = {
            "setup_s": (setup_seconds(), "s"),
            "ops_per_s": (len(records) / spent, "1/s"),
            "latency_p50_s": (statistics.median(lat), "s"),
            "latency_tail_s": (tail, "s"),
            "accuracy_bits": (acc, "bits"),
            "success_rate": ((len(records) - len(failures)) / len(records), "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    # `correct`: every answer to a valid input passed its oracle (different
    # mathematics).  Missed refusals and answers short of `bits` against the
    # bits + 64 recompute count in `failed`, success_rate and accuracy_bits.
    print(json.dumps({"correct": not wrong, "attempted": len(records), "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
