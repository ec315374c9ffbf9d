"""Seeded closed-loop benchmark of vfree.

One caller in one thread issues ops against the library in this
checkout (``src/vfree``): it sends an op, waits for the answer, checks
it, and only then sends the next one.

    python3 perfbench/run.py --workload walk-sl2z --seed 1 --seconds 20 --trace 0

A run sets the workload up several times (fresh import of vfree, its
presentations, the seeded op schedule and a fixed warm-up) and reports
the median as ``setup_s``.  It then runs ops for ``--seconds`` seconds
and reports the end-to-end metrics.  With ``--trace 1`` it afterwards
wraps the library's public functions, replays a fixed prefix of the
schedule with spans on, and reports the per-layer metrics instead; the
spans and a summary go to ``.bench_out/`` in the checkout.

Times are scaled to a reference machine speed.  Between ops, at most
every REF_PERIOD_S, the caller times a fixed slice of pure-Python work;
each chunk of ops has its times multiplied by REF_NOMINAL_S over the
median slice time seen during that chunk.  On a shared machine whose
speed drifts by tens of percent within seconds this keeps runs
comparable; the raw figures are printed beside the scaled ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units are the ones declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUPS = 11
DEADLINE_S = 10.0       # an op running longer than this has failed
DIGEST_OPS = 16         # ops whose outputs make up the digest
REF_PERIOD_S = 0.025
REF_NOMINAL_S = 0.0003  # about the median slice time on a 2-vCPU x86-64 VM

import layers  # noqa: E402  (sibling modules of this script)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class DeadlineExceeded(BaseException):
    """Raised inside an op that overran its deadline.  A BaseException, so
    that library code catching Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def _reference_work() -> dict:
    d = {}
    for i in range(1500):
        key = (i, i * 7 % 13)
        d[key] = d.get(key, 0) + i
    return d


def reference_slice() -> float:
    """Seconds taken by a fixed slice of pure-Python work: small tuples
    and dict updates, like the library's inner loops, and no vfree code.
    The work runs once untimed first, so that what ran before it (and
    the caches it left) does not change the timing."""
    _reference_work()
    t0 = perf_counter()
    _reference_work()
    return perf_counter() - t0


def speed_scale(slices) -> float:
    """Factor turning raw seconds into reference-speed seconds."""
    return REF_NOMINAL_S / statistics.median(slices)


def import_vfree() -> dict:
    """Import vfree afresh from this checkout: short name -> module."""
    for name in [m for m in sys.modules if m == "vfree" or m.startswith("vfree.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = {short: importlib.import_module(f"vfree.{short}")
           for short in tracing.MODULES}
    where = Path(lib["cli"].__file__).resolve().parent
    if where != SRC / "vfree":
        raise RuntimeError(f"imported vfree from {where}, not {SRC / 'vfree'}")
    return lib


def set_up(cls, seed: int):
    """(raw seconds, scaled seconds, workload, library) of one set-up."""
    scale = speed_scale([reference_slice() for _ in range(9)])
    t0 = perf_counter()
    lib = import_vfree()
    wl = cls(lib, seed)
    wl.warm_up()
    raw = perf_counter() - t0
    return raw, raw * scale, wl, lib


def run_ops(wl, seconds=None, count=None, tracer=None) -> dict:
    """Closed loop over the schedule from its start, for `seconds` of wall
    time or for `count` ops.  Failed ops are kept: they count as attempted
    and take the deadline as their latency.  Per op it records the op's
    latency, its busy time (op plus check) and whether it succeeded."""
    lat, busy, ok, slices, problems, digest = [], [], [], [], [], []
    start = last_slice = perf_counter()
    i = 0
    while (count is None or i < count) and \
            (seconds is None or perf_counter() - start < seconds):
        op = wl.ops[i % len(wl.ops)]
        frame = tracer.op_span(i) if tracer else None
        error = result = None
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                result = wl.run(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            error = f"overran the {DEADLINE_S} s deadline"
        except Exception as exc:  # an op that raises is a failed op
            error = f"raised {exc!r}"
        t1 = perf_counter()
        if tracer:
            tracer.exit(frame)
            tracer.enabled = False
        if error is None:
            error = wl.check(op, result)
        busy.append(perf_counter() - t0)
        ok.append(error is None)
        if error is None:
            lat.append(t1 - t0)
            if i < DIGEST_OPS:
                digest.append((op, result))
        else:
            lat.append(max(t1 - t0, DEADLINE_S))
            problems.append(f"op {i} {op!r}: {error}")
        if perf_counter() - last_slice >= REF_PERIOD_S:
            slices.append((i, reference_slice()))
            last_slice = perf_counter()
        if tracer:
            tracer.enabled = True
        i += 1
    wall = perf_counter() - start
    if tracer:
        tracer.enabled = False
    h = hashlib.sha256()
    for op, result in digest:
        h.update(wl.digest_text(op, result).encode())
        h.update(b"\0")
    scales, rates = scale_chunks(wl.chunk_ops, busy, ok, slices)
    return {"attempted": i, "failed": len(problems), "problems": problems,
            "lat": lat, "scaled": [t * s for t, s in zip(lat, scales)],
            "rates": rates, "wall": wall, "slices": len(slices),
            "digest": f"sha256:{h.hexdigest()[:16]} over {len(digest)} ops"}


def scale_chunks(k: int, busy: list, ok: list, slices: list):
    """Per-op speed scales, and the scaled rate of ops completed without
    failure for each whole chunk of k consecutive ops.  A chunk with no
    reference slice of its own takes the scale of the whole phase."""
    overall = speed_scale([s for _, s in slices]) if slices else 1.0
    by_chunk: dict[int, list] = {}
    for i, s in slices:
        by_chunk.setdefault(i // k, []).append(s)
    scales, rates = [], []
    for j in range(0, len(busy), k):
        chunk = by_chunk.get(j // k)
        scale = speed_scale(chunk) if chunk else overall
        scales += [scale] * len(busy[j:j + k])
        if j + k <= len(busy):
            rates.append(sum(ok[j:j + k]) / (sum(busy[j:j + k]) * scale))
    return scales, rates


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def read_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = git / ref[5:]
    return loose.read_text().strip() if loose.is_file() else "unknown"


def environment(args) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "commit": read_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "loop": "closed, 1 caller, 1 thread", "setups": SETUPS,
            "deadline_s": DEADLINE_S, "ref_nominal_s": REF_NOMINAL_S}


def declared(kind: str) -> dict:
    """name -> entry for one list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec[kind]}


def emit(metrics: dict, kind: str) -> dict:
    """Metrics in the order BENCHMARK.json declares them; fails unless the
    names and units match exactly."""
    names = declared(kind)
    if set(names) != set(metrics):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(metrics))}")
    out = {}
    for name, entry in names.items():
        value, unit = metrics[name]
        if unit != entry["unit"]:
            raise RuntimeError(f"{name}: unit {unit}, declared {entry['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def end_to_end(wl, setups: list, timed: dict) -> dict:
    """`setups` holds (raw, scaled) seconds of each set-up."""
    n = timed["attempted"]
    ok = n - timed["failed"]
    raw_rate = ok / timed["wall"]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "ops_per_s": (statistics.median(timed["rates"]) if timed["rates"]
                      else raw_rate, "ops/s"),
        "p50_ms": (statistics.median(timed["scaled"]) * 1e3, "ms"),
        "p90_ms": (percentile(timed["scaled"], 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUPS} set-ups; raw "
                   f"{statistics.median(s for s, _ in setups):.4f} s",
        "ops_per_s": f"median of {len(timed['rates'])} chunks of "
                     f"{wl.chunk_ops} ops; raw {ok} ops in "
                     f"{timed['wall']:.3f} s = {raw_rate:.4f} ops/s",
        "p50_ms": f"n={n} ops; raw "
                  f"{statistics.median(timed['lat']) * 1e3:.4f} ms",
        "p90_ms": f"n={n} ops; raw {percentile(timed['lat'], 90) * 1e3:.4f} ms"
                  + ("" if n >= 100 else "; fewer than 100 ops: unreliable"),
        "peak_rss_mb": "peak resident set of this process",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<12} {value:12.4f} {unit:<6} {notes[name]}")
    print(f"{'fail_ratio':<12} {timed['failed'] / n:12.4f} {'fraction':<6} "
          f"{timed['failed']} of {n} ops failed")
    return metrics


def per_layer(args, env, wl, lib, timed: dict):
    tracer = tracing.Tracer()
    tracer.install(lib)
    tracer.enabled = True
    t0 = perf_counter()
    traced = run_ops(wl, count=wl.trace_ops, tracer=tracer)
    tracer.uninstall()
    tracing.assert_untraced(lib)
    k = min(len(timed["scaled"]), len(traced["scaled"]))
    overhead = sum(timed["scaled"][:k]) / sum(traced["scaled"][:k])
    metrics = layers.layer_metrics(tracer, overhead)
    reasons = layers.reason_checks(args.workload, tracer, metrics)
    print(f"traced: {traced['attempted']} ops, digest {traced['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:14.6g} {unit}")
    for claim, met, evidence in reasons:
        print(f"reason: {'met' if met else 'NOT met'}: {claim} ({evidence})")
    for group, moves in layers.SHOULD_MOVE:
        print(f"should move: {group} -> {moves}")
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
    spans = tracer.write_spans(stem.with_suffix(".spans.tsv.gz"), t0)
    summary = {
        "env": env, "metrics": {k: v for k, (v, _) in metrics.items()},
        "reasons": [{"claim": c, "met": m, "evidence": e}
                    for c, m, e in reasons],
        "should_move": dict(layers.SHOULD_MOVE),
        "functions": {name: {"calls": c, "self_s": s, "total_s": tot}
                      for name, c, s, tot in zip(tracer.names, tracer.calls,
                                                 tracer.self_s, tracer.total_s)
                      if c},
        "counters": tracer.counters, "spans": spans,
    }
    stem.with_suffix(".json").write_text(
        json.dumps(summary, indent=1, sort_keys=True))
    print(f"trace: {spans} spans written to {stem}.*")
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "vfree" / "__init__.py").is_file():
        print(f"perfbench: no vfree sources at {SRC / 'vfree'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    os.environ.pop("VFREE_SEED", None)  # `vfree walk` would prefer it to --seed
    signal.signal(signal.SIGALRM, _on_alarm)
    cls = WORKLOADS[args.workload]
    env = environment(args)
    print(f"vfree benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"why: {declared('workloads')[args.workload]['why']}")
    print("env: " + json.dumps(env, sort_keys=True))

    setups = []
    for _ in range(SETUPS):
        wl = lib = None  # drop the previous set-up before building the next
        raw, scaled, wl, lib = set_up(cls, args.seed)
        setups.append((raw, scaled))
    tracing.assert_untraced(lib)
    timed = run_ops(wl, seconds=args.seconds)
    phases = [timed]
    print(f"schedule: {len(wl.ops)} ops; {timed['slices']} reference slices")
    print(f"digest: {timed['digest']}")
    if args.trace:
        metrics, traced = per_layer(args, env, wl, lib, timed)
        phases.append(traced)
        kind = "per_layer"
    else:
        metrics = end_to_end(wl, setups, timed)
        kind = "end_to_end"

    for phase in phases:
        for line in phase["problems"][:20]:
            print(f"failed: {line}")
    failed = sum(p["failed"] for p in phases)
    result = {"correct": failed == 0,
              "attempted": sum(p["attempted"] for p in phases),
              "failed": failed,
              "metrics": emit(metrics, kind)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
