#!/usr/bin/env python3
"""Guard engine and datapath performance invariants in CI.

Five modes:

sync (default) — reads a google-benchmark JSON file (--benchmark_out)
containing BM_ClusterIncastSharded rows and checks that the fused
parallel engine capped at one worker (par:1/threads:1) retains at least
a minimum fraction of the sequential reference's event throughput
(par:0) at the same cluster shape.  That ratio is the engine's "sync
tax" with all parallelism removed: fusion + the solo-worker fast path
should make it a few percent, and a regression here means every
multi-threaded run pays more too.

packet (--mode packet) — reads a BENCH_packet.json trajectory written
by bench/microbench_packet and enforces the allocation-free datapath
contract: every benchmark in the newest entry must report exactly 0
allocs_per_packet, and throughput must not have fallen more than
--max-regression (default 20%) below the previous trajectory entry for
the same benchmark (first runs pass vacuously).

scale (--mode scale) — reads a BENCH_scale.json trajectory written by
bench/microbench_scale and enforces the paper-scale memory-diet floors
on the newest entry: the 32k-node run must hold at least
--min-nodes-per-gb (default 4000, i.e. peak RSS under 8 GB for the
paper's 32,768-node datacenter), sustain at least --min-events-per-sec
engine throughput (default 50k — conservative for shared runners), its
sequential and parallel executions must have been bit-identical
(seq_par_identical == 1, covering the chained sketch fingerprints), and
the sketch fold must be at least --min-sketch-speedup (default 10x)
faster than the raw SampleSet fold at equal sample counts.

multicore (--mode multicore) — reads the same --benchmark_out JSON as
sync mode, but checks the *other* direction: that adding workers buys
real speedup.  For every BM_ClusterIncastSharded par:1 row whose worker
count W (min(threads, racks), with threads:0 meaning all cores) fits
the runner — 2 <= W <= num_cpus — the parallel throughput must be at
least --scale-factor * W times the sequential (par:0) reference at the
same shape (default 0.7, i.e. >=1.4x at two workers).  Oversubscribed
rows are reported but not scored.  On a single-core runner the mode
prints an explicit SKIPPED line and exits 0 — it never passes
vacuously without saying so.  Pass --fame-json BENCH_fame.json to also
enforce the raw barrier floor: every non-oversubscribed
BM_FameBarrierRoundTrip row with >=2 workers in the newest trajectory
entry must sustain --min-barrier-qps quanta per second (default 1e6).

sweep (--mode sweep) — reads the report.json a diablo_sweep run
directory contains (no stdout scraping: the merged report is the
machine-readable contract) and enforces that every grid point ran to
completion (exit_code 0 with a parseable artifact) and that every
engine cross-check group — grid points identical except for the engine
— produced bit-identical run fingerprints.

Usage:
    bench_guard.py <benchmark.json> [--racks N] [--min-ratio R]
    bench_guard.py <benchmark.json> --mode multicore [--scale-factor F]
    bench_guard.py BENCH_packet.json --mode packet [--max-regression F]
    bench_guard.py BENCH_scale.json --mode scale [--min-nodes-per-gb N]
    bench_guard.py sweep-out/report.json --mode sweep

Exit status 0 when the invariants hold, 1 on a regression or missing
rows.  Timings on shared CI runners are noisy, so the default floors
(0.8 sync ratio, 20% packet regression) are far below what an idle host
measures: these catch cliffs, not jitter.  allocs_per_packet has no
tolerance at all — one allocation on the steady-state path is a leak of
the whole design.
"""

import argparse
import json
import sys


def run_args(name):
    """Parse 'BM_X/par:1/racks:4/...' into {'par': 1, 'racks': 4, ...}."""
    out = {}
    for part in name.split("/")[1:]:
        if ":" in part:
            key, _, val = part.partition(":")
            try:
                out[key] = int(val)
            except ValueError:
                pass
    return out


def items_per_second(bench):
    ips = bench.get("items_per_second")
    if ips is None:
        raise SystemExit(
            f"bench_guard: no items_per_second in {bench.get('name')}")
    return float(ips)


def check_packet(path, max_regression):
    """Enforce the allocation-free datapath contract on a trajectory."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list) or not data:
        print(f"bench_guard: {path} is not a non-empty trajectory",
              file=sys.stderr)
        return 1

    newest = data[-1].get("benchmarks", [])
    if not newest:
        print(f"bench_guard: newest entry in {path} has no benchmarks",
              file=sys.stderr)
        return 1
    previous = data[-2].get("benchmarks", []) if len(data) >= 2 else []
    prev_ips = {b.get("name"): b.get("items_per_second")
                for b in previous}

    failed = False
    for bench in newest:
        name = bench.get("name", "?")
        allocs = bench.get("allocs_per_packet")
        if allocs is None:
            print(f"bench_guard: {name}: no allocs_per_packet counter",
                  file=sys.stderr)
            failed = True
            continue
        ips = items_per_second(bench)
        verdict = "OK"
        if float(allocs) != 0.0:
            verdict = f"ALLOC-REGRESSION ({allocs} allocs/packet)"
            failed = True
        old = prev_ips.get(name)
        if old and ips < (1.0 - max_regression) * float(old):
            verdict = (f"THROUGHPUT-REGRESSION "
                       f"({ips:.3e} < {1.0 - max_regression:.2f} * "
                       f"{float(old):.3e})")
            failed = True
        print(f"bench_guard: {name} items/s={ips:.3e} "
              f"allocs/pkt={allocs} {verdict}")
    return 1 if failed else 0


def check_scale(path, min_nodes_per_gb, min_events_per_sec,
                min_sketch_speedup):
    """Enforce the paper-scale memory/throughput/determinism floors."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list) or not data:
        print(f"bench_guard: {path} is not a non-empty trajectory",
              file=sys.stderr)
        return 1

    newest = {b.get("name"): b for b in data[-1].get("benchmarks", [])}

    def find(prefix):
        for name, bench in newest.items():
            if name.startswith(prefix):
                return bench
        return None

    failed = False

    run = find("BM_Memcached32kUdp")
    if run is None:
        print("bench_guard: newest entry has no BM_Memcached32kUdp row",
              file=sys.stderr)
        failed = True
    else:
        nodes_per_gb = float(run.get("nodes_per_gb", 0))
        events = items_per_second(run)
        identical = float(run.get("seq_par_identical", 0))
        verdict = "OK"
        if nodes_per_gb < min_nodes_per_gb:
            verdict = (f"MEMORY-REGRESSION (nodes/GB {nodes_per_gb:.0f} "
                       f"< floor {min_nodes_per_gb})")
            failed = True
        if events < min_events_per_sec:
            verdict = (f"THROUGHPUT-REGRESSION (events/s {events:.3e} "
                       f"< floor {min_events_per_sec:.3e})")
            failed = True
        if identical != 1.0:
            verdict = "DETERMINISM-REGRESSION (seq != par)"
            failed = True
        print(f"bench_guard: 32k run nodes/GB={nodes_per_gb:.0f} "
              f"peak_rss_mb={run.get('peak_rss_mb', '?')} "
              f"events/s={events:.3e} seq_par_identical={identical:g} "
              f"{verdict}")

    raw = find("BM_SampleSetFoldPercentile")
    sketch = find("BM_SketchFoldPercentile")
    if raw is None or sketch is None:
        print("bench_guard: newest entry is missing the fold benchmarks",
              file=sys.stderr)
        failed = True
    else:
        raw_ns = float(raw.get("real_ns_per_iter", 0))
        sketch_ns = float(sketch.get("real_ns_per_iter", 0))
        if raw.get("total_samples") != sketch.get("total_samples"):
            print("bench_guard: fold benchmarks ran unequal sample "
                  "counts", file=sys.stderr)
            failed = True
        speedup = raw_ns / sketch_ns if sketch_ns > 0 else 0.0
        verdict = ("OK" if speedup >= min_sketch_speedup else
                   f"SKETCH-REGRESSION (speedup {speedup:.1f} < floor "
                   f"{min_sketch_speedup})")
        if speedup < min_sketch_speedup:
            failed = True
        print(f"bench_guard: stats fold raw={raw_ns / 1e6:.3f}ms "
              f"sketch={sketch_ns / 1e6:.3f}ms speedup={speedup:.1f}x "
              f"(floor {min_sketch_speedup}x) {verdict}")

    return 1 if failed else 0


def check_multicore(path, racks, scale_factor, fame_json,
                    min_barrier_qps):
    """Adding workers must buy real speedup on a multi-core runner."""
    with open(path) as f:
        data = json.load(f)

    cores = int(data.get("context", {}).get("num_cpus", 0))
    if cores < 2:
        print(f"bench_guard: multicore SKIPPED — runner reports "
              f"{cores if cores else 'an unknown number of'} CPU(s); "
              f"parallel scaling is not measurable here (this is an "
              f"explicit skip, not a pass)")
        return 0

    seq = None
    par_rows = []
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        if not name.startswith("BM_ClusterIncastSharded/"):
            continue
        args = run_args(name)
        if args.get("racks") != racks:
            continue
        if args.get("par") == 0:
            seq = items_per_second(bench)
        elif args.get("par") == 1:
            par_rows.append((args.get("threads", 0),
                             items_per_second(bench), name))

    if seq is None or not par_rows:
        print(f"bench_guard: missing BM_ClusterIncastSharded rows at "
              f"racks={racks} (seq={seq}, par rows={len(par_rows)}) in "
              f"{path}", file=sys.stderr)
        return 1

    failed = False
    scored = 0
    for threads, ips, name in sorted(par_rows):
        workers = min(threads if threads else cores, racks)
        if workers < 2:
            # The solo-worker row is the sync-tax guard's business.
            continue
        ratio = ips / seq
        if workers > cores:
            print(f"bench_guard: {name} workers={workers} > cores="
                  f"{cores}, oversubscribed row not scored "
                  f"(ratio={ratio:.2f})")
            continue
        floor = scale_factor * workers
        verdict = "OK" if ratio >= floor else "SCALING-REGRESSION"
        if ratio < floor:
            failed = True
        scored += 1
        print(f"bench_guard: {name} workers={workers} cores={cores} "
              f"par={ips:.3e} seq={seq:.3e} items/s "
              f"speedup={ratio:.2f}x (floor {floor:.2f}x) {verdict}")
    if scored == 0:
        print(f"bench_guard: no scoreable multi-worker rows at "
              f"racks={racks} on a {cores}-core runner — add a "
              f"threads:2 row", file=sys.stderr)
        failed = True

    if fame_json is not None:
        failed |= check_barrier_floor(fame_json, cores, min_barrier_qps)

    return 1 if failed else 0


def check_barrier_floor(path, cores, min_barrier_qps):
    """Raw barrier throughput floor from the fame trajectory."""
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list) or not data:
        print(f"bench_guard: {path} is not a non-empty trajectory",
              file=sys.stderr)
        return True

    failed = False
    scored = 0
    for bench in data[-1].get("benchmarks", []):
        name = bench.get("name", "")
        if not name.startswith("BM_FameBarrierRoundTrip/"):
            continue
        workers = float(bench.get("workers", 0))
        if workers < 2 or float(bench.get("oversubscribed", 0)) != 0.0:
            continue
        qps = items_per_second(bench)
        verdict = ("OK" if qps >= min_barrier_qps else
                   f"BARRIER-REGRESSION (< floor {min_barrier_qps:.1e})")
        if qps < min_barrier_qps:
            failed = True
        scored += 1
        print(f"bench_guard: {name} workers={workers:g} "
              f"quanta/s={qps:.3e} {verdict}")
    if scored == 0:
        print(f"bench_guard: no non-oversubscribed multi-worker "
              f"BarrierRoundTrip rows in {path} newest entry "
              f"(cores={cores})", file=sys.stderr)
        failed = True
    return failed


def check_sweep(path):
    """Every sweep run completed; every engine cross-check matched."""
    with open(path) as f:
        report = json.load(f)

    runs = report.get("runs", [])
    checks = report.get("engine_cross_checks", [])
    if not runs:
        print(f"bench_guard: {path} has no runs", file=sys.stderr)
        return 1

    failed = False
    # A run is healthy when its status says so: "ok", "retried" (flaky
    # but recovered), or "skipped-resume" (validated artifact carried
    # over by --resume).  Older reports without a status field fall
    # back to the exit-code check.
    healthy = {"ok", "retried", "skipped-resume"}
    for run in runs:
        name = run.get("name", "?")
        code = run.get("exit_code", -1)
        fp = run.get("fingerprint")
        status = run.get("status")
        bad = (status not in healthy) if status is not None else code != 0
        if bad or not fp:
            print(f"bench_guard: {name} FAILED "
                  f"(status={status}, exit={code}, fingerprint={fp})",
                  file=sys.stderr)
            failed = True
        else:
            print(f"bench_guard: {name} {status or 'ok'} "
                  f"elapsed_ms={run.get('elapsed_us', 0) / 1000:.1f} "
                  f"fingerprint={fp}")
    for check in checks:
        group = check.get("group", "?")
        match = check.get("match", False)
        fps = {r.get("engine", "?"): r.get("fingerprint", "?")
               for r in check.get("runs", [])}
        verdict = "MATCH" if match else "DETERMINISM-REGRESSION"
        print(f"bench_guard: cross-check [{group}] {verdict} {fps}")
        if not match:
            failed = True
    if not report.get("ok", False) and not failed:
        print(f"bench_guard: {path} reports ok=false", file=sys.stderr)
        failed = True
    print(f"bench_guard: sweep {report.get('sweep', '?')}: "
          f"{len(runs)} runs, {len(checks)} cross-checks, "
          f"{'FAIL' if failed else 'OK'}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("json_file")
    ap.add_argument("--mode",
                    choices=["sync", "multicore", "packet", "scale",
                             "sweep"],
                    default="sync",
                    help="which invariant to check (default sync)")
    ap.add_argument("--racks", type=int, default=4,
                    help="cluster shape to compare (default 4)")
    ap.add_argument("--min-ratio", type=float, default=0.8,
                    help="minimum par:1/threads:1 vs seq throughput "
                         "ratio (default 0.8)")
    ap.add_argument("--max-regression", type=float, default=0.2,
                    help="packet mode: max fractional throughput drop "
                         "vs the previous trajectory entry (default "
                         "0.2)")
    ap.add_argument("--min-nodes-per-gb", type=float, default=4000,
                    help="scale mode: minimum simulated nodes per GB "
                         "of peak RSS (default 4000 = 32k nodes in "
                         "8 GB)")
    ap.add_argument("--min-events-per-sec", type=float, default=5e4,
                    help="scale mode: minimum engine event throughput "
                         "for the 32k run (default 50k)")
    ap.add_argument("--min-sketch-speedup", type=float, default=10.0,
                    help="scale mode: minimum sketch-vs-raw fold "
                         "speedup at equal sample counts (default 10)")
    ap.add_argument("--scale-factor", type=float, default=0.7,
                    help="multicore mode: required speedup per worker "
                         "(floor = factor * workers, default 0.7)")
    ap.add_argument("--fame-json", default=None,
                    help="multicore mode: BENCH_fame.json trajectory "
                         "to enforce the barrier round-trip floor on")
    ap.add_argument("--min-barrier-qps", type=float, default=1e6,
                    help="multicore mode: minimum quanta/s for "
                         "non-oversubscribed multi-worker barrier "
                         "round trips (default 1e6)")
    opts = ap.parse_args()

    if opts.mode == "multicore":
        return check_multicore(opts.json_file, opts.racks,
                               opts.scale_factor, opts.fame_json,
                               opts.min_barrier_qps)
    if opts.mode == "sweep":
        return check_sweep(opts.json_file)
    if opts.mode == "packet":
        return check_packet(opts.json_file, opts.max_regression)
    if opts.mode == "scale":
        return check_scale(opts.json_file, opts.min_nodes_per_gb,
                           opts.min_events_per_sec,
                           opts.min_sketch_speedup)

    with open(opts.json_file) as f:
        data = json.load(f)

    seq = par1 = None
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        if not name.startswith("BM_ClusterIncastSharded/"):
            continue
        args = run_args(name)
        if args.get("racks") != opts.racks:
            continue
        if args.get("par") == 0:
            seq = items_per_second(bench)
        elif args.get("par") == 1 and args.get("threads") == 1:
            par1 = items_per_second(bench)

    if seq is None or par1 is None:
        print(f"bench_guard: missing BM_ClusterIncastSharded rows at "
              f"racks={opts.racks} (seq={seq}, par1={par1}) in "
              f"{opts.json_file}", file=sys.stderr)
        return 1

    ratio = par1 / seq
    verdict = "OK" if ratio >= opts.min_ratio else "REGRESSION"
    print(f"bench_guard: racks={opts.racks} seq={seq:.3e} "
          f"par(threads=1)={par1:.3e} items/s "
          f"ratio={ratio:.3f} (floor {opts.min_ratio}) {verdict}")
    return 0 if ratio >= opts.min_ratio else 1


if __name__ == "__main__":
    sys.exit(main())
