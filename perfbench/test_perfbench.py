#!/usr/bin/env python3
"""Tests of the slowdown benchmark itself, mostly on tiny (--smoke) inputs.

Run from the repository root:

    python3 perfbench/test_perfbench.py

The first test builds perfbench_run (perfbench/run.py does it) under
.bench_build, which takes about half a minute from scratch.  The whole
suite takes about a minute and a half.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Every metric the benchmark must print, by run mode.
END_TO_END = ["setup_s", "slowdown_seq", "slowdown_par2", "peak_rss_mb"]
PER_LAYER = [
    "core.events", "core.events_per_s.seq", "core.events_per_s.par2",
    "fame.quanta", "fame.events_per_quantum", "fame.windows",
    "fame.partitions", "fame.partitions_active", "fame.event_imbalance",
    "fame.ns_per_quantum.seq", "fame.ns_per_quantum.par2",
    "fame.window_ms.p50.seq", "fame.window_ms.p99.seq",
    "fame.window_samples.seq", "fame.window_ms.p50.par2",
    "fame.window_ms.p99.par2", "fame.window_samples.par2",
    "fame.workers", "fame.oversubscribed", "fame.par2_speedup",
    "sim.build_s", "sim.teardown_s", "sim.rss_after_build_mb",
    "sim.materialized_servers", "sim.arena_mb",
    "apps.install_s", "apps.fold_s", "apps.requests_completed",
    "apps.udp_retries", "apps.goodput_mbps",
    "os.tcp_retransmits", "os.tcp_rtos", "os.udp_socket_drops",
    "switchm.forwarded", "switchm.drops", "nic.rx_drops",
    "nic.tx_ring_drops",
    "net.pool_makes", "net.pool_heap_allocs", "net.pool_recycle_ratio",
    "net.delivery_trains", "net.deliveries_coalesced",
    "analysis.fingerprint_s", "trace.overhead_ratio",
]
SPANS = ["pass.seq", "pass.par2", "sim.build", "apps.install",
         "fame.window", "analysis.fingerprint", "sim.teardown"]
WORKLOADS = ["incast_4rack", "memcached_2k", "memcached_32k"]
PASS_RE = re.compile(r"^pass \d+ (seq|par2)\s+traced=(\d) ok "
                     r"fingerprint=(0x[0-9a-f]+)")


def bench(workload, seed, trace, trace_out=None, cwd=ROOT, runner=RUN,
          smoke=True):
    """Run one round of the benchmark; (exit code, stdout lines)."""
    cmd = [sys.executable, runner, "--workload", workload, "--seed",
           str(seed), "--seconds", "0", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def passes(lines):
    """(engine, traced, fingerprint) of every checked pass."""
    out = []
    for line in lines:
        m = PASS_RE.match(line)
        if m:
            out.append((m.group(1), m.group(2) == "1", m.group(3)))
    return out


class SmokeTest(unittest.TestCase):
    def run_ok(self, workload, seed, trace, trace_out=None, smoke=True):
        code, lines = bench(workload, seed, trace, trace_out, smoke=smoke)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        return result, lines

    def test_every_named_metric_is_printed(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        e2e = [m["name"] for m in spec["end_to_end"]]
        layer = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(sorted(e2e), sorted(END_TO_END))
        self.assertEqual(sorted(layer), sorted(PER_LAYER + [
            "apps.sim_elapsed_s"]))
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r0, lines0 = self.run_ok(w, 3, 0)
                self.assertEqual(sorted(r0["metrics"]), sorted(e2e))
                for name in e2e:
                    self.assertGreater(r0["metrics"][name]["value"], 0)
                    self.assertTrue(any(l.startswith("metric " + name + " ")
                                        for l in lines0))
                with tempfile.TemporaryDirectory() as tmp:
                    r1, _ = self.run_ok(w, 3, 1,
                                        os.path.join(tmp, "t.json"))
                self.assertEqual(sorted(r1["metrics"]), sorted(layer))

    def test_traced_run_matches_untraced_fingerprint(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, lines0 = self.run_ok(w, 5, 0)
                with tempfile.TemporaryDirectory() as tmp:
                    _, lines1 = self.run_ok(w, 5, 1,
                                            os.path.join(tmp, "t.json"))
                seen = passes(lines0) + passes(lines1)
                self.assertIn(("seq", True), [(e, t) for e, t, _ in seen])
                self.assertIn(("par2", True), [(e, t) for e, t, _ in seen])
                self.assertIn(("par2", False), [(e, t) for e, t, _ in seen])
                self.assertEqual(len({fp for _, _, fp in seen}), 1, seen)

    def test_trace_has_every_span_with_valid_parents(self):
        for w in WORKLOADS:
            with self.subTest(workload=w), \
                    tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "t.json")
                self.run_ok(w, 7, 1, path)
                with open(path) as f:
                    trace = json.load(f)
                spans = trace["spans"]
                names = {s["name"] for s in spans}
                want = SPANS + ([] if w.startswith("incast") else
                                ["apps.fold"])
                for name in want:
                    self.assertIn(name, names)
                by_id = {s["id"]: s for s in spans}
                self.assertEqual(len(by_id), len(spans))
                self.assertEqual({s["run_id"] for s in spans},
                                 {trace["run_id"]})
                for s in spans:
                    self.assertLessEqual(s["start_s"], s["end_s"])
                    if s["name"].startswith("pass."):
                        self.assertEqual(s["parent"], 0)
                        continue
                    parent = by_id[s["parent"]]
                    self.assertTrue(parent["name"].startswith("pass."))
                    self.assertGreaterEqual(s["start_s"], parent["start_s"])
                    self.assertLessEqual(s["end_s"], parent["end_s"])
                self.assertIn("nproc", trace["host"])
                self.assertIn("par2_worker_cpus", trace["host"])

    def test_incast_seed_changes_the_input(self):
        fps = []
        for seed in (1, 2):
            _, lines = self.run_ok("incast_4rack", seed, 0)
            fps.append({fp for _, _, fp in passes(lines)})
        self.assertEqual(len(fps[0]), 1)
        self.assertNotEqual(fps[0], fps[1])

    def test_memcached_survives_a_window_without_events(self):
        # Full-size seed 105 has a 100 ms window with no events while a
        # client waits on a UDP retry; McExperiment::run panics there.
        _, lines = self.run_ok("memcached_2k", 105, 0, smoke=False)
        seen = passes(lines)
        self.assertEqual({e for e, _, _ in seen}, {"seq", "par2"})
        self.assertEqual(len({fp for _, _, fp in seen}), 1, seen)

    def test_host_descriptor_is_reported(self):
        _, lines = self.run_ok("incast_4rack", 1, 0)
        host = [l for l in lines if l.startswith("host ")]
        self.assertEqual(len(host), 1)
        desc = json.loads(host[0][len("host "):])
        for key in ("nproc", "llc_groups", "numa_nodes", "build_type",
                    "compiler", "par2_worker_cpus", "par2_oversubscribed"):
            self.assertIn(key, desc)
        self.assertEqual(desc["build_type"], "Release")
        self.assertEqual(len(desc["par2_worker_cpus"]), 2)

    def test_fails_without_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            code, lines = bench("incast_4rack", 1, 0, cwd=tmp,
                                runner=os.path.join(tmp, "perfbench",
                                                    "run.py"))
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
