#ifndef DIABLO_SIM_TELEMETRY_HH_
#define DIABLO_SIM_TELEMETRY_HH_

/**
 * @file
 * In-run streaming telemetry: watch a warehouse-scale run live instead
 * of waiting for the end-of-run report.
 *
 * A TelemetryProbe snapshots a running Cluster on the *simulated*
 * clock — every `period` of sim-time it appends one JSON line to a
 * JSONL stream: goodput over the interval, requests completed
 * (cumulative + delta), p99-so-far, the packet-pool ledger,
 * materialized-node delta, and engine progress.  Because sampling is
 * driven by simulated time and the probe only *reads* model state,
 * enabling it never perturbs simulated results: runs with telemetry on
 * and off are bit-identical (asserted by tests for seq and par).
 *
 * The host loop that drives the PartitionSet calls poll() at window
 * boundaries — between quanta no worker is running, so cross-partition
 * reads are race-free — and clampWindow()/driveTo() align window ends
 * to sample instants so samples land exactly on the period grid.
 */

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "core/time.hh"

namespace diablo {
namespace sim {

class Cluster;

/** Streams periodic cluster snapshots to a JSONL file. */
class TelemetryProbe {
  public:
    /** App-level progress the driving harness knows and models don't. */
    struct AppStats {
        uint64_t requests_completed = 0;
        uint64_t bytes = 0;    ///< app payload bytes moved so far
        double p99_us = 0.0;   ///< p99-so-far of the app's latency stat
    };
    using Sampler = std::function<void(AppStats &)>;

    /**
     * Opens @p path for writing (fatal on failure).  @p period must be
     * positive.  The probe takes its first sample at the first
     * period boundary, not at time 0.
     */
    TelemetryProbe(Cluster &cluster, SimTime period, std::string path);
    ~TelemetryProbe();

    TelemetryProbe(const TelemetryProbe &) = delete;
    TelemetryProbe &operator=(const TelemetryProbe &) = delete;

    /** Provide app-level numbers; called once per sample. */
    void setSampler(Sampler s) { sampler_ = std::move(s); }

    /**
     * Take any samples due at or before @p now.  Call
     * at window boundaries (no workers running).  Samples are stamped
     * with their nominal grid time, so a poll that covers several
     * periods emits several rows.
     */
    void poll(SimTime now);

    /**
     * Clamp a window end so the next sample instant is never jumped
     * over: returns min(until, next sample due time).
     */
    SimTime clampWindow(SimTime until) const;

    /**
     * Drive the engine to exactly @p until while sampling on
     * the period grid: repeatedly advances to the next sample instant
     * (via @p run, which must advance the engine to its argument),
     * polls, and finishes at @p until.  The caller's window sequence
     * is unchanged — the same outer windows run with telemetry on or
     * off, which is what keeps window-quantized measurements (e.g. a
     * driver's elapsed time) bit-identical either way.
     */
    void driveTo(SimTime until, const std::function<void(SimTime)> &run);

    SimTime period() const { return period_; }
    uint64_t samplesWritten() const { return samples_; }
    const std::string &path() const { return path_; }

    /** Flush the stream (rows are also flushed per sample). */
    void flush();

  private:
    void sample(SimTime t);

    Cluster &cluster_;
    SimTime period_;
    SimTime next_due_;
    std::string path_;
    FILE *out_ = nullptr;
    Sampler sampler_;
    uint64_t samples_ = 0;

    // previous-sample state for the delta columns
    uint64_t last_requests_ = 0;
    uint64_t last_bytes_ = 0;
    uint64_t last_events_ = 0;
    uint64_t last_materialized_ = 0;
};

} // namespace sim
} // namespace diablo

#endif // DIABLO_SIM_TELEMETRY_HH_
