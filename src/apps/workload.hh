#ifndef DIABLO_APPS_WORKLOAD_HH_
#define DIABLO_APPS_WORKLOAD_HH_

/**
 * @file
 * Memcached workload generator modeled on published Facebook live-traffic
 * statistics (Atikoglu et al., SIGMETRICS'12 [23]).
 *
 * The paper §4.2: "Simple microbenchmark tools like memslap do not
 * attempt to reproduce the statistical characteristics of real traffic.
 * To provide a more realistic workload, we built our own client based on
 * recently published Facebook live traffic statistics.  At Facebook,
 * memcached servers are partitioned based on the concept of pools.  We
 * focused on one of the pools that is the most representative" — the ETC
 * pool.  This generator reproduces ETC's published shape:
 *
 *  - key sizes: log-normal-like, mostly 20-45 bytes, clipped to [16,250];
 *  - value sizes: generalized Pareto (location 0, scale 214.48, shape
 *    0.348) with a spike of tiny values, clipped to [2, 8192] so a
 *    response fits common UDP deployments;
 *  - GET:SET ratio approximately 30:1;
 *  - key popularity: Zipf over each server's keyspace;
 *  - value size is a deterministic function of (server, key), as it
 *    would be for a real store.
 */

#include <cstdint>

#include "core/random.hh"

namespace diablo {
namespace apps {

/** One generated request descriptor. */
struct GeneratedRequest {
    bool is_get = true;
    uint64_t key_id = 0;
    uint32_t key_bytes = 0;
    uint32_t value_bytes = 0;
};

/** Parameters of the ETC-pool statistical model. */
struct EtcWorkloadParams {
    double get_ratio = 30.0 / 31.0;

    // Key size: lognormal(mu, sigma) clipped.
    double key_mu = 3.55;      ///< e^3.55 ~ 35 bytes
    double key_sigma = 0.35;
    uint32_t key_min = 16;
    uint32_t key_max = 250;

    // Value size: generalized Pareto (Atikoglu et al., ETC).
    double value_gp_scale = 214.476;
    double value_gp_shape = 0.348238;
    /** Fraction of tiny (2-10 byte) values (the ETC small-value spike). */
    double tiny_value_fraction = 0.08;
    uint32_t value_min = 2;
    uint32_t value_max = 8192;

    // Popularity.
    uint64_t keys_per_server = 20000;
    double zipf_skew = 0.99;
};

/** Draws ETC-shaped requests; deterministic given the stream seed. */
class EtcWorkload {
  public:
    EtcWorkload(const EtcWorkloadParams &params, Rng rng);

    /** Generate the next request aimed at @p server_id's keyspace. */
    GeneratedRequest next(uint64_t server_id);

    /** Deterministic stored-value size for (server, key). */
    uint32_t valueSizeFor(uint64_t server_id, uint64_t key_id) const;

    const EtcWorkloadParams &params() const { return params_; }

  private:
    EtcWorkloadParams params_;
    Rng rng_;
    ZipfSampler zipf_;
};

} // namespace apps
} // namespace diablo

#endif // DIABLO_APPS_WORKLOAD_HH_
