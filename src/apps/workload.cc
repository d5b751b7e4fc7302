#include "apps/workload.hh"

#include <algorithm>
#include <cmath>

namespace diablo {
namespace apps {

EtcWorkload::EtcWorkload(const EtcWorkloadParams &params, Rng rng)
    : params_(params), rng_(rng),
      zipf_(params.keys_per_server, params.zipf_skew)
{
}

uint32_t
EtcWorkload::valueSizeFor(uint64_t server_id, uint64_t key_id) const
{
    // Deterministic per (server, key): a real store returns the same
    // value size every time a key is read.
    Rng r(0x5EED0000u ^ (server_id * 0x9E3779B97F4A7C15ULL) ^
          (key_id * 0xC2B2AE3D27D4EB4FULL));
    if (r.uniform() < params_.tiny_value_fraction) {
        return static_cast<uint32_t>(r.uniformInt(params_.value_min, 10));
    }
    double v = r.generalizedPareto(0.0, params_.value_gp_scale,
                                   params_.value_gp_shape);
    auto bytes = static_cast<uint32_t>(v);
    return std::clamp(bytes, params_.value_min, params_.value_max);
}

GeneratedRequest
EtcWorkload::next(uint64_t server_id)
{
    GeneratedRequest g;
    g.is_get = rng_.bernoulli(params_.get_ratio);
    g.key_id = zipf_.sample(rng_);
    double k = rng_.lognormal(params_.key_mu, params_.key_sigma);
    g.key_bytes = std::clamp(static_cast<uint32_t>(k), params_.key_min,
                             params_.key_max);
    g.value_bytes = valueSizeFor(server_id, g.key_id);
    return g;
}

} // namespace apps
} // namespace diablo
