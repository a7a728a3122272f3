// Split-transaction bus: forwards requests downward and responses upward
// with a fixed arbitration latency and a bandwidth limit (bytes per cycle).
// Used between hierarchy levels when the levels' own initiation intervals
// do not already model the channel (e.g. ablation studies).
#pragma once

#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/mem/request.h"
#include "src/sim/ticked.h"
#include "src/sim/timed_queue.h"

namespace lnuca::mem {

struct bus_config {
    std::uint32_t width_bytes = 16;  ///< payload moved per cycle
    std::uint32_t arbitration = 1;   ///< cycles to win the bus
    /// Bytes carried by an upward (refill) response: the upper cache's
    /// block. The narrow shared bus is what the L-NUCA's message-wide
    /// local links replace (Section III-A).
    std::uint32_t response_bytes = 32;
};

class bus final : public sim::ticked, public mem_port, public mem_client {
public:
    explicit bus(const bus_config& config) : config_(config)
    {
        // Occupancy is bounded by the upstream cache's MSHRs + write
        // buffer; pre-size so steady-state accept() never allocates (the
        // micro_hotpath zero-allocation gate covers this path).
        down_.reserve(128);
        up_.reserve(128);
    }

    void set_upstream(mem_client* client) { upstream_ = client; }
    void set_downstream(mem_port* port) { downstream_ = port; }

    // Upper side: requests travelling down.
    bool can_accept(const mem_request& request) const override;
    void accept(const mem_request& request) override;

    /// Warming is transparent to the bus: no tags, no state to warm.
    warm_result warm_access(const warm_request& request) override
    {
        return downstream_ != nullptr ? downstream_->warm_access(request)
                                      : warm_result{};
    }

    // Lower side: responses travelling up.
    void respond(const mem_response& response) override;

    void tick(cycle_t now) override;
    cycle_t next_event(cycle_t now) const override;
    std::uint64_t state_digest() const override;

    const counter_set& counters() const { return counters_; }
    bool quiescent() const { return down_.empty() && up_.empty(); }

    template <class Ar> void serialize(Ar& ar)
    {
        ar.counters(counters_);
        ar(down_free_at_);
        ar(up_free_at_);
    }

private:
    cycle_t transfer_cycles(std::uint32_t bytes) const
    {
        const std::uint32_t b = bytes == 0 ? 1 : bytes;
        return (b + config_.width_bytes - 1) / config_.width_bytes;
    }

    bus_config config_;
    mem_client* upstream_ = nullptr;
    mem_port* downstream_ = nullptr;
    counter_set counters_;
    counter_set::handle h_down_transfers_ =
        counters_.handle_of("down_transfers");
    counter_set::handle h_down_stall_ = counters_.handle_of("down_stall");
    counter_set::handle h_up_transfers_ = counters_.handle_of("up_transfers");
    sim::timed_queue<mem_request> down_;
    sim::timed_queue<mem_response> up_;
    cycle_t down_free_at_ = 0;
    cycle_t up_free_at_ = 0;
};

} // namespace lnuca::mem
