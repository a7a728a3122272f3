// Main memory channel per Table I: 200-cycle first chunk, 4 cycles per
// additional 16-byte chunk, bursts serialised on the data wires.
#pragma once

#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/mem/request.h"
#include "src/sim/ticked.h"
#include "src/sim/timed_queue.h"


namespace lnuca::mem {

struct main_memory_config {
    std::uint32_t first_chunk_latency = 200;
    std::uint32_t inter_chunk_latency = 4;
    std::uint32_t wire_bytes = 16;
    std::uint32_t queue_depth = 64; ///< controller queue entries
};

class main_memory final : public sim::ticked, public mem_port {
public:
    explicit main_memory(const main_memory_config& config) : config_(config)
    {
        queue_.reserve(config.queue_depth);
    }

    void set_upstream(mem_client* client) { upstream_ = client; }

    bool can_accept(const mem_request& request) const override;
    void accept(const mem_request& request) override;
    void tick(cycle_t now) override;
    cycle_t next_event(cycle_t now) const override;
    std::uint64_t state_digest() const override;

    const counter_set& counters() const { return counters_; }
    bool quiescent() const { return queue_.empty(); }

    /// Cycles to deliver a `bytes`-sized block, unloaded.
    cycle_t unloaded_latency(std::uint32_t bytes) const;

    template <class Ar> void serialize(Ar& ar)
    {
        ar.counters(counters_);
        ar(wires_free_at_);
    }

private:
    std::uint32_t chunks_for(std::uint32_t bytes) const
    {
        return (bytes + config_.wire_bytes - 1) / config_.wire_bytes;
    }

    main_memory_config config_;
    mem_client* upstream_ = nullptr;
    counter_set counters_;
    counter_set::handle h_reads_ = counters_.handle_of("reads");
    counter_set::handle h_writes_ = counters_.handle_of("writes");
    counter_set::handle h_transfers_ = counters_.handle_of("transfers");
    ring_queue<mem_request> queue_;
    cycle_t wires_free_at_ = 0;
};

} // namespace lnuca::mem
