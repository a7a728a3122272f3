#include "src/mem/main_memory.h"

#include <algorithm>

namespace lnuca::mem {

bool main_memory::can_accept(const mem_request&) const
{
    return queue_.size() < config_.queue_depth;
}

void main_memory::accept(const mem_request& request)
{
    queue_.push_back(request);
    counters_.inc(request.kind == access_kind::read ? h_reads_ : h_writes_);
}

cycle_t main_memory::unloaded_latency(std::uint32_t bytes) const
{
    const std::uint32_t chunks = chunks_for(bytes == 0 ? 1 : bytes);
    return config_.first_chunk_latency +
           cycle_t(chunks - 1) * config_.inter_chunk_latency;
}

cycle_t main_memory::next_event(cycle_t now) const
{
    if (queue_.empty())
        return no_cycle;
    // The head transfer starts as soon as the serialised data wires free up.
    return std::max(now, wires_free_at_);
}

std::uint64_t main_memory::state_digest() const
{
    sim::state_hash h;
    h.mix(counters_.digest());
    h.mix(queue_.size());
    h.mix(wires_free_at_);
    return h.value();
}

void main_memory::tick(cycle_t now)
{
    // Start one transfer per cycle at most; the data wires serialise bursts.
    if (queue_.empty() || wires_free_at_ > now)
        return;

    const mem_request request = queue_.front();
    queue_.pop_front();

    const std::uint32_t bytes = request.size == 0 ? config_.wire_bytes : request.size;
    const std::uint32_t chunks = chunks_for(bytes);
    const cycle_t burst = cycle_t(chunks) * config_.inter_chunk_latency;
    wires_free_at_ = now + burst;

    if (request.kind == access_kind::read && request.needs_response &&
        upstream_ != nullptr) {
        mem_response response;
        response.id = request.id;
        response.addr = request.addr;
        response.ready_at = now + unloaded_latency(bytes);
        response.served_by = service_level::memory;
        upstream_->respond(response);
    }
    counters_.inc(h_transfers_);
}

} // namespace lnuca::mem
