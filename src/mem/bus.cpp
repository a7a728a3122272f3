#include "src/mem/bus.h"

#include <algorithm>

namespace lnuca::mem {

bool bus::can_accept(const mem_request&) const
{
    return down_.size() < 16;
}

void bus::accept(const mem_request& request)
{
    down_.push(request.created_at + config_.arbitration, request);
}

void bus::respond(const mem_response& response)
{
    up_.push(response.ready_at + config_.arbitration, response);
}

cycle_t bus::next_event(cycle_t now) const
{
    // Each channel acts when its earliest queued transfer matures; the
    // free_at gates may defer that further, but waking early is merely a
    // no-op tick (pop_ready still fails or the channel stays busy).
    (void)now;
    return std::min(down_.next_ready(), up_.next_ready());
}

std::uint64_t bus::state_digest() const
{
    sim::state_hash h;
    h.mix(counters_.digest());
    h.mix(down_.size());
    h.mix(down_.next_ready());
    h.mix(up_.size());
    h.mix(up_.next_ready());
    h.mix(down_free_at_);
    h.mix(up_free_at_);
    return h.value();
}

void bus::tick(cycle_t now)
{
    // Downward channel: one request wins arbitration per transfer slot.
    // Reads are address-only; writes stream their payload.
    if (down_free_at_ <= now) {
        if (auto request = down_.pop_ready(now)) {
            mem_request forwarded = *request;
            forwarded.created_at = now; // offered to the target *now*
            if (downstream_ != nullptr && downstream_->can_accept(forwarded)) {
                downstream_->accept(forwarded);
                down_free_at_ =
                    now + (request->kind == access_kind::read
                               ? 1
                               : transfer_cycles(request->size));
                counters_.inc(h_down_transfers_);
            } else {
                down_.push(now + 1, *request); // target busy: retry
                counters_.inc(h_down_stall_);
            }
        }
    }
    // Upward channel: responses stream a block over the narrow wires.
    if (up_free_at_ <= now) {
        if (auto response = up_.pop_ready(now)) {
            const cycle_t transfer = transfer_cycles(config_.response_bytes);
            if (upstream_ != nullptr) {
                mem_response forwarded = *response;
                forwarded.ready_at = now + transfer - 1;
                upstream_->respond(forwarded);
            }
            up_free_at_ = now + transfer;
            counters_.inc(h_up_transfers_);
        }
    }
}

} // namespace lnuca::mem
