#include "src/noc/vc_router.h"

#include <stdexcept>

namespace lnuca::noc {

vc_router::vc_router(const router_config& config, coord position)
    : config_(config), position_(position)
{
    for (auto& port : inputs_) {
        port.vcs.resize(config_.virtual_channels);
        for (auto& vc : port.vcs)
            vc.buffer = sync_fifo<flit>(config_.vc_depth);
    }
    for (auto& c : credits_)
        c.assign(config_.virtual_channels, config_.vc_depth);
    for (auto& o : vc_owner_)
        o.assign(config_.virtual_channels, -1);
}

bool vc_router::local_can_accept(std::uint32_t vc) const
{
    return inputs_[std::size_t(port_dir::local)].vcs[vc].buffer.on();
}

void vc_router::local_inject(std::uint32_t vc, const flit& f)
{
    inputs_[std::size_t(port_dir::local)].vcs[vc].buffer.push(f);
    counters_.inc(h_injected_);
}

std::optional<flit> vc_router::local_eject()
{
    if (ejected_.empty())
        return std::nullopt;
    return ejected_.take_front();
}

bool vc_router::quiescent() const
{
    if (!ejected_.empty())
        return false;
    for (const auto& port : inputs_)
        for (const auto& vc : port.vcs)
            if (!vc.buffer.empty())
                return false;
    return true;
}

mesh_network::mesh_network(const router_config& config, int width, int height)
    : config_(config), width_(width), height_(height)
{
    if (width <= 0 || height <= 0)
        throw std::invalid_argument("mesh dimensions must be positive");
    routers_.reserve(std::size_t(width) * std::size_t(height));
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            routers_.emplace_back(config, coord{x, y});
}

port_dir mesh_network::route_xy(coord from, coord to)
{
    if (to.x > from.x)
        return port_dir::east;
    if (to.x < from.x)
        return port_dir::west;
    if (to.y > from.y)
        return port_dir::north;
    if (to.y < from.y)
        return port_dir::south;
    return port_dir::local;
}

coord mesh_network::neighbour(coord c, port_dir d)
{
    switch (d) {
    case port_dir::north: return {c.x, c.y + 1};
    case port_dir::south: return {c.x, c.y - 1};
    case port_dir::east: return {c.x + 1, c.y};
    case port_dir::west: return {c.x - 1, c.y};
    case port_dir::local: return c;
    }
    return c;
}

port_dir mesh_network::opposite(port_dir d)
{
    switch (d) {
    case port_dir::north: return port_dir::south;
    case port_dir::south: return port_dir::north;
    case port_dir::east: return port_dir::west;
    case port_dir::west: return port_dir::east;
    case port_dir::local: return port_dir::local;
    }
    return port_dir::local;
}

std::uint64_t mesh_network::step(cycle_t now)
{
    const std::uint32_t vcs = config_.virtual_channels;
    std::uint64_t hops = 0;

    // Phase A: route computation + virtual-channel allocation for new heads.
    for (auto& r : routers_) {
        for (std::size_t p = 0; p < port_count; ++p) {
            for (std::uint32_t v = 0; v < vcs; ++v) {
                auto& ivc = r.inputs_[p].vcs[v];
                const flit* head = ivc.buffer.front();
                if (head == nullptr || ivc.routed || !head->head())
                    continue;
                const port_dir out = route_xy(r.position_, head->dst);
                if (out == port_dir::local) {
                    ivc.routed = true;
                    ivc.out = out;
                    ivc.out_vc = 0;
                    continue;
                }
                // Claim a free downstream VC with buffering available.
                auto& owners = r.vc_owner_[std::size_t(out)];
                auto& credits = r.credits_[std::size_t(out)];
                const std::int32_t self = std::int32_t(p * vcs + v);
                for (std::uint32_t ovc = 0; ovc < vcs; ++ovc) {
                    if (owners[ovc] == -1 && credits[ovc] > 0) {
                        owners[ovc] = self;
                        ivc.routed = true;
                        ivc.out = out;
                        ivc.out_vc = ovc;
                        break;
                    }
                }
                if (!ivc.routed)
                    r.counters_.inc(r.h_vc_alloc_stall_);
            }
        }
    }

    // Phase B: switch allocation + traversal. One flit per output port per
    // cycle, round-robin over input VCs for fairness.
    // The rotation pointer is a pure function of the cycle number (every
    // router used to advance a member copy once per step, in lockstep), so
    // arbitration fairness is independent of how many idle cycles the
    // engine skipped.
    const std::size_t slots = port_count * vcs;
    const std::size_t rotate = std::size_t(now % slots);
    for (auto& r : routers_) {
        for (std::size_t out = 0; out < port_count; ++out) {
            bool sent = false;
            for (std::size_t k = 0; k < slots && !sent; ++k) {
                const std::size_t slot = (rotate + k) % slots;
                const std::size_t p = slot / vcs;
                const std::uint32_t v = std::uint32_t(slot % vcs);
                auto& ivc = r.inputs_[p].vcs[v];
                const flit* head = ivc.buffer.front();
                if (head == nullptr || !ivc.routed ||
                    std::size_t(ivc.out) != out)
                    continue;
                if (ivc.out != port_dir::local &&
                    r.credits_[out][ivc.out_vc] == 0) {
                    r.counters_.inc(r.h_credit_stall_);
                    continue;
                }

                const flit moving = *ivc.buffer.pop();
                if (ivc.out == port_dir::local) {
                    r.ejected_.push_back(moving);
                    r.counters_.inc(r.h_ejected_);
                } else {
                    const coord nc = neighbour(r.position_, ivc.out);
                    vc_router& next = at(nc);
                    next.inputs_[std::size_t(opposite(ivc.out))]
                        .vcs[ivc.out_vc]
                        .buffer.push(moving);
                    r.credits_[out][ivc.out_vc]--;
                    ++hops;
                    r.counters_.inc(r.h_forwarded_);
                }

                // Return a credit to whoever feeds this input port.
                if (p != std::size_t(port_dir::local)) {
                    const coord up = neighbour(r.position_, port_dir(p));
                    if (in_bounds(up)) {
                        vc_router& upstream = at(up);
                        upstream.credits_[std::size_t(opposite(port_dir(p)))][v]++;
                    }
                }

                if (moving.tail()) {
                    if (ivc.out != port_dir::local)
                        r.vc_owner_[out][ivc.out_vc] = -1;
                    ivc.routed = false;
                }
                sent = true;
            }
        }
    }

    // Make staged flits visible for the next cycle.
    for (auto& r : routers_)
        for (auto& port : r.inputs_)
            for (auto& vc : port.vcs)
                vc.buffer.commit();
    return hops;
}

bool mesh_network::quiescent() const
{
    for (const auto& r : routers_)
        if (!r.quiescent())
            return false;
    return true;
}

std::uint64_t mesh_network::occupancy_digest() const
{
    std::uint64_t h = 0;
    for (const auto& r : routers_) {
        h = h * 0x100000001b3ULL + r.ejected_.size();
        for (const auto& port : r.inputs_)
            for (const auto& vc : port.vcs)
                h = h * 0x100000001b3ULL + vc.buffer.total_size() * 8 +
                    (vc.routed ? 4 : 0);
    }
    return h;
}

} // namespace lnuca::noc
