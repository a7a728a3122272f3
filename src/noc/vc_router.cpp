#include "src/noc/vc_router.h"

#include <stdexcept>

namespace lnuca::noc {

vc_router::vc_router(const router_config& config, coord position,
                     mesh_network& mesh, std::size_t index)
    : config_(config), position_(position), mesh_(&mesh), index_(index)
{
    const std::size_t slots = port_count * config_.virtual_channels;
    if (config_.virtual_channels == 0 || slots > 64)
        throw std::invalid_argument(
            "router needs 1 to 12 virtual channels per port");
    inputs_.resize(slots);
    for (auto& vc : inputs_)
        vc.buffer = sync_fifo<flit>(config_.vc_depth);
    credits_.assign(slots, config_.vc_depth);
    vc_owner_.assign(slots, -1);
}

bool vc_router::local_can_accept(std::uint32_t vc) const
{
    return inputs_[vc].buffer.on(); // the local port's slots come first
}

void vc_router::local_inject(std::uint32_t vc, const flit& f)
{
    stage(vc, f);
    counters_.inc(h_injected_);
}

std::optional<flit> vc_router::local_eject()
{
    if (ejected_.empty())
        return std::nullopt;
    flit f = ejected_.take_front();
    if (ejected_.empty())
        mesh_->ejecting_.clear(index_);
    return f;
}

void vc_router::stage(std::size_t slot, const flit& f)
{
    inputs_[slot].buffer.push(f);
    const std::uint64_t bit = std::uint64_t(1) << slot;
    occupied_ |= bit;
    staged_ |= bit;
    mesh_->busy_.set(index_);
}

void vc_router::allocate_vcs()
{
    const std::uint32_t vcs = config_.virtual_channels;
    for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
        const std::size_t slot = lowest_bit(bits);
        input_vc& ivc = inputs_[slot];
        const flit* head = ivc.buffer.front();
        if (head == nullptr || ivc.routed || !head->head())
            continue;
        const port_dir out = mesh_network::route_xy(position_, head->dst);
        if (out == port_dir::local) {
            ivc.routed = true;
            ivc.out = out;
            ivc.out_vc = 0;
            continue;
        }
        // Claim a free downstream VC with buffering available.
        const std::size_t base = std::size_t(out) * vcs;
        for (std::uint32_t ovc = 0; ovc < vcs; ++ovc) {
            if (vc_owner_[base + ovc] == -1 && credits_[base + ovc] > 0) {
                vc_owner_[base + ovc] = std::int32_t(slot);
                ivc.routed = true;
                ivc.out = out;
                ivc.out_vc = ovc;
                break;
            }
        }
        if (!ivc.routed)
            counters_.inc(h_vc_alloc_stall_);
    }
}

std::uint64_t vc_router::traverse(std::size_t rotate)
{
    const std::uint32_t vcs = config_.virtual_channels;
    // Requests per output: routed VCs with a visible flit. Serving one
    // output never makes a VC eligible for another (a VC keeps its output
    // until its tail passes), so the masks hold for the whole scan.
    std::array<std::uint64_t, port_count> requests{};
    for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
        const std::size_t slot = lowest_bit(bits);
        const input_vc& ivc = inputs_[slot];
        if (ivc.routed && ivc.buffer.front() != nullptr)
            requests[std::size_t(ivc.out)] |= std::uint64_t(1) << slot;
    }

    // Round-robin from the cycle's rotation: slots >= rotate ascending,
    // then the slots below it, i.e. slots (rotate + k) % slots for k = 0,
    // 1, ... A candidate without a downstream credit counts a credit stall
    // and yields to the next.
    const std::uint64_t from_rotate = ~std::uint64_t(0) << rotate;
    std::uint64_t hops = 0;
    for (std::size_t out = 0; out < port_count; ++out) {
        const std::uint64_t order[2] = {requests[out] & from_rotate,
                                        requests[out] & ~from_rotate};
        bool sent = false;
        for (std::uint64_t bits : order) {
            for (; bits != 0 && !sent; bits &= bits - 1) {
                const std::size_t slot = lowest_bit(bits);
                if (out != std::size_t(port_dir::local) &&
                    credits_[out * vcs + inputs_[slot].out_vc] == 0) {
                    counters_.inc(h_credit_stall_);
                    continue;
                }
                move_flit(slot);
                hops += out != std::size_t(port_dir::local);
                sent = true;
            }
        }
    }
    return hops;
}

void vc_router::move_flit(std::size_t slot)
{
    const std::uint32_t vcs = config_.virtual_channels;
    input_vc& ivc = inputs_[slot];
    const std::size_t out = std::size_t(ivc.out);
    const flit moving = *ivc.buffer.pop();
    if (ivc.buffer.idle())
        occupied_ &= ~(std::uint64_t(1) << slot);

    if (ivc.out == port_dir::local) {
        ejected_.push_back(moving);
        mesh_->ejecting_.set(index_);
        counters_.inc(h_ejected_);
    } else {
        links_[out]->stage(
            std::size_t(mesh_network::opposite(ivc.out)) * vcs + ivc.out_vc,
            moving);
        credits_[out * vcs + ivc.out_vc]--;
        counters_.inc(h_forwarded_);
    }

    // Return a credit to whoever feeds this input port.
    const port_dir in = port_dir(slot / vcs);
    if (vc_router* upstream = links_[std::size_t(in)])
        upstream->credits_[std::size_t(mesh_network::opposite(in)) * vcs +
                           slot % vcs]++;

    if (moving.tail()) {
        if (ivc.out != port_dir::local)
            vc_owner_[out * vcs + ivc.out_vc] = -1;
        ivc.routed = false;
    }
}

bool vc_router::commit()
{
    for (std::uint64_t bits = staged_; bits != 0; bits &= bits - 1)
        inputs_[lowest_bit(bits)].buffer.commit();
    staged_ = 0;
    return occupied_ != 0;
}

mesh_network::mesh_network(const router_config& config, int width, int height)
    : config_(config), width_(width), height_(height)
{
    if (width <= 0 || height <= 0)
        throw std::invalid_argument("mesh dimensions must be positive");
    const std::size_t count = std::size_t(width) * std::size_t(height);
    routers_.reserve(count);
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            routers_.emplace_back(config, coord{x, y}, *this, routers_.size());
    for (vc_router& r : routers_)
        for (const port_dir d : {port_dir::north, port_dir::south,
                                 port_dir::east, port_dir::west}) {
            const coord c = neighbour(r.position_, d);
            if (in_bounds(c))
                r.links_[std::size_t(d)] = &at(c);
        }
    busy_ = index_mask(count);
    ejecting_ = index_mask(count);
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
    // Only routers holding flits act. Within each phase they go in index
    // order: a credit returned in phase B is visible to upstream routers
    // later in the order in the same cycle, so the order is part of the
    // model.
    // Phase A: route computation + virtual-channel allocation for new heads.
    busy_.for_each([&](std::size_t i) { routers_[i].allocate_vcs(); });

    // Phase B: switch allocation + traversal. One flit per output port per
    // cycle, round-robin over input VCs for fairness.
    // The rotation pointer is a pure function of the cycle number (every
    // router used to advance a member copy once per step, in lockstep), so
    // arbitration fairness is independent of how many idle cycles the
    // engine skipped. A router that receives its first flit during this
    // phase may join the walk; with nothing visible yet it moves nothing.
    const std::size_t rotate =
        std::size_t(now % (port_count * config_.virtual_channels));
    std::uint64_t hops = 0;
    busy_.for_each(
        [&](std::size_t i) { hops += routers_[i].traverse(rotate); });

    // Make staged flits visible for the next cycle; drop emptied routers.
    busy_.for_each([&](std::size_t i) {
        if (!routers_[i].commit())
            busy_.clear(i);
    });
    return hops;
}

bool mesh_network::quiescent() const
{
    return !busy_.any() && !ejecting_.any();
}

std::uint64_t mesh_network::occupancy_digest() const
{
    std::uint64_t h = 0;
    for (std::size_t i = 0; i < routers_.size(); ++i) {
        const vc_router& r = routers_[i];
        h = h * 0x100000001b3ULL + r.ejected_.size();
        std::uint64_t occupied = 0;
        for (std::size_t slot = 0; slot < r.inputs_.size(); ++slot) {
            const auto& vc = r.inputs_[slot];
            h = h * 0x100000001b3ULL + vc.buffer.total_size() * 8 +
                (vc.routed ? 4 : 0);
            if (!vc.buffer.idle())
                occupied |= std::uint64_t(1) << slot;
        }
        if (occupied != r.occupied_ || (r.staged_ & ~occupied) != 0 ||
            busy_.test(i) != (occupied != 0) ||
            ejecting_.test(i) != !r.ejected_.empty())
            throw std::logic_error(
                "mesh occupancy masks disagree with the router buffers");
    }
    return h;
}

} // namespace lnuca::noc
