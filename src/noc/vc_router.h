// Wormhole virtual-channel mesh router (the NUCA-style interconnect the
// paper contrasts L-NUCA against): dimension-order X-Y routing, per-input
// virtual channels with fixed-depth flit buffers, credit-based VC flow
// control, round-robin switch allocation, one cycle per hop.
#pragma once

#include "src/common/index_mask.h"
#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/noc/fifo.h"
#include "src/noc/message.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace lnuca::noc {

enum class port_dir : std::uint8_t { local = 0, north, south, east, west };
inline constexpr std::size_t port_count = 5;

struct router_config {
    std::uint32_t virtual_channels = 4;
    std::uint32_t vc_depth = 4; ///< flit buffer entries per VC
};

class mesh_network; // forward; owns and wires routers

/// One mesh node. Input-buffered; the local port is the bank/controller
/// attachment point. Input VC `vc` of port `p` is slot `p * V + vc`; the
/// router tracks which slots hold flits in a bitmask, so a cycle visits
/// only occupied VCs (at most 64 slots: V <= 12).
class vc_router {
public:
    vc_router(const router_config& config, coord position, mesh_network& mesh,
              std::size_t index);

    coord position() const { return position_; }

    /// Can the local port accept a new flit this cycle (VC `vc`)?
    bool local_can_accept(std::uint32_t vc) const;

    /// Inject a flit at the local port (caller checked local_can_accept).
    void local_inject(std::uint32_t vc, const flit& f);

    /// Drain one flit delivered to this node, if any.
    std::optional<flit> local_eject();

    const counter_set& counters() const { return counters_; }
    bool quiescent() const { return occupied_ == 0 && ejected_.empty(); }

    /// Input VC slots holding a committed or staged flit (bit p * V + vc).
    std::uint64_t occupied_vcs() const { return occupied_; }

    /// Checkpoint support: at quiescence buffers are empty, credits are
    /// back to full and every VC is unowned, so only counters persist.
    template <class Ar> void serialize(Ar& ar) { ar.counters(counters_); }

private:
    friend class mesh_network;

    struct input_vc {
        sync_fifo<flit> buffer{4};
        // Wormhole state: once a head flit is routed, the packet owns this
        // route until its tail passes.
        bool routed = false;
        port_dir out = port_dir::local;
        std::uint32_t out_vc = 0;
    };

    /// Stage `f` into input slot `slot` (visible after the next commit).
    void stage(std::size_t slot, const flit& f);
    /// Route and allocate a VC for every unrouted head (phase A).
    void allocate_vcs();
    /// Move at most one flit per output port (phase B); returns flit-hops.
    std::uint64_t traverse(std::size_t rotate);
    /// Move the head flit of `slot` through the crossbar.
    void move_flit(std::size_t slot);
    /// Make staged flits visible; returns whether any flit remains.
    bool commit();

    router_config config_;
    coord position_;
    mesh_network* mesh_;
    std::size_t index_; ///< position in the mesh's router order
    std::vector<input_vc> inputs_; ///< by slot p * V + vc
    // Downstream credits per output VC (free buffer slots), by o * V + vc.
    std::vector<std::uint32_t> credits_;
    // Output VC ownership for wormhole, by o * V + vc: owning input slot,
    // -1 free. (Switch-allocation round-robin rotates by cycle number - see
    // mesh_network::step - so routers hold no per-cycle arbitration state.)
    std::vector<std::int32_t> vc_owner_;
    /// Neighbour in each direction (nullptr at the mesh edge and for local).
    std::array<vc_router*, port_count> links_{};
    std::uint64_t occupied_ = 0; ///< slots with committed or staged flits
    std::uint64_t staged_ = 0;   ///< slots with staged flits
    ring_queue<flit> ejected_;
    counter_set counters_;
    counter_set::handle h_injected_ = counters_.handle_of("injected");
    counter_set::handle h_ejected_ = counters_.handle_of("ejected");
    counter_set::handle h_forwarded_ = counters_.handle_of("forwarded");
    counter_set::handle h_credit_stall_ = counters_.handle_of("credit_stall");
    counter_set::handle h_vc_alloc_stall_ =
        counters_.handle_of("vc_alloc_stall");
};

/// A width x height mesh of vc_routers with neighbour wiring. Call step()
/// once per cycle; flits staged this cycle are visible next cycle. The mesh
/// keeps two router bitmasks (bit = router index): routers holding flits,
/// which step() visits, and routers with undrained ejections.
class mesh_network {
public:
    mesh_network(const router_config& config, int width, int height);
    // Routers point at each other and at the mesh.
    mesh_network(const mesh_network&) = delete;
    mesh_network& operator=(const mesh_network&) = delete;

    int width() const { return width_; }
    int height() const { return height_; }

    vc_router& at(coord c) { return routers_[index(c)]; }
    const vc_router& at(coord c) const { return routers_[index(c)]; }

    /// Advance every router one cycle. Returns the flits forwarded to a
    /// neighbour this cycle (flit-hops, an energy model input).
    std::uint64_t step(cycle_t now);

    /// No flit buffered and none waiting at an ejection port. O(routers/64).
    bool quiescent() const;

    /// Call `fn(router)` for each router with an undrained ejection, in
    /// router index order (row-major from (0,0)).
    template <class Fn> void for_each_ejecting(Fn fn)
    {
        ejecting_.for_each([&](std::size_t i) { fn(routers_[i]); });
    }

    /// Cheap summary of buffer/ejection occupancy across all routers
    /// (paranoid-mode state digests; see sim/ticked.h). Throws
    /// std::logic_error when an occupancy mask disagrees with the buffers.
    std::uint64_t occupancy_digest() const;

    /// X-Y route: next hop direction from `from` towards `to`.
    static port_dir route_xy(coord from, coord to);

    /// Checkpoint support: per-router counters.
    template <class Ar> void serialize(Ar& ar)
    {
        for (vc_router& r : routers_)
            r.serialize(ar);
    }

private:
    friend class vc_router;

    std::size_t index(coord c) const
    {
        return std::size_t(c.y) * std::size_t(width_) + std::size_t(c.x);
    }

    bool in_bounds(coord c) const
    {
        return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
    }

    static coord neighbour(coord c, port_dir d);
    static port_dir opposite(port_dir d);

    router_config config_;
    int width_;
    int height_;
    std::vector<vc_router> routers_;
    index_mask busy_;     ///< routers with occupied VCs
    index_mask ejecting_; ///< routers with ejected flits
};

} // namespace lnuca::noc
