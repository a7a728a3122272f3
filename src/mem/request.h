// Memory transaction types and the two interfaces every level of the
// hierarchy speaks: mem_port (accepts requests travelling away from the
// core) and mem_client (receives responses travelling towards it).
//
// Only timing and tags are simulated, never data values — the standard
// approach for timing studies like the paper's.
#pragma once

#include "src/common/types.h"

#include <cstdint>
#include <string>

namespace lnuca::mem {

enum class access_kind : std::uint8_t {
    read,      ///< demand load (expects a response)
    write,     ///< demand store (response used to retire the store buffer)
    writeback, ///< dirty eviction travelling down (no response)
};

/// Identifies which structure serviced a request; used for the paper's
/// per-level hit statistics (Table III) and energy accounting.
enum class service_level : std::uint8_t {
    none = 0,
    l1,          ///< L1 / r-tile
    lnuca_tile,  ///< an L-NUCA tile (level recorded separately)
    l2,          ///< conventional L2
    l3,          ///< conventional L3
    dnuca,       ///< a D-NUCA bank
    memory,      ///< main memory
    peer_l1,     ///< another core's private L1 (cache-to-cache forward)
};

/// Core id carried by CMP-mode requests. Single-core systems leave it 0.
using core_id_t = std::uint8_t;
inline constexpr core_id_t no_core = 0xff;
/// Sharer bitmasks (coh::directory) bound the core count to 32.
inline constexpr unsigned max_cores = 32;

std::string to_string(service_level level);

struct mem_request {
    txn_id_t id = 0;
    addr_t addr = no_addr;
    std::uint32_t size = 0;
    access_kind kind = access_kind::read;
    cycle_t created_at = 0;
    /// Demand accesses expect a response; write-buffer drains and
    /// writebacks are fire-and-forget.
    bool needs_response = true;
    /// For writeback kind: does the block carry modified data? Clean
    /// victims circulate in exclusive/victim hierarchies (L-NUCA).
    bool dirty = false;
    /// CMP mode: which core's private hierarchy issued this request. The
    /// coherence hub keys directory updates and response routing on it.
    core_id_t core = 0;
    /// Read-for-ownership (MESI): the requester wants write permission, so
    /// every other cached copy must be invalidated before the response.
    bool exclusive = false;
};

struct mem_response {
    txn_id_t id = 0;
    addr_t addr = no_addr;
    cycle_t ready_at = 0;
    service_level served_by = service_level::none;
    /// For L-NUCA hits: fabric level (2 = Le2, ...). 0 otherwise.
    std::uint8_t fabric_level = 0;
    /// Block carries modified data (migrating dirty line must stay dirty).
    bool dirty = false;
    /// CMP mode: no other core holds a copy, so the line installs E (or M
    /// when dirty). Always granted for read-for-ownership responses.
    bool exclusive = false;
    /// CMP mode: the core whose private hierarchy this response serves.
    core_id_t core = 0;
};

/// A functional warming access (the sampled-simulation fast-forward path).
/// Carries no transaction id and expects no response: the access updates
/// stateful structures only.
struct warm_request {
    addr_t addr = no_addr;
    access_kind kind = access_kind::read;
    /// For writeback kind: block carries modified data.
    bool dirty = false;
    /// Write intent (MESI read-for-ownership / upgrade): the requester
    /// needs write permission, so the coherence hub must functionally
    /// invalidate every other cached copy. Single-core hierarchies and
    /// non-coherent levels ignore it.
    bool exclusive = false;
    /// CMP mode: which core's private hierarchy issued this access. The
    /// coherence hub keys its warm directory updates on it (mirrors
    /// mem_request::core). Single-core systems leave it 0.
    core_id_t core = 0;
};

/// What a warm read pulled up: the mem_response fields an install
/// decision depends on, so a warm fill and a timed refill install alike.
struct warm_result {
    /// The block carries modified data (the caller's install must preserve
    /// dirtiness, exactly like mem_response::dirty).
    bool dirty = false;
    /// CMP mode: no other core holds a copy, so a coherent L1 installs the
    /// line E/M (mirrors mem_response::exclusive). Levels below the
    /// coherence hub never grant it; the hub decides from its directory.
    bool exclusive = false;
};

/// Upstream-facing interface: a component the level above pushes requests
/// into. Callers must check can_accept in the same cycle before accept.
class mem_port {
public:
    virtual ~mem_port() = default;

    virtual bool can_accept(const mem_request& request) const = 0;
    virtual void accept(const mem_request& request) = 0;

    /// Functional warming contract (see DESIGN.md, "The warm_access()
    /// contract"): apply the content transitions the access would make
    /// under detailed timing - ideally the very functions the timed path
    /// schedules - to every stateful structure it would touch:
    /// tags, recency, dirtiness, allocation/migration decisions, MESI
    /// permission and directory sharer/owner state, and the same
    /// propagation down the hierarchy (miss fetches, victim writebacks,
    /// invalidation/downgrade of remote copies) - while touching *no*
    /// timing state: no queues, no MSHRs, no port schedules, no counters,
    /// no responses. May only be called while the component is quiescent
    /// (nothing in flight), which the sampled driver guarantees by
    /// draining between detailed windows.
    /// warm_result::dirty is set iff a read pulled up a block carrying
    /// modified data; warm_result::exclusive mirrors the coherence hub's
    /// E/M grant (see warm_result). Writes and writebacks return {}.
    /// Default: warm-transparent (main memory holds no warmable state).
    virtual warm_result warm_access(const warm_request& request)
    {
        (void)request;
        return {};
    }
};

/// Downstream-facing interface: receives responses for requests this
/// component (or its clients) previously pushed into a mem_port.
class mem_client {
public:
    virtual ~mem_client() = default;

    virtual void respond(const mem_response& response) = 0;
};

/// Monotonic transaction-id source (one per system).
class txn_id_source {
public:
    txn_id_t next() { return ++last_; }

    /// Checkpoint support: restoring the cursor keeps post-restore ids
    /// identical to the uninterrupted run's.
    template <class Ar> void serialize(Ar& ar) { ar(last_); }

private:
    txn_id_t last_ = 0;
};

} // namespace lnuca::mem
