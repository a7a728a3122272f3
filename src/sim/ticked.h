// Cycle-driven component interface.
//
// The engine advances one processor cycle at a time and calls tick(now) on
// every registered component in registration order. Registration order is
// part of the timing contract: producers that must be visible to consumers
// within the same cycle register earlier (see engine.h).
//
// Idle-skip scheduling: a component may additionally implement
// next_event(now), a *lower bound* on the earliest cycle at which its tick
// would do anything observable. The engine executes a cycle iff some
// component's bound has been reached, and jumps over the provably idle gap
// otherwise. Returning `now` means "I may act this very cycle - never skip
// me" (the dense default); returning no_cycle means "nothing will ever
// happen until someone pushes new work into me". The bound must be
// conservative: waking a component early is harmless (its tick is a no-op,
// exactly as it would be under dense stepping), but a bound that overshoots
// a cycle where the component would have acted changes simulated timing.
// See DESIGN.md ("The idle-skip engine") for the full safety argument.
//
// Checkpointing is not part of this interface: a component persists only
// through its `template <class Ar> void serialize(Ar&)` member, which
// hier::system calls on the concrete type inside that component's section
// (see src/ckpt/archive.h).
#pragma once

#include "src/common/types.h"

#include <cstdint>

namespace lnuca::sim {

/// Order-independent accumulator for cheap component state digests
/// (paranoid-mode cross-checking; see engine.h). mix() folds a value in
/// position-sensitively, mix_unordered() folds in a set whose iteration
/// order is unspecified (hash maps).
class state_hash {
public:
    void mix(std::uint64_t v)
    {
        h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    }

    void mix_unordered(std::uint64_t v) { sum_ += v * 0x2545f4914f6cdd1dULL; }

    std::uint64_t value() const { return h_ ^ sum_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
    std::uint64_t sum_ = 0;
};

class ticked {
public:
    virtual ~ticked() = default;

    /// Advance this component by one cycle. `now` is the cycle being executed.
    virtual void tick(cycle_t now) = 0;

    /// Earliest cycle >= now at which this component's tick may change any
    /// observable state, given its state right now. Default: "this cycle" -
    /// dense behaviour, the component is never skipped.
    virtual cycle_t next_event(cycle_t now) const { return now; }

    /// Cheap summary of observable state, used by the paranoid engine mode
    /// to assert that a tick on a skippable cycle is a no-op. Components
    /// fold in their counters, queue occupancies and schedule horizons -
    /// anything a dishonest next_event() could silently change. Default 0
    /// ("stateless"): such a component is vacuously checkable. A component
    /// that keeps worklists beside its queues (the D-NUCA mesh and banks)
    /// throws std::logic_error here when they disagree.
    virtual std::uint64_t state_digest() const { return 0; }
};

} // namespace lnuca::sim
