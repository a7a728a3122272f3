// Deterministic cycle engine with optional idle-skip scheduling.
//
// Timing contract: components are ticked in registration order. All
// inter-component hand-offs use explicit ready cycles (timed_queue) and a
// consumer only observes items stamped <= the current cycle, so a producer
// that ticks *before* its consumer can deliver in the same cycle while the
// reverse direction always lands one cycle later. Hierarchies therefore
// register top-down: core, L1/r-tile, L2/fabric, L3/D-NUCA, memory.
//
// Scheduling modes:
//   dense      tick every component every cycle (the reference semantics).
//   idle_skip  before each cycle, take the minimum of every component's
//              next_event() lower bound; when it lies in the future, jump
//              now_ over the provably idle gap without ticking anyone. On a
//              cycle that does execute, *all* components tick in
//              registration order, so the timing contract is untouched -
//              idle-skip only removes cycles in which every tick would have
//              been a no-op. Bit-identical to dense by construction
//              (enforced by tests/hier_test.cpp across all presets).
//   paranoid   dense stepping that cross-checks the skip schedule: on every
//              cycle idle_skip would have jumped over, assert that no
//              component's state_digest() changes across the tick. A
//              dishonest next_event() throws engine_paranoia_error naming
//              the offending component. Slow; for tests and CI sanitizer
//              runs.
#pragma once

#include "src/common/types.h"
#include "src/sim/ticked.h"

#include <functional>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace lnuca::sim {

enum class schedule_mode : std::uint8_t { dense, idle_skip, paranoid };

/// The command-line and manifest spelling of a mode: "dense", "skip" (also
/// "idle_skip"/"idle-skip") or "paranoid"; std::nullopt for anything else.
std::optional<schedule_mode> parse_schedule_mode(std::string_view token);

/// The canonical token parse_schedule_mode reads back.
constexpr const char* to_string(schedule_mode mode)
{
    switch (mode) {
    case schedule_mode::dense: return "dense";
    case schedule_mode::idle_skip: return "skip";
    case schedule_mode::paranoid: return "paranoid";
    }
    return "unknown";
}

/// Thrown by paranoid mode when a component acted on a cycle its
/// next_event() claimed was idle.
class engine_paranoia_error : public std::logic_error {
public:
    using std::logic_error::logic_error;
};

class engine {
public:
    /// Register a component. Non-owning; the component must outlive the engine.
    void add(ticked& component) { components_.push_back(&component); }

    void set_mode(schedule_mode mode) { mode_ = mode; }
    schedule_mode mode() const { return mode_; }

    cycle_t now() const { return now_; }

    /// Cycles jumped over without ticking (idle_skip) or provably skippable
    /// (paranoid); 0 under dense. Diagnostics/benchmark instrumentation.
    cycle_t cycles_skipped() const { return skipped_; }

    /// Cycles on which components were actually ticked.
    cycle_t cycles_executed() const { return executed_; }

    /// Cycles jumped by functional fast-forward (sampled simulation).
    cycle_t cycles_fast_forwarded() const { return fast_forwarded_; }

    /// Jump the clock `cycles` forward without ticking anyone. Only valid
    /// while every component is quiescent (no pending timed events): the
    /// sampled driver drains the system before fast-forwarding, so there is
    /// no event in (now, now + cycles) to miss. Overdue schedule anchors
    /// (port-free times, stall windows) are in the past either way and mean
    /// "free now", so jumping past them is safe.
    void advance(cycle_t cycles)
    {
        now_ += cycles;
        fast_forwarded_ += cycles;
    }

    /// Run exactly `cycles` cycles.
    void run(cycle_t cycles)
    {
        run_until([] { return false; }, cycles);
    }

    /// Run until `done()` returns true or `max_cycles` elapse.
    /// Returns true when the predicate fired (false: cycle budget exhausted).
    /// The predicate must be a pure function of component state: under
    /// idle-skip it is re-evaluated at event boundaries only, which is
    /// equivalent to per-cycle evaluation exactly because state cannot
    /// change on a skipped cycle.
    bool run_until(const std::function<bool()>& done, cycle_t max_cycles);

    /// Minimum of every component's next_event() bound, clamped to >= now()
    /// (an overdue event means "act immediately"). no_cycle when no
    /// component will ever act again without external input.
    cycle_t horizon() const;

    /// Checkpoint support: the clock and its attribution counters are the
    /// engine's entire persistent state (the component list is topology,
    /// rebuilt from config on restore). Restoring now_ absolutely means
    /// every schedule anchor (port-free cycles, wire-free times) restores
    /// as-is too.
    template <class Ar> void serialize(Ar& ar)
    {
        ar(now_);
        ar(skipped_);
        ar(executed_);
        ar(fast_forwarded_);
    }

private:
    void step();
    void paranoid_step();

    std::vector<ticked*> components_;
    cycle_t now_ = 0;
    cycle_t skipped_ = 0;
    cycle_t executed_ = 0;
    cycle_t fast_forwarded_ = 0;
    schedule_mode mode_ = schedule_mode::dense;
};

} // namespace lnuca::sim
