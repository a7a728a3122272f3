#include "src/sim/engine.h"

#include <algorithm>
#include <string>

namespace lnuca::sim {

std::optional<schedule_mode> parse_schedule_mode(std::string_view token)
{
    if (token == "dense")
        return schedule_mode::dense;
    if (token == "skip" || token == "idle_skip" || token == "idle-skip")
        return schedule_mode::idle_skip;
    if (token == "paranoid")
        return schedule_mode::paranoid;
    return std::nullopt;
}

void engine::step()
{
    for (ticked* component : components_)
        component->tick(now_);
    ++now_;
    ++executed_;
}

cycle_t engine::horizon() const
{
    cycle_t h = no_cycle;
    for (const ticked* component : components_) {
        const cycle_t e = component->next_event(now_);
        if (e <= now_)
            return now_; // someone acts this cycle; no bound can be lower
        h = std::min(h, e);
    }
    return h;
}

void engine::paranoid_step()
{
    if (horizon() <= now_) {
        step();
        return;
    }
    // idle_skip would jump this cycle: ticking must be a no-op.
    ++skipped_;
    std::vector<std::uint64_t> before;
    before.reserve(components_.size());
    for (const ticked* component : components_)
        before.push_back(component->state_digest());
    const cycle_t cycle = now_;
    step();
    for (std::size_t i = 0; i < components_.size(); ++i) {
        if (components_[i]->state_digest() != before[i])
            throw engine_paranoia_error(
                "component " + std::to_string(i) + " acted on cycle " +
                std::to_string(cycle) +
                " although its next_event() declared it idle");
    }
}

bool engine::run_until(const std::function<bool()>& done, cycle_t max_cycles)
{
    const cycle_t target = now_ + max_cycles;
    switch (mode_) {
    case schedule_mode::dense:
        while (now_ < target) {
            if (done())
                return true;
            step();
        }
        return done();
    case schedule_mode::paranoid:
        while (now_ < target) {
            if (done())
                return true;
            paranoid_step();
        }
        return done();
    case schedule_mode::idle_skip:
        while (now_ < target) {
            if (done())
                return true;
            const cycle_t h = horizon();
            if (h > now_) {
                // No component state can change before h, so the (pure)
                // predicate keeps its current value across the gap.
                const cycle_t jump = std::min(h, target);
                skipped_ += jump - now_;
                now_ = jump;
                if (now_ >= target)
                    break;
            }
            step();
        }
        return done();
    }
    return done(); // unreachable; silences -Wreturn-type
}

} // namespace lnuca::sim
