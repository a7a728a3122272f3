// Shared bit-identity comparator for hier::run_result, used by both the
// exp determinism tests (thread count / shard layout must not change a
// field) and the engine-schedule tests (dense vs idle-skip must not change
// a field). Compares every deterministic field of the run_result field
// table; the host-timing fields are deliberately absent - they measure the
// host, not the simulation.
#pragma once

#include "src/hier/system.h"

#include <gtest/gtest.h>

namespace lnuca {

inline void expect_sim_fields_identical(const hier::run_result& a,
                                        const hier::run_result& b)
{
    hier::for_each_field([&](const hier::field& d, auto member) {
        if (!d.deterministic())
            return;
        if constexpr (hier::kind_of(decltype(member){}) ==
                      hier::field_kind::energy)
            hier::for_each_energy_part([&](const char* part, auto e) {
                EXPECT_EQ((a.*member).*e, (b.*member).*e)
                    << d.name << '.' << part;
            });
        else
            EXPECT_EQ(a.*member, b.*member) << d.name;
    });
}

} // namespace lnuca
