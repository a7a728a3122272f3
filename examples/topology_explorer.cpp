// Topology explorer: renders the three L-NUCA networks of Fig. 2 as ASCII
// floorplans and prints per-tile link/latency detail for any level count.
//
//   ./examples/topology_explorer [--levels 3]
#include "src/lnuca.h"

#include <cstdio>

using namespace lnuca;
using fabric::geometry;
using fabric::tile_index;

namespace {

void draw_floorplan(const geometry& geo)
{
    const int d = int(geo.rings());
    std::printf("Floorplan (numbers = Fig. 2(c) tile latency; R = r-tile):\n");
    for (int y = d; y >= 0; --y) {
        for (int x = -d; x <= d; ++x) {
            if (x == 0 && y == 0)
                std::printf("  R ");
            else if (geo.contains({x, y}))
                std::printf("%3u ", geo.latency_of({x, y}));
            else
                std::printf("    ");
        }
        std::printf("\n");
    }
    std::printf("\n");
}

void draw_levels(const geometry& geo)
{
    const int d = int(geo.rings());
    std::printf("Levels (Le2 surrounds the r-tile; each ring adds 4d+1 tiles):\n");
    for (int y = d; y >= 0; --y) {
        for (int x = -d; x <= d; ++x) {
            if (x == 0 && y == 0)
                std::printf("  R ");
            else if (geo.contains({x, y}))
                std::printf("%3u ", geo.level_of({x, y}));
            else
                std::printf("    ");
        }
        std::printf("\n");
    }
    std::printf("\n");
}

} // namespace

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    if (!args.only_known("topology_explorer", {"levels"}))
        return 2;
    const unsigned levels = unsigned(args.get_u64("levels", 3));
    const geometry geo(levels);

    std::printf("L-NUCA with %u levels: %u tiles (%s of tile storage)\n\n",
                levels, geo.tile_count(),
                format_size(geo.tile_count() * 8_KiB).c_str());

    draw_levels(geo);
    draw_floorplan(geo);

    text_table links("Network links (all unidirectional)");
    links.set_header({"network", "links", "max distance", "purpose"});
    links.add_row({"Search (broadcast tree)",
                   std::to_string(geo.search_link_count()),
                   std::to_string(geo.search_max_distance()),
                   "miss propagation, 1 level/cycle"});
    links.add_row({"Transport (to-root mesh)",
                   std::to_string(geo.transport_link_count()),
                   std::to_string(geo.rings() * 2),
                   "hit blocks to the r-tile"});
    links.add_row({"Replacement (latency DAG)",
                   std::to_string(geo.replacement_link_count()),
                   std::to_string(geo.replacement_exit_distance()),
                   "victim domino, temporal ordering"});
    links.add_row({"NUCA-style 2D mesh (for comparison)",
                   std::to_string(geo.mesh_equivalent_link_count()),
                   std::to_string(geo.mesh_equivalent_max_distance()),
                   "what the paper replaces"});
    links.print();

    // Per-tile detail for the most-connected tile (the paper's Fig. 3
    // example is the upper-left corner tile of Le2).
    const tile_index corner = geo.index_of({-1, 1});
    text_table detail("Example tile (-1,1): the paper's max-degree case");
    detail.set_header({"attribute", "value"});
    detail.add_row({"level", std::to_string(geo.level_of({-1, 1}))});
    detail.add_row({"latency", std::to_string(geo.latency_of({-1, 1}))});
    detail.add_row({"search children",
                    std::to_string(geo.search_children(corner).size())});
    detail.add_row({"transport out-links",
                    std::to_string(geo.transport_outputs(corner).size())});
    detail.add_row({"transport in-links",
                    std::to_string(geo.transport_inputs(corner).size())});
    detail.add_row({"replacement out-links",
                    std::to_string(geo.replacement_outputs(corner).size())});
    detail.add_row({"replacement in-links",
                    std::to_string(geo.replacement_inputs(corner).size())});
    detail.print();
    return 0;
}
