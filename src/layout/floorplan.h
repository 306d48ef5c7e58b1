// Macro floorplanner: assembles the three generated parts of the paper's
// flow — memory array, DCIM compute components, digital peripherals — into
// one macro and reports its dimensions (the Fig. 6 quantities).
//
// Region mapping from netlist component groups:
//   memory      <- "sram"             (tiled bit-cell array, not row-placed)
//   compute     <- "compute", "adder_tree", "accumulator"
//   peripherals <- everything else (input buffer, fusion, pre-alignment,
//                  INT-to-FP, core)
//
// The three regions stack vertically at a common width chosen from the
// memory array tile; compute and peripheral regions are row-placed at that
// width.  This mirrors "the layout can be merged by a script considering
// the relationship of these three parts" (§III-C).
#pragma once

#include <map>
#include <string>

#include "layout/row_placer.h"
#include "rtl/macro_builder.h"

namespace sega {

struct RegionLayout {
  std::string name;
  double x_um = 0.0;
  double y_um = 0.0;
  double width_um = 0.0;
  double height_um = 0.0;
  double cell_area_um2 = 0.0;
  std::int64_t cell_count = 0;
  RowPlacement placement;  ///< empty for the tiled memory region
};

struct MacroLayout {
  std::string name;
  double width_um = 0.0;
  double height_um = 0.0;
  double area_mm2 = 0.0;
  std::vector<RegionLayout> regions;

  const RegionLayout* region(const std::string& name) const;
  double utilization() const;
};

struct FloorplanOptions {
  PlacerOptions placer;
  /// 6T bit-cell geometry: width/height aspect (bit cells are wide and
  /// short); area comes from the technology's SRAM cell entry.
  double sram_cell_aspect = 2.0;
  /// Fill slack between regions (routing channel), as a fraction of height.
  double channel_fraction = 0.02;
  /// Target width/height ratio of the full macro (Fig. 6 macros are ~1.5).
  /// The common region width is max(memory tile width, width implied by
  /// this aspect at the estimated total area).
  double target_aspect = 1.5;
};

/// Dimensions of the tiled memory array for an (N, H, L) macro: N*L bit
/// columns by H word rows, folded into extra rows until the tile is at most
/// ~2x wider than tall (real SRAM compilers fold the same way).
struct MemoryTile {
  double width_um = 0.0;
  double height_um = 0.0;
};
MemoryTile memory_tile(const Technology& tech, std::int64_t n, std::int64_t h,
                       std::int64_t l, const FloorplanOptions& options = {});

/// Floorplan a generated macro.
MacroLayout floorplan_macro(const Technology& tech, const DcimMacro& macro,
                            const FloorplanOptions& options = {});

}  // namespace sega
