// Reproduces Table I: memory system parameters of the 4 KiB RTM (32 nm,
// 32 tracks/DBC) for 2/4/8/16 DBCs. The paper obtained these from the
// DESTINY circuit simulator; DESTINY-lite is calibrated to return the same
// values at these anchors and to interpolate elsewhere — both shown here.
#include <string>

#include "destiny/device_model.h"
#include "harness/scenarios/scenarios.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;
  ctx.Print("== Table I: memory system parameters (4 KiB RTM, 32 nm, "
            "32 tracks/DBC) ==\n\n");

  util::TextTable table;
  table.SetHeader({"parameter", "2 DBCs", "4 DBCs", "8 DBCs", "16 DBCs",
                   "6 DBCs*"});
  table.SetAlignments({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight});

  struct Row {
    const char* label;
    const char* tag;
    double destiny::DeviceParams::* field;
    int digits;
  };
  const Row rows[] = {
      {"Number of domains in a DBC", "domains", nullptr, 0},
      {"Leakage power [mW]", "leakage_mw",
       &destiny::DeviceParams::leakage_mw, 2},
      {"Write energy [pJ]", "write_energy_pj",
       &destiny::DeviceParams::write_energy_pj, 2},
      {"Read energy [pJ]", "read_energy_pj",
       &destiny::DeviceParams::read_energy_pj, 2},
      {"Shift energy [pJ]", "shift_energy_pj",
       &destiny::DeviceParams::shift_energy_pj, 2},
      {"Read latency [ns]", "read_latency_ns",
       &destiny::DeviceParams::read_latency_ns, 2},
      {"Write latency [ns]", "write_latency_ns",
       &destiny::DeviceParams::write_latency_ns, 2},
      {"Shift latency [ns]", "shift_latency_ns",
       &destiny::DeviceParams::shift_latency_ns, 2},
      {"Area [mm^2]", "area_mm2", &destiny::DeviceParams::area_mm2, 4},
  };

  const destiny::DeviceParams six = destiny::EvaluateDevice(6);

  for (const Row& row : rows) {
    std::vector<std::string> cells{row.label};
    for (const unsigned dbcs : destiny::kTableOneDbcCounts) {
      if (row.field == nullptr) {
        cells.push_back(std::to_string(destiny::PaperDomainsPerDbc(dbcs)));
      } else {
        const auto params = destiny::EvaluateDevice(dbcs);
        ctx.Scalar("table1/" + std::string(row.tag) + "/" +
                       std::to_string(dbcs) + "dbc",
                   params.*(row.field));
        cells.push_back(util::FormatFixed(params.*(row.field), row.digits));
      }
    }
    if (row.field == nullptr) {
      cells.push_back(std::to_string(1024 / 6));
    } else {
      ctx.Scalar("table1/" + std::string(row.tag) + "/6dbc_interp",
                 six.*(row.field));
      cells.push_back(util::FormatFixed(six.*(row.field), row.digits));
    }
    table.AddRow(std::move(cells));
  }
  ctx.PrintTable(table);
  ctx.Print("\n(*) non-anchor configuration, DESTINY-lite interpolation "
            "(not part of Table I).\n");

  // Self-check against the published anchors.
  bool exact = true;
  for (const unsigned dbcs : destiny::kTableOneDbcCounts) {
    const auto model = destiny::EvaluateDevice(dbcs);
    const auto& paper = destiny::PaperTableOne(dbcs);
    exact = exact && model.leakage_mw == paper.leakage_mw &&
            model.write_energy_pj == paper.write_energy_pj &&
            model.read_energy_pj == paper.read_energy_pj &&
            model.shift_energy_pj == paper.shift_energy_pj &&
            model.read_latency_ns == paper.read_latency_ns &&
            model.write_latency_ns == paper.write_latency_ns &&
            model.shift_latency_ns == paper.shift_latency_ns &&
            model.area_mm2 == paper.area_mm2;
  }
  ctx.Print("\nanchor check: DESTINY-lite %s Table I at 2/4/8/16 DBCs\n",
            exact ? "exactly reproduces" : "DIVERGES from");
  ctx.RecordCheck("DESTINY-lite reproduces Table I anchors", exact,
                  /*fatal=*/true);
}

}  // namespace

void RegisterTable1DeviceParams(ScenarioRegistry& registry) {
  registry.Register({"table1_device_params",
                     "Table I: memory system parameters from DESTINY-lite",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios
