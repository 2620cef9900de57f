#include "ledger.h"

#include <cstdio>

#include "harness.h"

namespace perfbench {

const LedgerRow* FindLedgerRow(std::string_view name) {
  for (const LedgerRow& row : kLedger) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

void PrintLedger(const Report& report) {
  std::printf(
      "\n-- per-layer ledger (traced run; idle layers read 0 and are not "
      "listed) --\n");
  std::printf("%-30s %14s %-7s  %-44s %s\n", "metric", "value", "unit",
              "moves", "ROADMAP baseline (4-core reference machine)");
  for (const LedgerRow& row : kLedger) {
    const std::optional<double> value = report.LayerValue(row.name);
    if (!value) continue;
    std::printf("%-30s %14.6g %-7s  %-44s %s\n", row.name, *value, row.unit,
                row.moves, row.baseline != nullptr ? row.baseline : "");
  }
}

}  // namespace perfbench
