// Proactive port alignment (related work [1], [12], [20], [21]): how much
// of the remaining shift latency can a controller hide by pre-shifting a
// DBC while the channel serves other DBCs — and how that interacts with
// placement quality. Placement and proactive alignment are complementary:
// placement removes shifts (energy AND latency), the controller only hides
// latency; and a good placement leaves fewer long shifts to hide.
#include "core/strategy_registry.h"
#include "harness/scenarios/scenarios.h"
#include "rtm/controller.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

/// Issues `seq` under `placement` as back-to-back requests (arrival 0)
/// in one batch, so the proactive lookahead spans the whole sequence.
rtmp::rtm::ControllerStats Replay(const rtmp::trace::AccessSequence& seq,
                                  const rtmp::core::Placement& placement,
                                  const rtmp::rtm::RtmConfig& config,
                                  const rtmp::rtm::ControllerConfig& cc) {
  std::vector<rtmp::rtm::TimedRequest> requests;
  requests.reserve(seq.size());
  for (const rtmp::trace::Access& access : seq.accesses()) {
    const rtmp::core::Slot slot = placement.SlotOf(access.variable);
    requests.push_back({0.0, slot.dbc, slot.offset, access.type});
  }
  rtmp::rtm::RtmController controller(config, cc);
  controller.ExecuteBatch(requests);
  return controller.stats();
}

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== Proactive alignment vs placement quality ==\n\n");
  ctx.PrintEffortNote();

  const auto suite = offsetstone::GenerateSuite();
  const char* subset[] = {"bison", "gsm", "jpeg", "gzip", "fft", "cpp"};

  util::TextTable out;
  out.SetHeader({"placement", "DBCs", "serial [us]", "proactive [us]",
                 "hidden", "speedup"});
  out.SetAlignments({util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});

  for (const char* strategy_name : {"afd-ofu", "dma-sr"}) {
    const auto strategy = core::StrategyRegistry::Global().Find(strategy_name);
    for (const unsigned dbcs : {4u, 16u}) {
      double serial_total = 0.0;
      double proactive_total = 0.0;
      double shift_total = 0.0;
      double hidden_total = 0.0;
      for (const char* name : subset) {
        for (const auto& benchmark : suite) {
          if (benchmark.name != name) continue;
          for (const auto& seq : benchmark.sequences) {
            if (seq.num_variables() == 0) continue;
            rtm::RtmConfig config = rtm::RtmConfig::Paper(dbcs);
            if (seq.num_variables() > config.word_capacity()) {
              config.domains_per_dbc = static_cast<unsigned>(
                  (seq.num_variables() + dbcs - 1) / dbcs);
            }
            const auto placement =
                strategy
                    ->Run({&seq, config.total_dbcs(), config.domains_per_dbc,
                           {}, /*compute_cost=*/false})
                    .placement;
            const auto serial =
                Replay(seq, placement, config, rtm::ControllerConfig{});
            rtm::ControllerConfig pc;
            pc.proactive_alignment = true;
            pc.lookahead = 1;
            const auto proactive = Replay(seq, placement, config, pc);
            serial_total += serial.makespan_ns;
            proactive_total += proactive.makespan_ns;
            shift_total += proactive.shift_busy_ns;
            hidden_total += proactive.hidden_shift_ns;
          }
        }
      }
      const double hidden_pct =
          shift_total > 0.0 ? 100.0 * hidden_total / shift_total : 0.0;
      const double speedup =
          proactive_total > 0.0 ? serial_total / proactive_total : 0.0;
      const std::string tag =
          std::string(strategy_name) + "/" + std::to_string(dbcs) + "dbc";
      ctx.Scalar("ablation_overlap/serial_us/" + tag, serial_total / 1e3,
                 "us");
      ctx.Scalar("ablation_overlap/proactive_us/" + tag,
                 proactive_total / 1e3, "us");
      ctx.Scalar("ablation_overlap/hidden_pct/" + tag, hidden_pct, "%");
      ctx.Scalar("ablation_overlap/speedup/" + tag, speedup, "x");
      out.AddRow({strategy_name, std::to_string(dbcs),
                  util::FormatFixed(serial_total / 1e3, 1),
                  util::FormatFixed(proactive_total / 1e3, 1),
                  util::FormatFixed(hidden_pct, 1) + " %",
                  util::FormatFixed(speedup, 2) + "x"});
    }
    out.AddRule();
  }
  ctx.PrintTable(out);
  ctx.Print(
      "\nProactive alignment hides part of the shift LATENCY but none of "
      "the\nshift ENERGY; placement (DMA-SR) removes both, and the two "
      "compose.\n");
}

}  // namespace

void RegisterAblationOverlap(ScenarioRegistry& registry) {
  registry.Register({"ablation_overlap",
                     "Proactive port alignment vs placement quality",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios
