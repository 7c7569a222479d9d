#include "analysis/validation.hpp"

#include <cmath>

#include "common/strings.hpp"
#include "common/text_table.hpp"
#include "config/baselines.hpp"
#include "sim/hardware_proxy.hpp"
#include "sim/simulation.hpp"

namespace adse::analysis {

std::vector<ValidationRow> build_table1() {
  const config::CpuConfig tx2 = config::thunderx2_baseline();
  std::vector<ValidationRow> rows;
  for (kernels::App app : kernels::all_apps()) {
    ValidationRow row;
    row.app = app;
    row.simulated_cycles = sim::simulate_app(tx2, app).cycles();
    row.hardware_cycles =
        sim::simulate_app(tx2, app, sim::proxy_fidelity()).cycles();
    row.percent_difference =
        100.0 *
        std::abs(static_cast<double>(row.simulated_cycles) -
                 static_cast<double>(row.hardware_cycles)) /
        static_cast<double>(row.hardware_cycles);
    rows.push_back(row);
  }
  return rows;
}

std::string render_table1(const std::vector<ValidationRow>& rows) {
  TextTable table({"", "Simulated Cycles", "Hardware Cycles", "% Difference"});
  for (const auto& row : rows) {
    table.add_row({kernels::app_name(row.app),
                   format_grouped(static_cast<long long>(row.simulated_cycles)),
                   format_grouped(static_cast<long long>(row.hardware_cycles)),
                   format_fixed(row.percent_difference, 2) + "%"});
  }
  return table.render();
}

}  // namespace adse::analysis
