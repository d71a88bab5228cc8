#include "metrics/interference_matrix.h"

#include <algorithm>

#include "metrics/table.h"
#include "mmu/tlb_domain.h"

namespace metrics {
namespace {

// Misses with no surviving displaced record: cold misses plus records lost
// to table aliasing.  Clamped because attribution made on a faulting
// attempt can momentarily exceed the *counted* misses mid-phase.
uint64_t Unattributed(const VmInterferenceRow& row) {
  uint64_t attributed = 0;
  for (const uint64_t d : row.displaced_by) {
    attributed += d;
  }
  return row.tlb_misses > attributed ? row.tlb_misses - attributed : 0;
}

size_t MaxVms(
    const std::vector<std::pair<std::string, const InterferenceReport*>>&
        cells) {
  size_t n = 0;
  for (const auto& [label, report] : cells) {
    if (report != nullptr) {
      n = std::max(n, report->vms.size());
    }
  }
  return n;
}

}  // namespace

InterferenceReport BuildInterferenceReport(
    const mmu::TlbDomain& domain,
    const std::vector<std::pair<uint16_t, std::string>>& vms) {
  InterferenceReport report;
  const mmu::TlbUtilityMonitor* monitor = domain.utility_monitor();
  if (monitor == nullptr) {
    return report;  // private arrays: no shared resource to attribute
  }
  const mmu::Tlb* tlb = domain.shared_tlb();
  for (const auto& [victim, victim_label] : vms) {
    VmInterferenceRow row;
    row.label = victim_label;
    for (const auto& [evictor, evictor_label] : vms) {
      row.displaced_by.push_back(monitor->displaced(victim, evictor));
    }
    const mmu::TlbUtilityMonitor::VmUtility& u = monitor->utility(victim);
    row.way_hits = u.way_hits;
    row.shadow_misses = u.shadow_misses;
    row.tlb_misses = tlb->vm_counters(victim).misses;
    report.vms.push_back(std::move(row));
  }
  return report;
}

namespace {

// Sparse form for rack-density sweeps: per victim, only the top-k
// attributed evictors, as "vmE:count" triplets.
std::string RenderInterferenceTriplets(
    const std::string& title,
    const std::vector<std::pair<std::string, const InterferenceReport*>>&
        cells,
    size_t top_k) {
  TextTable table(title);
  table.SetColumns({"pair", "victim", "top evictors", "unattrib", "misses"});
  for (const auto& [cell_label, report] : cells) {
    if (report == nullptr || report->empty()) {
      continue;
    }
    for (const VmInterferenceRow& row : report->vms) {
      // Indices of nonzero evictors, by descending count; ties keep the
      // lower evictor id first (stable sort over an id-ordered base).
      std::vector<size_t> order;
      for (size_t e = 0; e < row.displaced_by.size(); ++e) {
        if (row.displaced_by[e] != 0) {
          order.push_back(e);
        }
      }
      std::stable_sort(order.begin(), order.end(),
                       [&row](size_t a, size_t b) {
                         return row.displaced_by[a] > row.displaced_by[b];
                       });
      if (order.size() > top_k) {
        order.resize(top_k);
      }
      std::string top;
      for (const size_t e : order) {
        if (!top.empty()) {
          top += ' ';
        }
        top += "vm" + std::to_string(e) + ':' +
               std::to_string(row.displaced_by[e]);
      }
      if (top.empty()) {
        // push_back, not `= "-"`: GCC 12 at -O3 reports a false
        // -Wrestrict on assigning a literal here, which -Werror builds
        // reject.
        top.push_back('-');
      }
      table.AddRow({cell_label, row.label, top,
                    std::to_string(Unattributed(row)),
                    std::to_string(row.tlb_misses)});
    }
  }
  return table.Render();
}

}  // namespace

std::string RenderInterferenceMatrix(
    const std::string& title,
    const std::vector<std::pair<std::string, const InterferenceReport*>>&
        cells,
    size_t dense_vm_limit, size_t top_k) {
  const size_t n = MaxVms(cells);
  if (n == 0) {
    return std::string();
  }
  if (n > dense_vm_limit) {
    return RenderInterferenceTriplets(title, cells, top_k);
  }
  TextTable table(title);
  std::vector<std::string> columns = {"pair", "victim"};
  for (size_t e = 0; e < n; ++e) {
    columns.push_back("by vm" + std::to_string(e));
  }
  columns.push_back("unattrib");
  columns.push_back("misses");
  table.SetColumns(std::move(columns));
  for (const auto& [cell_label, report] : cells) {
    if (report == nullptr || report->empty()) {
      continue;
    }
    for (const VmInterferenceRow& row : report->vms) {
      std::vector<std::string> cells_out = {cell_label, row.label};
      for (size_t e = 0; e < n; ++e) {
        cells_out.push_back(e < row.displaced_by.size()
                                ? std::to_string(row.displaced_by[e])
                                : "-");
      }
      cells_out.push_back(std::to_string(Unattributed(row)));
      cells_out.push_back(std::to_string(row.tlb_misses));
      table.AddRow(std::move(cells_out));
    }
  }
  return table.Render();
}

std::string RenderUtilityCurves(
    const std::string& title,
    const std::vector<std::pair<std::string, const InterferenceReport*>>&
        cells) {
  size_t ways = 0;
  for (const auto& [label, report] : cells) {
    if (report == nullptr) {
      continue;
    }
    for (const VmInterferenceRow& row : report->vms) {
      ways = std::max(ways, row.way_hits.size());
    }
  }
  if (ways == 0) {
    return std::string();
  }
  TextTable table(title);
  std::vector<std::string> columns = {"pair", "vm", "sampled", "miss%"};
  for (size_t w = 1; w <= ways; ++w) {
    columns.push_back("w<=" + std::to_string(w));
  }
  table.SetColumns(std::move(columns));
  for (const auto& [cell_label, report] : cells) {
    if (report == nullptr || report->empty()) {
      continue;
    }
    for (const VmInterferenceRow& row : report->vms) {
      uint64_t sampled = row.shadow_misses;
      for (const uint64_t h : row.way_hits) {
        sampled += h;
      }
      std::vector<std::string> cells_out = {cell_label, row.label,
                                            std::to_string(sampled)};
      const double denom =
          sampled > 0 ? static_cast<double>(sampled) : 1.0;
      cells_out.push_back(
          TextTable::Pct(static_cast<double>(row.shadow_misses) / denom));
      uint64_t cum = 0;
      for (size_t w = 0; w < ways; ++w) {
        if (w < row.way_hits.size()) {
          cum += row.way_hits[w];
          cells_out.push_back(
              TextTable::Pct(static_cast<double>(cum) / denom));
        } else {
          cells_out.push_back("-");
        }
      }
      table.AddRow(std::move(cells_out));
    }
  }
  return table.Render();
}

}  // namespace metrics
