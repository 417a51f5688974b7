#include "workload/disks.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace repflow::workload {

const std::vector<DiskSpec>& disk_catalog() {
  static const std::vector<DiskSpec> catalog = {
      {"Seagate", "Barracuda", DiskType::kHdd, 7200, 13.2},
      {"WD", "Raptor", DiskType::kHdd, 10000, 8.3},
      {"Seagate", "Cheetah", DiskType::kHdd, 15000, 6.1},
      {"OCZ", "Vertex", DiskType::kSsd, 0, 0.5},
      {"Intel", "X25-E", DiskType::kSsd, 0, 0.2},
  };
  return catalog;
}

const DiskSpec& disk_by_model(const std::string& model) {
  for (const auto& spec : disk_catalog()) {
    if (spec.model == model) return spec;
  }
  throw std::invalid_argument("disk_by_model: unknown model " + model);
}

const char* disk_group_name(DiskGroup g) {
  switch (g) {
    case DiskGroup::kCheetahOnly:
      return "cheetah";
    case DiskGroup::kHdd:
      return "hdd";
    case DiskGroup::kSsd:
      return "ssd";
    case DiskGroup::kSsdHdd:
      return "ssd+hdd";
  }
  return "?";
}

std::vector<const DiskSpec*> disks_in_group(DiskGroup g) {
  std::vector<const DiskSpec*> out;
  for (const auto& spec : disk_catalog()) {
    switch (g) {
      case DiskGroup::kCheetahOnly:
        if (spec.model == "Cheetah") out.push_back(&spec);
        break;
      case DiskGroup::kHdd:
        if (spec.type == DiskType::kHdd) out.push_back(&spec);
        break;
      case DiskGroup::kSsd:
        if (spec.type == DiskType::kSsd) out.push_back(&spec);
        break;
      case DiskGroup::kSsdHdd:
        out.push_back(&spec);
        break;
    }
  }
  return out;
}

bool SystemConfig::is_basic() const {
  if (cost_ms.empty()) return false;
  for (std::int32_t j = 0; j < total_disks(); ++j) {
    if (cost_ms[j] != cost_ms[0] || delay_ms[j] != 0.0 ||
        init_load_ms[j] != 0.0) {
      return false;
    }
  }
  return true;
}

std::int64_t SystemConfig::slots_within(std::int32_t disk, double t) const {
  // completion_time is non-decreasing in k, so the admitted slots are the
  // prefix 1..k.  The quotient (t - D - X) / C is almost always within one
  // of k; bisection settles the rest (absorbed additions, overflow, inf).
  const auto fits = [&](std::int64_t k) {
    return k == 0 || completion_time(disk, k) <= t;
  };
  const double guess =
      (t - (delay_ms[disk] + init_load_ms[disk])) / cost_ms[disk];
  const std::int64_t start =
      !(guess > 1.0) ? 1
      : guess >= static_cast<double>(kMaxSlots)
          ? kMaxSlots
          : static_cast<std::int64_t>(guess);
  std::int64_t lo = 0;              // fits
  std::int64_t hi = kMaxSlots + 1;  // does not fit
  for (std::int64_t k = std::max<std::int64_t>(start - 1, 1);
       k <= std::min(start + 2, kMaxSlots); ++k) {
    if (!fits(k)) {
      hi = k;
      break;
    }
    lo = k;
  }
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    (fits(mid) ? lo : hi) = mid;
  }
  return lo;
}

double sample_stepped(double lo, double hi, double step, repflow::Rng& rng) {
  if (step <= 0.0 || hi < lo) {
    throw std::invalid_argument("sample_stepped: bad range");
  }
  const auto buckets =
      static_cast<std::uint64_t>(std::floor((hi - lo) / step + 1e-9)) + 1;
  return lo + step * static_cast<double>(rng.below(buckets));
}

SystemConfig make_system(const std::vector<SiteRecipe>& sites,
                         std::int32_t disks_per_site, repflow::Rng& rng) {
  if (sites.empty() || disks_per_site < 1) {
    throw std::invalid_argument("make_system: bad shape");
  }
  SystemConfig config;
  config.num_sites = static_cast<std::int32_t>(sites.size());
  config.disks_per_site = disks_per_site;
  const std::int32_t total = config.total_disks();
  config.cost_ms.reserve(total);
  config.delay_ms.reserve(total);
  config.init_load_ms.reserve(total);
  config.model.reserve(total);
  for (const SiteRecipe& site : sites) {
    const auto candidates = disks_in_group(site.disks);
    const double site_delay =
        site.random_delay ? sample_stepped(2.0, 10.0, 2.0, rng) : 0.0;
    for (std::int32_t d = 0; d < disks_per_site; ++d) {
      const DiskSpec* spec =
          candidates.size() == 1
              ? candidates.front()
              : candidates[rng.below(candidates.size())];
      config.cost_ms.push_back(spec->access_time_ms);
      config.delay_ms.push_back(site_delay);
      config.init_load_ms.push_back(
          site.random_load ? sample_stepped(2.0, 10.0, 2.0, rng) : 0.0);
      config.model.push_back(spec->model);
    }
  }
  return config;
}

}  // namespace repflow::workload
