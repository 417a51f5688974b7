// Disk catalog (paper Table III) and physical system configuration:
// per-disk retrieval cost C_j, per-site network delay D_j, and per-disk
// initial load X_j (paper Table I / Table II).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/rng.h"

namespace repflow::workload {

enum class DiskType { kHdd, kSsd };

/// One catalog entry of Table III: average block access time in ms.
struct DiskSpec {
  std::string producer;
  std::string model;
  DiskType type = DiskType::kHdd;
  std::int32_t rpm = 0;  // 0 for SSDs
  double access_time_ms = 0.0;
};

/// The five disks of Table III, in table order.
const std::vector<DiskSpec>& disk_catalog();

/// Catalog lookups by model name ("Barracuda", "Raptor", "Cheetah",
/// "Vertex", "X25-E"); throws on unknown model.
const DiskSpec& disk_by_model(const std::string& model);

/// Which catalog subset a site draws its disks from (Table IV "Disks").
enum class DiskGroup {
  kCheetahOnly,  // homogeneous baseline of Experiment 1
  kHdd,          // Barracuda / Raptor / Cheetah
  kSsd,          // Vertex / X25-E
  kSsdHdd,       // all five
};

const char* disk_group_name(DiskGroup g);

/// Candidate specs of a group, in catalog order.
std::vector<const DiskSpec*> disks_in_group(DiskGroup g);

/// Fully resolved per-disk parameters of one physical system.
/// Global disk ids are 0..total_disks-1; site s owns the contiguous block
/// [s*disks_per_site, (s+1)*disks_per_site).
struct SystemConfig {
  std::int32_t num_sites = 0;
  std::int32_t disks_per_site = 0;
  std::vector<double> cost_ms;       // C_j, per global disk
  std::vector<double> delay_ms;      // D_j, per global disk (same within site)
  std::vector<double> init_load_ms;  // X_j, per global disk
  std::vector<std::string> model;    // catalog model per disk (for reports)

  std::int32_t total_disks() const { return num_sites * disks_per_site; }
  std::int32_t site_of(std::int32_t disk) const {
    return disk / disks_per_site;
  }
  /// Completion time of disk j after retrieving k buckets.
  double completion_time(std::int32_t disk, std::int64_t k) const {
    return delay_ms[disk] + init_load_ms[disk] +
           static_cast<double>(k) * cost_ms[disk];
  }
  /// Largest k with completion_time(disk, k) <= t, at most kMaxSlots: the
  /// sink capacity a candidate response time t grants disk j (paper
  /// Algorithm 6 line 15).  Decided by completion_time() itself, so a probe
  /// at any completion time admits that completion's slot.
  std::int64_t slots_within(std::int32_t disk, double t) const;
  /// Every k up to here converts to double exactly.
  static constexpr std::int64_t kMaxSlots = std::int64_t{1} << 53;
  /// Basic problem check: equal costs, zero delays and loads everywhere.
  bool is_basic() const;
};

/// Random value from {lo, lo+step, ..., hi}; the paper's R(lo,hi,step).
double sample_stepped(double lo, double hi, double step, repflow::Rng& rng);

/// Per-site generation recipe.
struct SiteRecipe {
  DiskGroup disks = DiskGroup::kCheetahOnly;
  bool random_delay = false;  // false -> delay 0; true -> R(2,10,2) per site
  bool random_load = false;   // false -> load 0; true -> R(2,10,2) per disk
};

/// Build a SystemConfig by drawing each site's disks/delays/loads per its
/// recipe.  Homogeneous groups place the same spec everywhere; heterogeneous
/// groups draw uniformly per disk.
SystemConfig make_system(const std::vector<SiteRecipe>& sites,
                         std::int32_t disks_per_site, repflow::Rng& rng);

}  // namespace repflow::workload
