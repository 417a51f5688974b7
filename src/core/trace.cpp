#include "core/trace.h"

#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace repflow::core {

core::RetrievalProblem Trace::problem(std::size_t index) const {
  if (index >= queries.size()) {
    throw std::out_of_range("Trace::problem: query index out of range");
  }
  RetrievalProblem p;
  p.system = system;
  p.replicas = queries[index].replicas;
  p.validate();
  return p;
}

void write_trace(std::ostream& out, const Trace& trace) {
  out << "trace v1\n";
  out << "system " << trace.system.num_sites << " "
      << trace.system.disks_per_site << "\n";
  for (std::int32_t d = 0; d < trace.system.total_disks(); ++d) {
    const std::string& model =
        trace.system.model[d].empty() ? "?" : trace.system.model[d];
    out << "disk " << d << " " << model << " " << trace.system.cost_ms[d]
        << " " << trace.system.delay_ms[d] << " "
        << trace.system.init_load_ms[d] << "\n";
  }
  for (std::size_t qi = 0; qi < trace.queries.size(); ++qi) {
    const auto& q = trace.queries[qi];
    out << "query " << qi << " " << q.replicas.size() << "\n";
    for (std::size_t b = 0; b < q.replicas.size(); ++b) {
      out << "bucket " << q.bucket_ids[b];
      for (auto d : q.replicas[b]) out << " " << d;
      out << "\n";
    }
  }
}

std::string write_trace_string(const Trace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

Trace read_trace(std::istream& in) {
  Trace trace;
  std::string line;
  std::int64_t line_no = 0;
  // Every parse error carries the 1-based line it was detected on, so a
  // broken multi-megabyte trace points at its defect instead of at "the
  // file".  End-of-input errors report the line after the last one read.
  auto fail = [&line_no](const std::string& why) -> Trace {
    throw std::runtime_error("read_trace: line " + std::to_string(line_no) +
                             ": " + why);
  };
  ++line_no;
  if (!std::getline(in, line) || line != "trace v1") {
    return fail("missing 'trace v1' header");
  }
  std::int64_t expected_disks = -1;
  std::int64_t seen_disks = 0;
  std::int64_t pending_buckets = 0;
  while (++line_no, std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "system") {
      ls >> trace.system.num_sites >> trace.system.disks_per_site;
      if (!ls || trace.system.num_sites < 1 ||
          trace.system.disks_per_site < 1) {
        return fail("bad system line");
      }
      expected_disks = trace.system.total_disks();
      trace.system.cost_ms.assign(expected_disks, 0.0);
      trace.system.delay_ms.assign(expected_disks, 0.0);
      trace.system.init_load_ms.assign(expected_disks, 0.0);
      trace.system.model.assign(expected_disks, "?");
    } else if (kind == "disk") {
      std::int64_t id = -1;
      std::string model;
      std::string fields[3];  // cost, delay, load
      ls >> id >> model >> fields[0] >> fields[1] >> fields[2];
      if (!ls || id < 0 || id >= expected_disks) return fail("bad disk line");
      double values[3];
      for (int i = 0; i < 3; ++i) {
        // strtod (unlike operator>>) spells out nan and inf, and overflows
        // to inf, so a non-finite parameter is named instead of reported as
        // a generic parse failure.
        char* end = nullptr;
        values[i] = std::strtod(fields[i].c_str(), &end);
        if (end == fields[i].c_str() || *end != '\0') {
          return fail("bad disk line");
        }
        if (!std::isfinite(values[i])) {
          return fail("non-finite disk parameter '" + fields[i] + "'");
        }
      }
      trace.system.cost_ms[id] = values[0];
      trace.system.delay_ms[id] = values[1];
      trace.system.init_load_ms[id] = values[2];
      trace.system.model[id] = model;
      ++seen_disks;
    } else if (kind == "query") {
      if (pending_buckets != 0) return fail("previous query incomplete");
      std::int64_t id = -1, buckets = -1;
      ls >> id >> buckets;
      if (!ls || buckets < 0) return fail("bad query line");
      trace.queries.emplace_back();
      pending_buckets = buckets;
    } else if (kind == "bucket") {
      if (trace.queries.empty() || pending_buckets <= 0) {
        return fail("bucket outside query");
      }
      std::int32_t bucket_id = -1;
      ls >> bucket_id;
      if (!ls) return fail("bad bucket line");
      std::vector<std::int32_t> replicas;
      std::int32_t disk;
      while (ls >> disk) {
        if (disk < 0 || disk >= expected_disks) {
          return fail("replica disk out of range");
        }
        replicas.push_back(disk);
      }
      if (replicas.empty()) return fail("bucket without replicas");
      trace.queries.back().bucket_ids.push_back(bucket_id);
      trace.queries.back().replicas.push_back(std::move(replicas));
      --pending_buckets;
    } else {
      return fail("unknown line kind '" + kind + "'");
    }
  }
  if (expected_disks < 0) return fail("missing system line");
  if (seen_disks != expected_disks) {
    return fail("disk count mismatch: saw " + std::to_string(seen_disks) +
                " disk lines, system declares " +
                std::to_string(expected_disks));
  }
  if (pending_buckets != 0) {
    return fail("trailing incomplete query: " +
                std::to_string(pending_buckets) + " bucket line(s) missing");
  }
  return trace;
}

Trace read_trace_string(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

}  // namespace repflow::core
