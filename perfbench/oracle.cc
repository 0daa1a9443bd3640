#include "oracle.h"

#include <unordered_map>

#include "util/random.h"

namespace perfbench {

using dhyfd::AttributeSet;
using dhyfd::Fd;
using dhyfd::FdSet;

namespace {

class Fnv {
 public:
  void add(const std::string& s) {
    for (unsigned char c : s) mix(c);
    mix(0xff);
  }
  void add(std::int64_t v) { add(std::to_string(v)); }
  std::uint64_t value() const { return h_; }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string Describe(const char* what, const Fd& fd) {
  return std::string(what) + " " + fd.to_string();
}

}  // namespace

bool IsNullCell(const std::string& cell) {
  return cell.empty() || cell == "?" || cell == "NULL" || cell == "null";
}

std::uint64_t ProfileDigest(const dhyfd::ProfileReport& report) {
  Fnv h;
  for (const Fd& fd : report.discovery.fds.fds) h.add(fd.to_string());
  h.add("|canonical");
  for (const Fd& fd : report.canonical.fds) h.add(fd.to_string());
  h.add("|ranking");
  for (const dhyfd::FdRedundancy& r : report.ranking) {
    h.add(r.fd.to_string());
    h.add(r.with_nulls);
    h.add(r.excluding_null_rhs);
    h.add(r.excluding_null_lhs_rhs);
  }
  h.add("|dataset");
  h.add(report.dataset_redundancy.num_values);
  h.add(report.dataset_redundancy.red);
  h.add(report.dataset_redundancy.red_plus0);
  return h.value();
}

CodedTable::CodedTable(const dhyfd::RawTable& table)
    : rows_(table.rows.size()), columns_(table.header.size()) {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    std::unordered_map<std::string, std::uint32_t> codes;
    std::vector<std::uint32_t>& column = columns_[c];
    column.reserve(rows_);
    for (const std::vector<std::string>& row : table.rows) {
      const std::string& cell = row[c];
      if (IsNullCell(cell)) {
        column.push_back(0);
      } else {
        auto [it, fresh] =
            codes.emplace(cell, static_cast<std::uint32_t>(codes.size() + 1));
        column.push_back(it->second);
      }
    }
  }
}

bool CodedTable::Holds(const AttributeSet& lhs, const AttributeSet& rhs) const {
  // Number the distinct LHS projections exactly: fold one column at a time,
  // naming each (group so far, value) pair with a fresh dense id.
  std::vector<std::uint32_t> group(rows_, 0);
  std::uint32_t groups = 1;
  lhs.for_each([&](dhyfd::AttrId a) {
    std::unordered_map<std::uint64_t, std::uint32_t> ids;
    ids.reserve(groups * 2);
    const std::vector<std::uint32_t>& column = columns_[a];
    for (std::size_t r = 0; r < rows_; ++r) {
      std::uint64_t key = (std::uint64_t{group[r]} << 32) | column[r];
      group[r] = ids.emplace(key, static_cast<std::uint32_t>(ids.size()))
                     .first->second;
    }
    groups = static_cast<std::uint32_t>(ids.size());
  });
  bool holds = true;
  rhs.for_each([&](dhyfd::AttrId a) {
    if (!holds) return;
    constexpr std::uint32_t kUnset = 0xffffffffu;
    std::vector<std::uint32_t> value(groups, kUnset);
    const std::vector<std::uint32_t>& column = columns_[a];
    for (std::size_t r = 0; r < rows_ && holds; ++r) {
      std::uint32_t& v = value[group[r]];
      if (v == kUnset) {
        v = column[r];
      } else if (v != column[r]) {
        holds = false;
      }
    }
  });
  return holds;
}

std::vector<std::string> CheckCoverSample(const CodedTable& data,
                                          const FdSet& left_reduced,
                                          const FdSet& canonical,
                                          std::uint64_t seed, int sample) {
  std::vector<std::string> failures;
  dhyfd::Random rng(seed ^ 0x6f7261636c65ull);
  for (int i = 0; i < sample && !canonical.empty(); ++i) {
    const Fd& fd = canonical.fds[rng.next_below(canonical.fds.size())];
    if (!data.Holds(fd.lhs, fd.rhs)) {
      failures.push_back(Describe("canonical FD does not hold:", fd));
    }
  }
  for (int i = 0; i < sample && !left_reduced.empty(); ++i) {
    const Fd& fd = left_reduced.fds[rng.next_below(left_reduced.fds.size())];
    if (!data.Holds(fd.lhs, fd.rhs)) {
      failures.push_back(Describe("left-reduced FD does not hold:", fd));
      continue;
    }
    fd.lhs.for_each([&](dhyfd::AttrId b) {
      AttributeSet smaller = fd.lhs;
      smaller.reset(b);
      if (data.Holds(smaller, fd.rhs)) {
        failures.push_back(Describe("left-reduced FD is not minimal:", fd));
      }
    });
  }
  return failures;
}

dhyfd::RawTable ReplayStream(const dhyfd::RawTable& initial,
                             const std::vector<dhyfd::UpdateBatch>& batches,
                             std::size_t applied) {
  std::vector<const std::vector<std::string>*> rows;
  std::vector<bool> alive(initial.rows.size(), true);
  for (const std::vector<std::string>& row : initial.rows) rows.push_back(&row);
  for (std::size_t b = 0; b < applied && b < batches.size(); ++b) {
    for (const std::vector<std::string>& row : batches[b].inserts) {
      rows.push_back(&row);
      alive.push_back(true);
    }
    for (dhyfd::LiveRowId id : batches[b].deletes) {
      if (id >= 0 && static_cast<std::size_t>(id) < alive.size()) {
        alive[static_cast<std::size_t>(id)] = false;
      }
    }
  }
  dhyfd::RawTable out;
  out.header = initial.header;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (alive[i]) out.rows.push_back(*rows[i]);
  }
  return out;
}

}  // namespace perfbench
