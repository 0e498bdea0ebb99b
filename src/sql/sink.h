#ifndef OLXP_SQL_SINK_H_
#define OLXP_SQL_SINK_H_

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/checked_arith.h"
#include "common/value.h"
#include "obs/query_trace.h"
#include "sql/bound_plan.h"

/// The sink side of a SELECT — aggregate accumulation, grouping, ORDER BY /
/// LIMIT — shared by the row-at-a-time interpreter (sql/executor.cc) and the
/// vectorized engine (src/exec/), so both produce the same rows in the same
/// order from one implementation.

namespace olxp::sql {

/// Aggregate accumulator with the engine's SQL semantics (NULLs skipped,
/// int/double promotion, AVG always double). Double sums are
/// Neumaier-compensated: the running error term keeps the final rounded sum
/// independent of accumulation order, so morsel-driven parallel partials
/// merged out of scan order still agree with a serial pass to the last bit
/// for all practical inputs. Extremes are tracked only when `extremes` is
/// set (MIN/MAX; see NewAccums): SUM/AVG/COUNT rows skip two Value compares.
struct AggAccum {
  int64_t count = 0;
  double dsum = 0;
  double dcomp = 0;  ///< Neumaier compensation term for dsum
  int64_t isum = 0;
  bool isum_overflow = false;  ///< SUM over INTs left int64 range -> NULL
  bool any_double = false;
  bool extremes = false;  ///< track min/max (MIN and MAX only)
  Value min, max;  // NULL until first value

  /// Checked integer-sum accumulation: overflow poisons the integer sum
  /// (SUM yields NULL) instead of signed-overflow UB.
  void AddInt(int64_t x) {
    if (auto r = CheckedAdd(isum, x)) {
      isum = *r;
    } else {
      isum_overflow = true;
    }
  }

  void AddDouble(double x) {
    double t = dsum + x;
    if (std::abs(dsum) >= std::abs(x)) {
      dcomp += (dsum - t) + x;
    } else {
      dcomp += (x - t) + dsum;
    }
    dsum = t;
  }

  double DoubleSum() const { return dsum + dcomp; }

  /// Folds a candidate extreme into min/max.
  void AddExtreme(const Value& v) {
    if (min.is_null() || v.Compare(min) < 0) min = v;
    if (max.is_null() || v.Compare(max) > 0) max = v;
  }

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.is_numeric()) {
      if (v.type() == ValueType::kDouble) {
        any_double = true;
        AddDouble(v.AsDouble());
      } else {
        AddInt(v.AsInt());
        AddDouble(v.AsDouble());
      }
    }
    if (extremes) AddExtreme(v);
  }

  /// Folds a partial accumulator over a disjoint row subset into this one.
  /// Partial-state merge for parallel aggregation: merging per-morsel
  /// partials in morsel order reproduces the serial result (counts, integer
  /// sums and extremes exactly; double sums to compensated precision).
  void MergeFrom(const AggAccum& o) {
    count += o.count;
    isum_overflow = isum_overflow || o.isum_overflow;
    AddInt(o.isum);
    any_double = any_double || o.any_double;
    AddDouble(o.dsum);
    AddDouble(o.dcomp);
    if (!o.min.is_null() && (min.is_null() || o.min.Compare(min) < 0)) {
      min = o.min;
    }
    if (!o.max.is_null() && (max.is_null() || o.max.Compare(max) > 0)) {
      max = o.max;
    }
  }

  Value Result(AggFunc fn, int64_t star_count) const {
    switch (fn) {
      case AggFunc::kCountStar:
        return Value::Int(star_count);
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        if (any_double) return Value::Double(DoubleSum());
        return isum_overflow ? Value::Null() : Value::Int(isum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(DoubleSum() / static_cast<double>(count));
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
    }
    return Value::Null();
  }
};

/// Fresh accumulators for `aggs`, extremes tracked for MIN/MAX only.
std::vector<AggAccum> NewAccums(const std::vector<AggSpec>& aggs);

/// One aggregation group (the global aggregate is a single implicit group).
struct AggGroup {
  /// Representative tuple: the group's first input row, in plan slot
  /// layout. Callers copy only the slots the plan references; the rest stay
  /// NULL and are never read.
  Row repr;
  std::vector<AggAccum> accums;
  int64_t star_count = 0;
  Row key;                ///< composite group-key values (Find)
  int64_t ikey = 0;       ///< the single INT key (FindInt)
  bool null_key = false;  ///< the single INT key was NULL (FindInt)
};

/// First-seen group index: groups get dense ids in the order their first
/// row arrives, so both engines — and morsel partials merged in scan order
/// — emit groups in the same order. A table is keyed one way for its whole
/// life: Global (no GROUP BY), FindInt (GROUP BY one INT/TIMESTAMP
/// expression; probes an int64 map, NULL keys share one group) or Find
/// (anything else; hashes the key values in place and copies them only
/// when a group is created). New groups come back with `created` set and
/// empty repr/accums for the caller to fill.
class GroupTable {
 public:
  uint32_t Global(bool* created) {
    *created = groups_.empty();
    if (*created) Create();
    return 0;
  }

  uint32_t FindInt(int64_t key, bool is_null, bool* created) {
    if (is_null) {
      *created = null_group_ == kNone;
      if (*created) {
        null_group_ = Create();
        groups_[null_group_].null_key = true;
      }
      return null_group_;
    }
    auto [it, inserted] = ints_.try_emplace(key, 0);
    *created = inserted;
    if (inserted) {
      it->second = Create();
      groups_[it->second].ikey = key;
    }
    return it->second;
  }

  /// Composite key of `n` values, value i read as `at(i)` (a const Value&).
  template <typename At>
  uint32_t Find(size_t n, At&& at, bool* created) {
    size_t h = 0x2545f4914f6cdd1dULL;
    for (size_t i = 0; i < n; ++i) {
      h ^= at(i).Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    auto it = heads_.try_emplace(h, kNone).first;
    uint32_t last = kNone;
    for (uint32_t g = it->second; g != kNone; last = g, g = chain_[g]) {
      const Row& key = groups_[g].key;
      size_t i = 0;
      while (i < n && key[i].Compare(at(i)) == 0) ++i;
      if (i == n) {
        *created = false;
        return g;
      }
    }
    *created = true;
    const uint32_t g = Create();
    // Append to the hash chain, so it too keeps first-seen order.
    (last == kNone ? it->second : chain_[last]) = g;
    Row& key = groups_[g].key;
    key.reserve(n);
    for (size_t i = 0; i < n; ++i) key.push_back(at(i));
    return g;
  }

  /// Folds `src` — the partial of a later, disjoint row range — into this
  /// table: groups new to this table are appended in src order, the rest
  /// merge their accumulators.
  void Merge(GroupTable&& src);

  AggGroup& operator[](uint32_t g) { return groups_[g]; }
  std::vector<AggGroup>& groups() { return groups_; }
  size_t size() const { return groups_.size(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  uint32_t Create() {
    groups_.emplace_back();
    chain_.push_back(kNone);
    return static_cast<uint32_t>(groups_.size() - 1);
  }

  std::vector<AggGroup> groups_;
  std::vector<uint32_t> chain_;  ///< next group with the same key hash
  std::unordered_map<size_t, uint32_t> heads_;  ///< key hash -> first group
  std::unordered_map<int64_t, uint32_t> ints_;
  uint32_t null_group_ = kNone;
};

/// One projected output row and its ORDER BY key values.
struct PendingRow {
  Row out;
  Row order_keys;
};

/// ORDER BY / LIMIT for both engines: returns the first `plan.limit` rows
/// (all when negative) of the stable order of `pending` — rows with equal
/// keys keep their emission order. With LIMIT k below the candidate count
/// only k rows are selected and sorted (top-k: partial sort with the
/// emission index as the final key), never the whole input. When `trace`
/// is set, appends the "order" op (sorting plans only; rows_in = candidate
/// rows, rows_out = rows kept, "top-k=k" in its detail under a LIMIT) and
/// the closing "emit" op.
std::vector<Row> OrderAndLimit(std::vector<PendingRow>&& pending,
                               const BoundSelect& plan,
                               obs::QueryTrace* trace);

}  // namespace olxp::sql

#endif  // OLXP_SQL_SINK_H_
