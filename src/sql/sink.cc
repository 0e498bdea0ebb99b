#include "sql/sink.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/clock.h"

namespace olxp::sql {

std::vector<AggAccum> NewAccums(const std::vector<AggSpec>& aggs) {
  std::vector<AggAccum> accums(aggs.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    accums[a].extremes =
        aggs[a].fn == AggFunc::kMin || aggs[a].fn == AggFunc::kMax;
  }
  return accums;
}

void GroupTable::Merge(GroupTable&& src) {
  const bool int_keyed = !src.ints_.empty() || src.null_group_ != kNone;
  for (AggGroup& g : src.groups_) {
    bool created = false;
    uint32_t tgt;
    if (int_keyed) {
      tgt = FindInt(g.ikey, g.null_key, &created);
    } else if (!src.heads_.empty()) {
      tgt = Find(g.key.size(), [&](size_t i) -> const Value& { return g.key[i]; },
                 &created);
    } else {
      tgt = Global(&created);
    }
    AggGroup& d = groups_[tgt];
    if (created) {
      d = std::move(g);
      continue;
    }
    d.star_count += g.star_count;
    for (size_t a = 0; a < d.accums.size(); ++a) {
      d.accums[a].MergeFrom(g.accums[a]);
    }
  }
}

std::vector<Row> OrderAndLimit(std::vector<PendingRow>&& pending,
                               const BoundSelect& plan,
                               obs::QueryTrace* trace) {
  const int64_t t_sort = trace != nullptr ? NowNanos() : 0;
  const size_t n = pending.size();
  const size_t k =
      plan.limit >= 0 ? std::min(n, static_cast<size_t>(plan.limit)) : n;
  std::vector<Row> rows;
  rows.reserve(k);
  if (plan.order_by.empty()) {
    for (size_t i = 0; i < k; ++i) rows.push_back(std::move(pending[i].out));
  } else {
    // The emission index as the last key makes the order total, so an
    // unstable (partial) sort yields exactly the stable order's prefix.
    std::vector<uint32_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0u);
    auto before = [&](uint32_t a, uint32_t b) {
      for (size_t i = 0; i < plan.order_by.size(); ++i) {
        int c = pending[a].order_keys[i].Compare(pending[b].order_keys[i]);
        if (c != 0) return plan.order_by[i].desc ? c > 0 : c < 0;
      }
      return a < b;
    };
    if (k < n) {
      std::partial_sort(idx.begin(), idx.begin() + k, idx.end(), before);
    } else {
      std::sort(idx.begin(), idx.end(), before);
    }
    for (size_t i = 0; i < k; ++i) {
      rows.push_back(std::move(pending[idx[i]].out));
    }
  }
  if (trace == nullptr) return rows;
  if (!plan.order_by.empty()) {
    obs::TraceOp order;
    order.op = "order";
    order.detail = std::to_string(plan.order_by.size()) + " keys";
    if (plan.limit >= 0) order.detail += " top-k=" + std::to_string(plan.limit);
    order.rows_in = static_cast<int64_t>(n);
    order.rows_out = static_cast<int64_t>(k);
    order.wall_us = (NowNanos() - t_sort) / 1000;
    trace->ops.push_back(std::move(order));
  }
  obs::TraceOp emit;
  emit.op = "emit";
  if (plan.limit >= 0) emit.detail = "limit=" + std::to_string(plan.limit);
  emit.rows_in = static_cast<int64_t>(plan.order_by.empty() ? n : k);
  emit.rows_out = static_cast<int64_t>(k);
  trace->ops.push_back(std::move(emit));
  return rows;
}

}  // namespace olxp::sql
