#include "exec/vectorized.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "exec/hash_join.h"
#include "exec/morsel.h"
#include "exec/vec.h"
#include "exec/vexpr.h"
#include "sql/bound_plan.h"
#include "sql/sink.h"

namespace olxp::exec {

namespace {

using sql::AggAccum;
using sql::AggGroup;
using sql::BoundExpr;
using sql::BoundOrderItem;
using sql::BoundSelect;
using sql::PendingRow;
using sql::TableStep;

/// Accumulates a whole argument vector into one aggregate accumulator with
/// typed inner loops; min/max (MIN/MAX only) merge as Values once per
/// chunk, not per row.
void AccumulateVec(AggAccum* acc, const Vec& v) {
  const size_t n = v.n;
  if (n == 0 || v.type == ValueType::kNull) return;
  if (v.type == ValueType::kInt || v.type == ValueType::kTimestamp) {
    bool has = false;
    int64_t lo = 0, hi = 0;
    for (size_t i = 0; i < n; ++i) {
      if (v.null_at(i)) continue;
      int64_t x = v.int_at(i);
      ++acc->count;
      acc->AddInt(x);
      acc->AddDouble(static_cast<double>(x));
      if (!has) {
        lo = hi = x;
        has = true;
      } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
    }
    if (has && acc->extremes) {
      const bool ts = v.type == ValueType::kTimestamp;
      acc->AddExtreme(ts ? Value::Timestamp(lo) : Value::Int(lo));
      acc->AddExtreme(ts ? Value::Timestamp(hi) : Value::Int(hi));
    }
    return;
  }
  if (v.type == ValueType::kDouble) {
    bool has = false;
    double lo = 0, hi = 0;
    for (size_t i = 0; i < n; ++i) {
      if (v.null_at(i)) continue;
      double x = v.dbl_at(i);
      ++acc->count;
      acc->any_double = true;
      acc->AddDouble(x);
      if (!has) {
        lo = hi = x;
        has = true;
      } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
    }
    if (has && acc->extremes) {
      acc->AddExtreme(Value::Double(lo));
      acc->AddExtreme(Value::Double(hi));
    }
    return;
  }
  // Strings: counted, never summed; min/max lexicographic.
  const std::string* lo = nullptr;
  const std::string* hi = nullptr;
  for (size_t i = 0; i < n; ++i) {
    if (v.null_at(i)) continue;
    const std::string& s = v.str_at(i);
    ++acc->count;
    if (lo == nullptr || s < *lo) lo = &s;
    if (hi == nullptr || *hi < s) hi = &s;
  }
  if (lo != nullptr && acc->extremes) {
    acc->AddExtreme(Value::String(*lo));
    acc->AddExtreme(Value::String(*hi));
  }
}

/// Accumulates one argument vector into per-group accumulators with typed
/// inner loops (no per-row Value boxing). A given expression always yields
/// one payload family, so comparing typed values against the accumulator's
/// current min/max Value is exact.
void AccumulateGrouped(std::vector<AggGroup>& groups,
                       const std::vector<uint32_t>& gidx, size_t a,
                       const Vec& v) {
  const size_t n = v.n;
  if (v.type == ValueType::kNull) return;
  if (v.type == ValueType::kInt || v.type == ValueType::kTimestamp) {
    const bool ts = v.type == ValueType::kTimestamp;
    for (size_t i = 0; i < n; ++i) {
      if (v.null_at(i)) continue;
      AggAccum& acc = groups[gidx[i]].accums[a];
      int64_t x = v.int_at(i);
      ++acc.count;
      acc.AddInt(x);
      acc.AddDouble(static_cast<double>(x));
      if (!acc.extremes) continue;
      // AsInt on a kDouble extreme would round; an expression's payload can
      // flip family between chunks when a branch is all-NULL in one chunk,
      // so use the exact Value comparison whenever a double extreme is
      // present (NULL extremes have type kNull and stay on the fast path).
      if (acc.min.type() != ValueType::kDouble &&
          acc.max.type() != ValueType::kDouble) {
        if (acc.min.is_null() || x < acc.min.AsInt()) {
          acc.min = ts ? Value::Timestamp(x) : Value::Int(x);
        }
        if (acc.max.is_null() || x > acc.max.AsInt()) {
          acc.max = ts ? Value::Timestamp(x) : Value::Int(x);
        }
      } else {
        Value val = ts ? Value::Timestamp(x) : Value::Int(x);
        if (acc.min.is_null() || val.Compare(acc.min) < 0) acc.min = val;
        if (acc.max.is_null() || val.Compare(acc.max) > 0) {
          acc.max = std::move(val);
        }
      }
    }
    return;
  }
  if (v.type == ValueType::kDouble) {
    for (size_t i = 0; i < n; ++i) {
      if (v.null_at(i)) continue;
      AggAccum& acc = groups[gidx[i]].accums[a];
      double x = v.dbl_at(i);
      ++acc.count;
      acc.any_double = true;
      acc.AddDouble(x);
      if (!acc.extremes) continue;
      if (acc.min.is_null() || x < acc.min.AsDouble()) {
        acc.min = Value::Double(x);
      }
      if (acc.max.is_null() || x > acc.max.AsDouble()) {
        acc.max = Value::Double(x);
      }
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!v.null_at(i)) groups[gidx[i]].accums[a].Add(v.value_at(i));
  }
}

std::vector<ValueType> SchemaTypes(const storage::TableSchema& schema) {
  std::vector<ValueType> types;
  types.reserve(schema.num_columns());
  for (const auto& c : schema.columns()) types.push_back(c.type);
  return types;
}

/// Mergeable accumulation state of one sink consumer. The serial path owns
/// a single state for the whole scan; the morsel-driven parallel path owns
/// one per morsel and merges them in morsel order, which reproduces the
/// serial scan's output order, group creation order and representative
/// tuples exactly regardless of which lane ran which morsel.
struct SinkState {
  std::vector<PendingRow> pending;
  sql::GroupTable groups;
  // DISTINCT dedup by value (same semantics as the interpreter's buckets).
  // Every consumer dedups into its own state (global for the serial scan,
  // per-morsel for parallel partials); the combine dedups once more across
  // partials as they merge in morsel order, so keep-first is global.
  std::unordered_set<Row, storage::KeyHash, storage::KeyEq> distinct_seen;
};

/// The shared tail of both pipelines: consumes filtered (chunk, selection)
/// pairs — real replica chunks in the single-table case, materialized
/// joined batches in the join case — and runs DISTINCT / hash aggregation /
/// projection, then ORDER BY / LIMIT at Finish. Chunk column `c` holds slot
/// `c` of the plan's tuple layout. After Init the sink itself is immutable:
/// every Consume writes only through the caller's SinkState, so one sink
/// instance serves any number of concurrent execution lanes.
class VecSink {
 public:
  VecSink(const BoundSelect& plan, std::span<const Value> params)
      : plan_(plan), params_(params) {}

  /// Join batches fill only referenced slots; group representatives must
  /// not read the empty columns (unset slots stay NULL, which EvalBound
  /// never touches by construction of the mask).
  void set_needed_slots(const std::vector<uint8_t>* mask) { needed_ = mask; }

  /// The serial path may stop scanning once LIMIT rows are collected; such
  /// plans never go parallel (a full sweep would waste the early exit).
  bool can_stop_early() const { return can_stop_early_; }

  Status Init(std::span<const ValueType> slot_types) {
    repr_cols_ = plan_.total_slots;
    if (plan_.aggregate_mode) {
      group_exprs_.reserve(plan_.group_by.size());
      for (const auto& g : plan_.group_by) {
        auto lowered = LowerExprSlots(*g, slot_types, 0, params_);
        if (!lowered.ok()) return lowered.status();
        group_exprs_.push_back(std::move(lowered).value());
      }
      agg_args_.reserve(plan_.aggs.size());
      for (const auto& spec : plan_.aggs) {
        LoweredAgg la;
        if (spec.arg) {
          auto lowered = LowerExprSlots(*spec.arg, slot_types, 0, params_);
          if (!lowered.ok()) return lowered.status();
          la.has_arg = true;
          la.arg = std::move(lowered).value();
        }
        agg_args_.push_back(std::move(la));
      }
      // Fast path for the dominant shape "GROUP BY <integer column>": probe
      // an int-keyed map instead of boxing a key Row per input row. Static
      // plan typing keeps the choice consistent across chunks.
      single_int_key_ =
          group_exprs_.size() == 1 &&
          group_exprs_[0].kind == sql::BKind::kSlot &&
          (group_exprs_[0].col_type == ValueType::kInt ||
           group_exprs_[0].col_type == ValueType::kTimestamp);
    } else {
      proj_exprs_.reserve(plan_.projections.size());
      for (const auto& p : plan_.projections) {
        auto lowered = LowerExprSlots(*p, slot_types, 0, params_);
        if (!lowered.ok()) return lowered.status();
        proj_exprs_.push_back(std::move(lowered).value());
      }
      for (const BoundOrderItem& oi : plan_.order_by) {
        if (oi.proj_index >= 0) continue;
        auto lowered = LowerExprSlots(*oi.expr, slot_types, 0, params_);
        if (!lowered.ok()) return lowered.status();
        order_exprs_.push_back(std::move(lowered).value());
      }
      can_stop_early_ =
          plan_.order_by.empty() && !plan_.distinct && plan_.limit >= 0;
    }
    return Status::OK();
  }

  /// Consumes the selected rows of one chunk into `st`. `serial` enables
  /// the single-state behaviors: early LIMIT stop and in-consume DISTINCT
  /// dedup (a parallel partial cannot see other morsels' rows; the combine
  /// dedups instead). Returns false when the plan's LIMIT is satisfied and
  /// the producer may stop scanning.
  StatusOr<bool> Consume(SinkState* st, const storage::ColumnChunkView& chunk,
                         const Sel& sel, bool serial) const {
    if (sel.empty()) return true;
    if (!plan_.aggregate_mode) return ConsumeRows(st, chunk, sel, serial);
    if (group_exprs_.empty()) return ConsumeGlobalAgg(st, chunk, sel);
    return ConsumeGroupedAgg(st, chunk, sel);
  }

  /// Folds `src` (a later morsel's partial state) into `dst`. Callers merge
  /// partials strictly in morsel order; group-creation order and DISTINCT
  /// keep-first semantics rely on it.
  void MergeState(SinkState* dst, SinkState&& src) const {
    if (!plan_.aggregate_mode) {
      dst->pending.reserve(dst->pending.size() + src.pending.size());
      for (PendingRow& pr : src.pending) {
        if (plan_.distinct && !dst->distinct_seen.insert(pr.out).second) {
          continue;
        }
        dst->pending.push_back(std::move(pr));
      }
      return;
    }
    dst->groups.Merge(std::move(src.groups));
  }

  /// Finalizes groups (HAVING, projection, order keys), then ORDER BY /
  /// LIMIT through the helper shared with the interpreter, which also
  /// appends the "order" and "emit" trace ops when `trace` is set.
  StatusOr<sql::ResultSet> Finish(SinkState&& st,
                                  obs::QueryTrace* trace) const {
    if (plan_.aggregate_mode) {
      if (st.groups.size() == 0 && plan_.group_by.empty()) {
        // Global aggregate over empty input still yields one row.
        bool created = false;
        AggGroup& g = st.groups[st.groups.Global(&created)];
        g.repr.assign(plan_.total_slots, Value::Null());
        g.accums = sql::NewAccums(plan_.aggs);
      }
      std::vector<Value> agg_values(plan_.aggs.size());
      for (const AggGroup& g : st.groups.groups()) {
        for (size_t a = 0; a < plan_.aggs.size(); ++a) {
          agg_values[a] =
              g.accums[a].Result(plan_.aggs[a].fn, g.star_count);
        }
        if (plan_.having) {
          auto v =
              sql::EvalBound(*plan_.having, g.repr, params_, &agg_values);
          if (!v.ok()) return v.status();
          if (!v->AsBool()) continue;
        }
        PendingRow pr;
        pr.out.reserve(plan_.projections.size());
        for (const auto& p : plan_.projections) {
          auto v = sql::EvalBound(*p, g.repr, params_, &agg_values);
          if (!v.ok()) return v.status();
          pr.out.push_back(std::move(v).value());
        }
        if (plan_.distinct && !st.distinct_seen.insert(pr.out).second) {
          continue;
        }
        for (const BoundOrderItem& oi : plan_.order_by) {
          if (oi.proj_index >= 0) {
            pr.order_keys.push_back(pr.out[oi.proj_index]);
          } else {
            auto v = sql::EvalBound(*oi.expr, g.repr, params_, &agg_values);
            if (!v.ok()) return v.status();
            pr.order_keys.push_back(std::move(v).value());
          }
        }
        st.pending.push_back(std::move(pr));
      }
    }
    sql::ResultSet rs;
    rs.column_names = plan_.column_names;
    rs.rows = sql::OrderAndLimit(std::move(st.pending), plan_, trace);
    rs.affected_rows = 0;
    return rs;
  }

 private:
  struct LoweredAgg {
    bool has_arg = false;
    VExpr arg;
  };

  StatusOr<bool> ConsumeRows(SinkState* st,
                             const storage::ColumnChunkView& chunk,
                             const Sel& sel, bool serial) const {
    std::vector<Vec> pvecs;
    pvecs.reserve(proj_exprs_.size());
    for (const VExpr& p : proj_exprs_) {
      auto v = EvalVec(p, chunk, sel);
      if (!v.ok()) return v.status();
      pvecs.push_back(std::move(v).value());
    }
    std::vector<Vec> ovecs;
    ovecs.reserve(order_exprs_.size());
    for (const VExpr& o : order_exprs_) {
      auto v = EvalVec(o, chunk, sel);
      if (!v.ok()) return v.status();
      ovecs.push_back(std::move(v).value());
    }
    for (size_t i = 0; i < sel.size(); ++i) {
      PendingRow pr;
      pr.out.reserve(pvecs.size());
      for (const Vec& pv : pvecs) pr.out.push_back(pv.value_at(i));
      // DISTINCT dedups into this state's own set either way: the serial
      // path sees every row through one state (global dedup), a parallel
      // partial dedups within its morsel — keep-first survives the
      // morsel-order merge, and duplicates never pile up in partials.
      if (plan_.distinct && !st->distinct_seen.insert(pr.out).second) {
        continue;
      }
      size_t next_expr = 0;
      for (const BoundOrderItem& oi : plan_.order_by) {
        if (oi.proj_index >= 0) {
          pr.order_keys.push_back(pr.out[oi.proj_index]);
        } else {
          pr.order_keys.push_back(ovecs[next_expr++].value_at(i));
        }
      }
      st->pending.push_back(std::move(pr));
      if (serial && can_stop_early_ &&
          st->pending.size() >= static_cast<size_t>(plan_.limit)) {
        return false;  // enough rows; stop the scan
      }
    }
    return true;
  }

  StatusOr<bool> ConsumeGlobalAgg(SinkState* st,
                                  const storage::ColumnChunkView& chunk,
                                  const Sel& sel) const {
    // Global aggregate: one implicit group. The representative tuple is
    // the first selected row (projections may reference raw slots).
    bool created = false;
    AggGroup& g = st->groups[st->groups.Global(&created)];
    if (created) InitGroup(&g, chunk, sel[0]);
    g.star_count += static_cast<int64_t>(sel.size());
    for (size_t a = 0; a < agg_args_.size(); ++a) {
      if (!agg_args_[a].has_arg) continue;  // COUNT(*): star_count only
      auto v = EvalVec(agg_args_[a].arg, chunk, sel);
      if (!v.ok()) return v.status();
      AccumulateVec(&g.accums[a], *v);
    }
    return true;
  }

  StatusOr<bool> ConsumeGroupedAgg(SinkState* st,
                                   const storage::ColumnChunkView& chunk,
                                   const Sel& sel) const {
    std::vector<Vec> kvecs;
    kvecs.reserve(group_exprs_.size());
    for (const VExpr& g : group_exprs_) {
      auto v = EvalVec(g, chunk, sel);
      if (!v.ok()) return v.status();
      kvecs.push_back(std::move(v).value());
    }
    sql::GroupTable& groups = st->groups;
    std::vector<uint32_t> gidx(sel.size());
    bool created = false;
    if (single_int_key_) {
      const Vec& kv = kvecs[0];
      for (size_t i = 0; i < sel.size(); ++i) {
        const bool null = kv.null_at(i);
        gidx[i] = groups.FindInt(null ? 0 : kv.int_at(i), null, &created);
        if (created) InitGroup(&groups[gidx[i]], chunk, sel[i]);
      }
    } else {
      Row key(kvecs.size());
      for (size_t i = 0; i < sel.size(); ++i) {
        for (size_t k = 0; k < kvecs.size(); ++k) {
          key[k] = kvecs[k].value_at(i);
        }
        gidx[i] = groups.Find(
            key.size(), [&](size_t k) -> const Value& { return key[k]; },
            &created);
        if (created) InitGroup(&groups[gidx[i]], chunk, sel[i]);
      }
    }
    for (uint32_t g : gidx) groups[g].star_count++;
    for (size_t a = 0; a < agg_args_.size(); ++a) {
      if (!agg_args_[a].has_arg) continue;
      auto v = EvalVec(agg_args_[a].arg, chunk, sel);
      if (!v.ok()) return v.status();
      AccumulateGrouped(groups.groups(), gidx, a, *v);
    }
    return true;
  }

  /// Fills a new group's representative (chunk row `row`, needed slots
  /// only) and fresh accumulators.
  void InitGroup(AggGroup* g, const storage::ColumnChunkView& chunk,
                 size_t row) const {
    g->repr.resize(repr_cols_);
    for (int c = 0; c < repr_cols_; ++c) {
      if (needed_ == nullptr || (*needed_)[c]) {
        g->repr[c] = chunk.value_at(c, row);
      }
    }
    g->accums = sql::NewAccums(plan_.aggs);
  }

  const BoundSelect& plan_;
  std::span<const Value> params_;
  int repr_cols_ = 0;

  std::vector<VExpr> group_exprs_;
  std::vector<LoweredAgg> agg_args_;
  std::vector<VExpr> proj_exprs_;   // non-agg mode only
  std::vector<VExpr> order_exprs_;  // non-agg mode, one per expr order item
  bool single_int_key_ = false;
  bool can_stop_early_ = false;
  const std::vector<uint8_t>* needed_ = nullptr;
};

// LiveRows/ApplyConjuncts live in vexpr.{h,cc}: the scan, hash-build and
// join-probe stages share one filtering (and fallback) implementation.

// ------------------------- EXPLAIN ANALYZE capture -------------------------

/// Per-lane trace accumulation for one scan driver. Parallel fan-outs own
/// one slot per lane and sum them afterwards (the per-morsel rollup); the
/// serial paths use a single slot. All writes are gated on opts.trace.
struct LaneTrace {
  int64_t selected = 0;    ///< rows surviving the scan filters
  int64_t consumed_out = 0;  ///< probe-stage output rows (join path)
  int64_t filter_ns = 0;
  int64_t consume_ns = 0;  ///< sink consume (single-table) / probe cascade
};

LaneTrace SumLanes(const std::vector<LaneTrace>& lanes) {
  LaneTrace t;
  for (const LaneTrace& l : lanes) {
    t.selected += l.selected;
    t.consumed_out += l.consumed_out;
    t.filter_ns += l.filter_ns;
    t.consume_ns += l.consume_ns;
  }
  return t;
}

/// Appends the scan (and, when filters exist, filter) operators. `skipped`
/// is the zone-map block-skip count, always surfaced in the scan detail.
void TraceScanOps(obs::QueryTrace* trace, int table_id, bool has_filters,
                  int64_t scanned, int64_t skipped, const LaneTrace& t,
                  int64_t scan_ns) {
  obs::TraceOp scan;
  scan.op = "scan";
  scan.detail = "table=" + std::to_string(table_id) +
                " zskip=" + std::to_string(skipped);
  scan.rows_in = scanned;
  scan.rows_out = scanned;
  // The fused scan+filter loop is timed as a whole; the filter's share is
  // measured directly and subtracted out.
  int64_t residual = scan_ns - t.filter_ns - t.consume_ns;
  scan.wall_us = (residual > 0 ? residual : 0) / 1000;
  trace->ops.push_back(std::move(scan));
  if (has_filters) {
    obs::TraceOp filter;
    filter.op = "filter";
    filter.rows_in = scanned;
    filter.rows_out = t.selected;
    filter.wall_us = t.filter_ns / 1000;
    trace->ops.push_back(std::move(filter));
  }
}

/// Appends the aggregate/project operator given the pre-Finish sink
/// cardinality; Finish appends order and emit.
void TraceSinkOp(obs::QueryTrace* trace, const BoundSelect& plan,
                 int64_t rows_in, int64_t sink_rows, int64_t consume_ns) {
  obs::TraceOp sinkop;
  sinkop.op = plan.aggregate_mode ? "aggregate" : "project";
  if (plan.distinct) sinkop.detail = "distinct";
  sinkop.rows_in = rows_in;
  sinkop.rows_out = sink_rows;
  sinkop.wall_us = consume_ns / 1000;
  trace->ops.push_back(std::move(sinkop));
}

/// Sink cardinality before Finish (groups for aggregates, pending rows
/// otherwise): the aggregate/project operator's output cardinality.
int64_t SinkRows(const BoundSelect& plan, const SinkState& st) {
  if (plan.aggregate_mode) {
    // A global aggregate over empty input still emits one row.
    if (st.groups.size() == 0 && plan.group_by.empty()) return 1;
    return static_cast<int64_t>(st.groups.size());
  }
  return static_cast<int64_t>(st.pending.size());
}

// ------------------------- morsel fan-out driver ---------------------------

/// Whether this execution should fan out over the pool. Early-stop plans
/// stay serial: their serial scan terminates after LIMIT rows while a
/// parallel sweep would visit everything.
bool UseParallel(const VecExecOptions& opts, const VecSink& sink) {
  return opts.pool != nullptr && opts.pool->lanes() > 1 &&
         !sink.can_stop_early();
}

// NormalizedMorselRows lives in vectorized.h (the router mirrors it).

/// Per-driver block accounting: chunk-sized blocks actually read vs.
/// skipped whole via the zone-map mask.
struct ScanBlocks {
  int64_t scanned = 0;
  int64_t skipped = 0;
};

/// Pins `table` and drives `body` over its chunks from `lanes` execution
/// lanes; each claimed morsel accumulates into its own SinkState slot in
/// `partials` (indexed by ordinal, i.e. scan order). Blocks the zone-map
/// mask built from `preds` refutes are skipped without being decoded.
/// `body(lane, state, chunk, sel)` runs the per-chunk pipeline; the first
/// failing status cancels the dispatcher and is returned. Adds live rows
/// visited to *visited, block counts to *blocks (also recorded on the
/// table), and reports the fan-out width in *lanes_used.
template <typename Body>
Status RunMorselFanOut(const storage::ColumnTable& table,
                       const VecExecOptions& opts,
                       std::span<const storage::ZonePred> preds,
                       std::vector<SinkState>* partials, int* lanes_used,
                       int64_t* visited, ScanBlocks* blocks, Body&& body) {
  storage::ColumnTable::ScanPin pin(table);
  const std::vector<uint8_t> skip = pin.ComputeSkipMask(preds);
  MorselDispatcher dispatcher(pin.total_slots(),
                              NormalizedMorselRows(opts.morsel_rows));
  const int lanes = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(opts.pool->lanes()),
      std::max<size_t>(1, dispatcher.morsel_count())));
  partials->clear();
  partials->resize(dispatcher.morsel_count());
  std::vector<Status> lane_status(lanes, Status::OK());
  std::vector<int64_t> lane_visited(lanes, 0);
  std::vector<ScanBlocks> lane_blocks(lanes);
  opts.pool->Run(lanes, [&](int lane) {
    MorselDispatcher::Morsel m;
    while (dispatcher.Next(&m)) {
      SinkState* st = &(*partials)[m.ordinal];
      for (size_t off = 0; off < m.rows; off += kVecChunkRows) {
        // Morsel bases are multiples of the (normalized) chunk size, so
        // every chunk maps to exactly one kBlockSlots-aligned mask entry.
        const size_t b = (m.base + off) / storage::kBlockSlots;
        if (b < skip.size() && skip[b] != 0) {
          ++lane_blocks[lane].skipped;
          continue;
        }
        ++lane_blocks[lane].scanned;
        storage::ColumnChunkView chunk =
            pin.Chunk(m.base + off, std::min(kVecChunkRows, m.rows - off));
        Sel sel = LiveRows(chunk);
        lane_visited[lane] += static_cast<int64_t>(sel.size());
        Status st2 = body(lane, st, chunk, sel);
        if (!st2.ok()) {
          lane_status[lane] = st2;
          dispatcher.Cancel();
          return;
        }
      }
    }
  });
  for (const Status& st : lane_status) {
    if (!st.ok()) return st;
  }
  *lanes_used = lanes;
  for (int64_t v : lane_visited) *visited += v;
  for (const ScanBlocks& lb : lane_blocks) {
    blocks->scanned += lb.scanned;
    blocks->skipped += lb.skipped;
  }
  table.RecordScanBlocks(blocks->scanned, blocks->skipped);
  if (opts.morsel_counter != nullptr) {
    opts.morsel_counter->Add(static_cast<int64_t>(dispatcher.morsel_count()));
  }
  return Status::OK();
}

/// Serial scan driver shared by the single-table and join-stream paths:
/// same pin + zone-map skipping as the fan-out, one chunk at a time in
/// slot order. `body(chunk, sel)` returns false to stop early (LIMIT).
/// Returns live rows visited; block counts land in *blocks and on the
/// table's telemetry.
template <typename Body>
StatusOr<int64_t> RunSerialScan(const storage::ColumnTable& table,
                                std::span<const storage::ZonePred> preds,
                                ScanBlocks* blocks, Body&& body) {
  storage::ColumnTable::ScanPin pin(table);
  const std::vector<uint8_t> skip = pin.ComputeSkipMask(preds);
  const size_t total = pin.total_slots();
  int64_t visited = 0;
  Status inner = Status::OK();
  for (size_t base = 0; base < total;) {
    const size_t b = base / storage::kBlockSlots;
    if (b < skip.size() && skip[b] != 0) {
      ++blocks->skipped;
      base = (b + 1) * storage::kBlockSlots;
      continue;
    }
    storage::ColumnChunkView chunk = pin.Chunk(base, kVecChunkRows);
    if (chunk.rows == 0) break;
    ++blocks->scanned;
    Sel sel = LiveRows(chunk);
    visited += static_cast<int64_t>(sel.size());
    auto more = body(chunk, sel);
    if (!more.ok()) {
      inner = more.status();
      break;
    }
    base += chunk.rows;
    if (!*more) break;
  }
  table.RecordScanBlocks(blocks->scanned, blocks->skipped);
  if (!inner.ok()) return inner;
  return visited;
}

// ---------------------------- single-table path ----------------------------

StatusOr<sql::ResultSet> RunSingleTable(const BoundSelect& plan,
                                        std::span<const Value> params,
                                        const storage::ColumnTable& table,
                                        VecSink& sink,
                                        const VecExecOptions& opts,
                                        VecExecStats* stats) {
  std::vector<VExpr> filters;
  filters.reserve(plan.steps[0].filters.size());
  for (const auto& f : plan.steps[0].filters) {
    auto lowered = LowerExpr(*f, table.schema(), params);
    if (!lowered.ok()) return lowered.status();
    filters.push_back(std::move(lowered).value());
  }

  // Zone-refutable bounds from the scan conjuncts: both drivers consult
  // the pinned blocks' zone maps through the same mask, so serial and
  // parallel scans skip identically.
  const std::vector<storage::ZonePred> zpreds = ExtractZonePreds(filters);

  const bool tracing = opts.trace != nullptr;
  if (UseParallel(opts, sink)) {
    std::vector<SinkState> partials;
    int lanes = 1;
    int64_t visited = 0;
    ScanBlocks blocks;
    std::vector<LaneTrace> lt(
        tracing ? static_cast<size_t>(opts.pool->lanes()) : 0);
    const int64_t t_drv = tracing ? NowNanos() : 0;
    OLXP_RETURN_NOT_OK(RunMorselFanOut(
        table, opts, zpreds, &partials, &lanes, &visited, &blocks,
        [&](int lane, SinkState* st, const storage::ColumnChunkView& chunk,
            Sel& sel) -> Status {
          int64_t t0 = tracing ? NowNanos() : 0;
          OLXP_RETURN_NOT_OK(ApplyConjuncts(filters, chunk, &sel));
          if (tracing) {
            LaneTrace& t = lt[static_cast<size_t>(lane)];
            const int64_t t1 = NowNanos();
            t.filter_ns += t1 - t0;
            t.selected += static_cast<int64_t>(sel.size());
            t0 = t1;
          }
          auto more = sink.Consume(st, chunk, sel, /*serial=*/false);
          if (tracing) {
            lt[static_cast<size_t>(lane)].consume_ns += NowNanos() - t0;
          }
          return more.ok() ? Status::OK() : more.status();
        }));
    if (stats != nullptr) {
      stats->rows_scanned += visited;
      stats->rows_scanned_driver += visited;
      stats->lanes_used = std::max(stats->lanes_used, lanes);
      stats->blocks_scanned += blocks.scanned;
      stats->blocks_skipped += blocks.skipped;
    }
    SinkState merged;
    for (SinkState& p : partials) sink.MergeState(&merged, std::move(p));
    if (!tracing) return sink.Finish(std::move(merged), nullptr);
    const LaneTrace t = SumLanes(lt);
    opts.trace->lanes = std::max(opts.trace->lanes, lanes);
    opts.trace->morsels += static_cast<int64_t>(partials.size());
    TraceScanOps(opts.trace, plan.steps[0].table_id, !filters.empty(),
                 visited, blocks.skipped, t, NowNanos() - t_drv);
    TraceSinkOp(opts.trace, plan, t.selected, SinkRows(plan, merged),
                t.consume_ns);
    return sink.Finish(std::move(merged), opts.trace);
  }

  SinkState state;
  LaneTrace t;
  ScanBlocks blocks;
  const int64_t t_drv = tracing ? NowNanos() : 0;
  auto scanned_or = RunSerialScan(
      table, zpreds, &blocks,
      [&](const storage::ColumnChunkView& chunk,
          Sel& sel) -> StatusOr<bool> {
        int64_t t0 = tracing ? NowNanos() : 0;
        OLXP_RETURN_NOT_OK(ApplyConjuncts(filters, chunk, &sel));
        if (tracing) {
          const int64_t t1 = NowNanos();
          t.filter_ns += t1 - t0;
          t.selected += static_cast<int64_t>(sel.size());
          t0 = t1;
        }
        auto more = sink.Consume(&state, chunk, sel, /*serial=*/true);
        if (tracing) t.consume_ns += NowNanos() - t0;
        return more;
      });
  if (!scanned_or.ok()) return scanned_or.status();
  const int64_t scanned = *scanned_or;
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_scanned_driver += scanned;
    stats->blocks_scanned += blocks.scanned;
    stats->blocks_skipped += blocks.skipped;
  }
  if (!tracing) return sink.Finish(std::move(state), nullptr);
  TraceScanOps(opts.trace, plan.steps[0].table_id, !filters.empty(), scanned,
               blocks.skipped, t, NowNanos() - t_drv);
  TraceSinkOp(opts.trace, plan, t.selected, SinkRows(plan, state),
              t.consume_ns);
  return sink.Finish(std::move(state), opts.trace);
}

// ------------------------------- join path ---------------------------------

/// A materialized batch of joined tuples in slot layout: one Value vector
/// per plan slot. Only slots the rest of the plan references are filled
/// (the needed-slot mask); unreferenced columns stay empty and are never
/// read.
struct Batch {
  std::vector<std::vector<Value>> cols;
  std::vector<storage::ColumnSpan> desc;
  std::vector<uint8_t> live;
  size_t rows = 0;

  explicit Batch(size_t nslots) : cols(nslots), desc(nslots) {}

  void Clear() {
    rows = 0;
    for (auto& c : cols) c.clear();  // keeps capacity across chunks
  }

  storage::ColumnChunkView View() {
    // Grow-only all-ones array: View is called several times per batch
    // (probe keys, residuals, sink) and must not re-memset each time.
    if (live.size() < rows) live.resize(rows, 1);
    // Span descriptors are refreshed every View(): the column vectors may
    // have reallocated since the last batch. Joined batches are always
    // boxed (kRaw) — only replica blocks carry typed encodings.
    for (size_t i = 0; i < cols.size(); ++i) {
      desc[i] = storage::ColumnSpan{};
      desc[i].enc = storage::EncodedColumn::Enc::kRaw;
      desc[i].flat = cols[i].data();
    }
    storage::ColumnChunkView v;
    v.base = 0;
    v.rows = rows;
    v.live = live.data();
    v.cols = desc.data();
    v.num_cols = static_cast<int>(cols.size());
    return v;
  }
};

/// One hash-join stage: the built side plus the probe-side machinery.
/// Immutable once built — the morsel fan-out probes one shared level set
/// from every lane concurrently.
struct JoinLevel {
  int base = 0;   ///< first slot of the build table
  int ncols = 0;  ///< columns of the build table
  HashJoinTable ht;
  /// Level 0 keys are lowered against the stream table (evaluated on the
  /// raw scan chunk, so non-matching rows are never materialized); deeper
  /// levels are lowered in slot layout and evaluated on joined batches.
  std::vector<VExpr> probe_keys;
  std::vector<VExpr> residuals;  ///< slot layout, checked after this join
  /// Needed build-table columns copied on emit (local indices).
  std::vector<int> copy_cols;
  /// Needed slots filled before this level, copied through on emit.
  std::vector<int> prev_slots;
};

/// Looks up one probe row in the level's hash table; nullptr = no match
/// (including NULL keys, which never join).
const std::vector<uint32_t>* ProbeOne(const JoinLevel& level,
                                      const std::vector<Vec>& kvecs,
                                      bool int_probe, size_t i, Row* key) {
  if (int_probe) {
    if (kvecs[0].null_at(i)) return nullptr;
    return level.ht.ProbeInt(kvecs[0].int_at(i));
  }
  key->clear();
  for (const Vec& kv : kvecs) {
    if (kv.null_at(i)) return nullptr;
    key->push_back(kv.value_at(i));
  }
  return level.ht.ProbeRow(*key);
}

bool WantIntProbe(const JoinLevel& level, const std::vector<Vec>& kvecs) {
  return level.ht.int_keyed() && kvecs.size() == 1 &&
         (kvecs[0].type == ValueType::kInt ||
          kvecs[0].type == ValueType::kTimestamp);
}

/// Per-lane probe machinery: borrows the shared immutable levels, owns its
/// own reusable output batches and stats. The serial path uses one; the
/// parallel fan-out one per lane.
class JoinPipeline {
 public:
  JoinPipeline(const std::vector<JoinLevel>& levels, size_t total_slots,
               const VecSink& sink, VecExecStats* stats, bool serial)
      : levels_(levels), sink_(sink), stats_(stats), serial_(serial) {
    out_.reserve(levels_.size());
    for (size_t i = 0; i < levels_.size(); ++i) out_.emplace_back(total_slots);
  }

  /// Probes the selected rows of `src` through level `lv` and cascades
  /// onward; past the last level the joined batch feeds the sink via `st`.
  /// `in_cols` are source-view column indices and `out_slots` the plan
  /// slots they land in — the raw stream chunk passes (local columns,
  /// global slots), deeper levels pass their identical already-filled slot
  /// list for both. Returns false when the sink's LIMIT is satisfied.
  StatusOr<bool> Probe(SinkState* st, size_t lv,
                       const storage::ColumnChunkView& src, const Sel& sel,
                       const std::vector<int>& in_cols,
                       const std::vector<int>& out_slots) {
    if (sel.empty()) return true;
    const JoinLevel& level = levels_[lv];

    std::vector<Vec> kvecs;
    kvecs.reserve(level.probe_keys.size());
    for (const VExpr& k : level.probe_keys) {
      auto v = EvalVec(k, src, sel);
      if (!v.ok()) return v.status();
      kvecs.push_back(std::move(v).value());
    }
    const bool int_probe = WantIntProbe(level, kvecs);

    // Pass 1: match lists (so output columns reserve exactly once).
    std::vector<const std::vector<uint32_t>*> matches(sel.size(), nullptr);
    size_t total = 0;
    Row key;
    for (size_t i = 0; i < sel.size(); ++i) {
      matches[i] = ProbeOne(level, kvecs, int_probe, i, &key);
      if (matches[i] != nullptr) total += matches[i]->size();
    }
    if (stats_ != nullptr) stats_->rows_joined += static_cast<int64_t>(total);
    if (total == 0) return true;

    Batch& next = out_[lv];  // reused across chunks (capacity persists)
    next.Clear();
    for (int s : out_slots) next.cols[s].reserve(total);
    for (int c : level.copy_cols) next.cols[level.base + c].reserve(total);
    for (size_t i = 0; i < sel.size(); ++i) {
      if (matches[i] == nullptr) continue;
      for (uint32_t r : *matches[i]) {
        for (size_t j = 0; j < in_cols.size(); ++j) {
          next.cols[out_slots[j]].push_back(src.value_at(in_cols[j], sel[i]));
        }
        for (int c : level.copy_cols) {
          next.cols[level.base + c].push_back(level.ht.at(c, r));
        }
        ++next.rows;
      }
    }

    Sel next_sel(next.rows);
    std::iota(next_sel.begin(), next_sel.end(), 0u);
    storage::ColumnChunkView view = next.View();
    OLXP_RETURN_NOT_OK(ApplyConjuncts(level.residuals, view, &next_sel));
    if (lv + 1 == levels_.size()) {
      return sink_.Consume(st, view, next_sel, serial_);
    }
    const std::vector<int>& filled = levels_[lv + 1].prev_slots;
    return Probe(st, lv + 1, view, next_sel, filled, filled);
  }

 private:
  const std::vector<JoinLevel>& levels_;
  std::vector<Batch> out_;  ///< per-level output batches, reused
  const VecSink& sink_;
  VecExecStats* stats_;
  bool serial_;
};

/// Whether streaming the other side of a two-table join preserves the
/// interpreter parity contract. Swapping changes the emission order of rows
/// and the first-seen order of groups, which is visible through (a) ORDER
/// BY, whose ties keep emission order, (b) LIMIT, which keeps the first
/// rows or groups, and (c) grouped-aggregate representative tuples ("first
/// row of the group"): a raw slot projected (or used in HAVING) that is
/// not itself a GROUP BY key takes its value from the representative, so
/// its value depends on the driving order.
bool SwapPreservesParity(const BoundSelect& plan) {
  if (!plan.order_by.empty() || plan.limit >= 0) return false;
  if (!plan.aggregate_mode) return true;
  std::vector<uint8_t> refs(plan.total_slots, 0);
  for (const auto& p : plan.projections) MarkSlots(*p, &refs);
  if (plan.having) MarkSlots(*plan.having, &refs);
  std::vector<uint8_t> keyed(plan.total_slots, 0);
  for (const auto& g : plan.group_by) {
    if (g->kind == sql::BKind::kSlot && g->slot >= 0 &&
        static_cast<size_t>(g->slot) < keyed.size()) {
      keyed[g->slot] = 1;
    }
  }
  for (int s = 0; s < plan.total_slots; ++s) {
    if (refs[s] && !keyed[s]) return false;  // representative-dependent
  }
  return true;
}

StatusOr<sql::ResultSet> RunHashJoin(
    const BoundSelect& plan, std::span<const Value> params,
    const std::vector<const storage::ColumnTable*>& tables,
    std::span<const ValueType> slot_types, VecSink& sink,
    const VecExecOptions& opts, VecExecStats* stats) {
  const size_t nsteps = plan.steps.size();
  std::vector<JoinStepPlan> cls(nsteps);
  for (size_t k = 1; k < nsteps; ++k) {
    if (!ClassifyJoinStep(plan, k, &cls[k])) {
      return Status::Unsupported("join step without an equi-join key");
    }
  }

  // Stream the bigger side and build the hash table from the smaller one
  // when the join is a plain two-table shape and the changed driving order
  // cannot leak into results (SwapPreservesParity).
  size_t stream = 0;
  const bool swapped =
      nsteps == 2 && SwapPreservesParity(plan) &&
      tables[0]->LiveRowCount() < tables[1]->LiveRowCount();
  if (swapped) stream = 1;

  const TableStep& sstep = plan.steps[stream];
  std::vector<ValueType> stream_types = SchemaTypes(*sstep.schema);

  // Slots the plan reads after the join stages: sink expressions (also via
  // EvalBound over group representatives), residual conjuncts, and probe
  // keys of levels past the first (the first level probes the raw stream
  // chunk directly). Everything else is never materialized.
  const size_t total_slots = slot_types.size();
  std::vector<uint8_t> needed(total_slots, 0);
  sql::MarkSinkSlots(plan, &needed);
  {
    bool first_level = true;
    for (size_t k = 1; k < nsteps; ++k) {
      for (const BoundExpr* f : cls[k].residuals) MarkSlots(*f, &needed);
      for (const JoinKey& jk : cls[k].keys) {
        // In the two-table swapped case the sole level's probe side is the
        // stream (step-1) child; either way the only level probes the raw
        // chunk, so its keys need no materialization.
        if (first_level) continue;
        MarkSlots(*jk.probe, &needed);
      }
      first_level = false;
    }
  }
  sink.set_needed_slots(&needed);

  // Stream-side local filters (evaluated on the raw chunk).
  std::vector<const BoundExpr*> stream_locals;
  if (swapped) {
    stream_locals = cls[1].locals;
  } else {
    for (const auto& f : plan.steps[0].filters) {
      stream_locals.push_back(f.get());
    }
  }
  std::vector<VExpr> stream_filters;
  stream_filters.reserve(stream_locals.size());
  for (const BoundExpr* f : stream_locals) {
    auto lowered = LowerExprSlots(*f, stream_types, sstep.base, params);
    if (!lowered.ok()) return lowered.status();
    stream_filters.push_back(std::move(lowered).value());
  }
  std::vector<int> stream_copy;  // needed stream columns (local indices)
  std::vector<int> stream_out;   // ... and the plan slots they land in
  for (int c = 0; c < sstep.ncols; ++c) {
    if (needed[sstep.base + c]) {
      stream_copy.push_back(c);
      stream_out.push_back(sstep.base + c);
    }
  }

  // Build one hash table per non-stream step, in plan order. The build
  // stays serial; the tables are immutable afterwards, so the probe
  // fan-out reads them lock-free from every lane.
  std::vector<JoinLevel> levels;
  std::vector<int> filled = stream_out;  // needed slots materialized so far
  for (size_t k = 0; k < nsteps; ++k) {
    if (k == stream) continue;
    const TableStep& bstep = plan.steps[k];
    std::vector<ValueType> btypes = SchemaTypes(*bstep.schema);
    // When the two-table sides are swapped, the classified key roles flip:
    // the step-0 children become the build exprs and the step-1 children
    // the probe exprs. Locals follow their table.
    const JoinStepPlan& c = swapped ? cls[1] : cls[k];
    std::vector<const BoundExpr*> blocals;
    if (swapped) {
      for (const auto& f : plan.steps[0].filters) blocals.push_back(f.get());
    } else {
      blocals = c.locals;
    }
    const bool first_level = levels.empty();

    JoinLevel level;
    level.base = bstep.base;
    level.ncols = bstep.ncols;
    level.prev_slots = filled;
    std::vector<uint8_t> bneeded(bstep.ncols, 0);
    for (int bc = 0; bc < bstep.ncols; ++bc) {
      if (needed[bstep.base + bc]) {
        bneeded[bc] = 1;
        level.copy_cols.push_back(bc);
      }
    }

    std::vector<VExpr> build_filters;
    build_filters.reserve(blocals.size());
    for (const BoundExpr* f : blocals) {
      auto lowered = LowerExprSlots(*f, btypes, bstep.base, params);
      if (!lowered.ok()) return lowered.status();
      build_filters.push_back(std::move(lowered).value());
    }
    std::vector<VExpr> build_keys;
    build_keys.reserve(c.keys.size());
    level.probe_keys.reserve(c.keys.size());
    for (const JoinKey& jk : c.keys) {
      const BoundExpr* build_side = swapped ? jk.probe : jk.build;
      const BoundExpr* probe_side = swapped ? jk.build : jk.probe;
      auto b = LowerExprSlots(*build_side, btypes, bstep.base, params);
      if (!b.ok()) return b.status();
      build_keys.push_back(std::move(b).value());
      // The first level's probe keys run against the raw stream chunk (its
      // keys reference only stream slots); deeper levels run in slot
      // layout on the joined batch.
      auto p = first_level
                   ? LowerExprSlots(*probe_side, stream_types, sstep.base,
                                    params)
                   : LowerExprSlots(*probe_side, slot_types, 0, params);
      if (!p.ok()) return p.status();
      level.probe_keys.push_back(std::move(p).value());
    }
    level.residuals.reserve(c.residuals.size());
    for (const BoundExpr* f : c.residuals) {
      auto lowered = LowerExprSlots(*f, slot_types, 0, params);
      if (!lowered.ok()) return lowered.status();
      level.residuals.push_back(std::move(lowered).value());
    }

    int64_t scanned = 0;
    const int64_t t_build = opts.trace != nullptr ? NowNanos() : 0;
    OLXP_RETURN_NOT_OK(level.ht.Build(*tables[k], build_filters, build_keys,
                                      bneeded, &scanned));
    if (opts.trace != nullptr) {
      obs::TraceOp build;
      build.op = "join-build";
      build.detail = "table=" + std::to_string(bstep.table_id) + " level=" +
                     std::to_string(levels.size());
      build.rows_in = scanned;
      build.rows_out = static_cast<int64_t>(level.ht.rows());
      build.wall_us = (NowNanos() - t_build) / 1000;
      opts.trace->ops.push_back(std::move(build));
    }
    if (stats != nullptr) {
      stats->rows_scanned += scanned;
      stats->rows_built += static_cast<int64_t>(level.ht.rows());
    }
    for (int bc : level.copy_cols) filled.push_back(level.base + bc);
    levels.push_back(std::move(level));
  }

  // Stream-side zone bounds: the probe fan-out and the serial probe skip
  // stream blocks the local stream filters refute.
  const std::vector<storage::ZonePred> zpreds =
      ExtractZonePreds(stream_filters);

  const bool tracing = opts.trace != nullptr;
  if (UseParallel(opts, sink)) {
    // Parallel probe fan-out: every lane owns a pipeline (its own batch
    // buffers and stats) over the shared immutable levels, and each morsel
    // of the stream table accumulates into its own partial sink state.
    const int max_lanes = opts.pool->lanes();
    std::vector<VecExecStats> lane_stats(max_lanes);
    // Pipelines (and their per-level batch buffers) are built lazily on a
    // lane's first morsel: RunMorselFanOut may clamp to far fewer lanes
    // than the pool offers. Each lane only ever touches its own slot.
    std::vector<std::unique_ptr<JoinPipeline>> pipelines(max_lanes);
    std::vector<SinkState> partials;
    int lanes = 1;
    int64_t visited = 0;
    ScanBlocks blocks;
    std::vector<LaneTrace> lt(tracing ? static_cast<size_t>(max_lanes) : 0);
    const int64_t t_drv = tracing ? NowNanos() : 0;
    OLXP_RETURN_NOT_OK(RunMorselFanOut(
        *tables[stream], opts, zpreds, &partials, &lanes, &visited, &blocks,
        [&](int lane, SinkState* st, const storage::ColumnChunkView& chunk,
            Sel& sel) -> Status {
          int64_t t0 = tracing ? NowNanos() : 0;
          OLXP_RETURN_NOT_OK(ApplyConjuncts(stream_filters, chunk, &sel));
          if (!pipelines[lane]) {
            pipelines[lane] = std::make_unique<JoinPipeline>(
                levels, total_slots, sink, &lane_stats[lane],
                /*serial=*/false);
          }
          if (tracing) {
            LaneTrace& t = lt[static_cast<size_t>(lane)];
            const int64_t t1 = NowNanos();
            t.filter_ns += t1 - t0;
            t.selected += static_cast<int64_t>(sel.size());
            t0 = t1;
          }
          auto more = pipelines[lane]->Probe(st, 0, chunk, sel, stream_copy,
                                             stream_out);
          if (tracing) {
            lt[static_cast<size_t>(lane)].consume_ns += NowNanos() - t0;
          }
          return more.ok() ? Status::OK() : more.status();
        }));
    int64_t joined = 0;
    for (const VecExecStats& ls : lane_stats) joined += ls.rows_joined;
    if (stats != nullptr) {
      stats->rows_scanned += visited;
      stats->rows_scanned_driver += visited;
      stats->lanes_used = std::max(stats->lanes_used, lanes);
      stats->rows_joined += joined;
      stats->blocks_scanned += blocks.scanned;
      stats->blocks_skipped += blocks.skipped;
    }
    SinkState merged;
    for (SinkState& p : partials) sink.MergeState(&merged, std::move(p));
    if (!tracing) return sink.Finish(std::move(merged), nullptr);
    const LaneTrace t = SumLanes(lt);
    opts.trace->lanes = std::max(opts.trace->lanes, lanes);
    opts.trace->morsels += static_cast<int64_t>(partials.size());
    TraceScanOps(opts.trace, plan.steps[stream].table_id,
                 !stream_filters.empty(), visited, blocks.skipped, t,
                 NowNanos() - t_drv);
    obs::TraceOp probe;
    probe.op = "probe";
    probe.detail = std::to_string(levels.size()) + " levels";
    probe.rows_in = t.selected;
    probe.rows_out = joined;
    probe.wall_us = t.consume_ns / 1000;  // includes the sink consume
    opts.trace->ops.push_back(std::move(probe));
    TraceSinkOp(opts.trace, plan, joined, SinkRows(plan, merged), 0);
    return sink.Finish(std::move(merged), opts.trace);
  }

  // The serial trace needs the joined-row count even when the caller passed
  // no stats block.
  VecExecStats local_stats;
  VecExecStats* jstats = stats != nullptr ? stats : (tracing ? &local_stats
                                                             : nullptr);
  const int64_t joined_before = jstats != nullptr ? jstats->rows_joined : 0;
  JoinPipeline pipeline(levels, total_slots, sink, jstats, /*serial=*/true);
  SinkState state;
  LaneTrace t;
  ScanBlocks blocks;
  const int64_t t_drv = tracing ? NowNanos() : 0;
  auto scanned_or = RunSerialScan(
      *tables[stream], zpreds, &blocks,
      [&](const storage::ColumnChunkView& chunk,
          Sel& sel) -> StatusOr<bool> {
        int64_t t0 = tracing ? NowNanos() : 0;
        OLXP_RETURN_NOT_OK(ApplyConjuncts(stream_filters, chunk, &sel));
        if (tracing) {
          const int64_t t1 = NowNanos();
          t.filter_ns += t1 - t0;
          t.selected += static_cast<int64_t>(sel.size());
          t0 = t1;
        }
        // First-level probe runs straight off the raw chunk: its keys are
        // lowered against the stream table, so non-matching rows are never
        // materialized into slot layout.
        auto more =
            pipeline.Probe(&state, 0, chunk, sel, stream_copy, stream_out);
        if (tracing) t.consume_ns += NowNanos() - t0;
        return more;
      });
  if (!scanned_or.ok()) return scanned_or.status();
  const int64_t scanned = *scanned_or;
  if (stats != nullptr) {
    stats->rows_scanned += scanned;
    stats->rows_scanned_driver += scanned;
    stats->blocks_scanned += blocks.scanned;
    stats->blocks_skipped += blocks.skipped;
  }
  if (!tracing) return sink.Finish(std::move(state), nullptr);
  const int64_t joined = jstats->rows_joined - joined_before;
  TraceScanOps(opts.trace, plan.steps[stream].table_id,
               !stream_filters.empty(), scanned, blocks.skipped, t,
               NowNanos() - t_drv);
  obs::TraceOp probe;
  probe.op = "probe";
  probe.detail = std::to_string(levels.size()) + " levels";
  probe.rows_in = t.selected;
  probe.rows_out = joined;
  probe.wall_us = t.consume_ns / 1000;  // includes the sink consume
  opts.trace->ops.push_back(std::move(probe));
  TraceSinkOp(opts.trace, plan, joined, SinkRows(plan, state), 0);
  return sink.Finish(std::move(state), opts.trace);
}

}  // namespace

bool CanVectorize(const sql::CompiledStatement& stmt) {
  const auto& impl = stmt.impl();
  if (impl.kind != sql::StmtKind::kSelect || !impl.select) return false;
  const BoundSelect& p = *impl.select;
  if (p.steps.empty()) return false;
  for (const auto& step : p.steps) {
    for (const auto& f : step.filters) {
      if (sql::ContainsSubquery(*f)) return false;
    }
  }
  for (const auto& g : p.group_by) {
    if (sql::ContainsSubquery(*g)) return false;
  }
  for (const auto& a : p.aggs) {
    if (a.arg && sql::ContainsSubquery(*a.arg)) return false;
  }
  for (const auto& pr : p.projections) {
    if (sql::ContainsSubquery(*pr)) return false;
  }
  if (p.having && sql::ContainsSubquery(*p.having)) return false;
  for (const BoundOrderItem& oi : p.order_by) {
    if (oi.expr && sql::ContainsSubquery(*oi.expr)) return false;
  }
  // Joins: every non-driver step must be reachable through at least one
  // equi-join conjunct (hash-joinable); anything else stays interpreted.
  for (size_t k = 1; k < p.steps.size(); ++k) {
    JoinStepPlan tmp;
    if (!ClassifyJoinStep(p, k, &tmp)) return false;
  }
  return true;
}

PlanShape InspectPlan(const sql::CompiledStatement& stmt) {
  PlanShape s;
  const auto& impl = stmt.impl();
  s.is_select = impl.kind == sql::StmtKind::kSelect;
  if (!s.is_select || !impl.select) return s;
  const BoundSelect& p = *impl.select;
  if (p.steps.size() == 1) {
    s.single_table = true;
    s.table_id = p.steps[0].table_id;
    s.indexed_path = p.steps[0].path != TableStep::Path::kFull;
  }
  // Must mirror VecSink::Init's can_stop_early_ derivation exactly.
  s.early_stop_limit =
      !p.aggregate_mode && p.order_by.empty() && !p.distinct && p.limit >= 0;
  s.table_ids.reserve(p.steps.size());
  for (const TableStep& step : p.steps) s.table_ids.push_back(step.table_id);
  if (!p.steps.empty()) {
    s.indexed_driver = p.steps[0].path != TableStep::Path::kFull;
    s.inner_steps_indexed = p.steps.size() > 1;
    for (size_t k = 1; k < p.steps.size(); ++k) {
      if (p.steps[k].path == TableStep::Path::kFull) {
        s.inner_steps_indexed = false;
        break;
      }
    }
  }
  s.vectorizable = CanVectorize(stmt);
  return s;
}

StatusOr<sql::ResultSet> ExecuteVectorized(const sql::CompiledStatement& stmt,
                                           std::span<const Value> params,
                                           const storage::ColumnStore& store,
                                           const VecExecOptions& opts,
                                           VecExecStats* stats) {
  const auto& impl = stmt.impl();
  if (impl.kind != sql::StmtKind::kSelect || !impl.select ||
      impl.select->steps.empty()) {
    return Status::Unsupported("not a vectorizable statement");
  }
  const BoundSelect& plan = *impl.select;

  std::vector<const storage::ColumnTable*> tables;
  tables.reserve(plan.steps.size());
  std::vector<ValueType> slot_types;
  slot_types.reserve(plan.total_slots);
  for (const TableStep& step : plan.steps) {
    const storage::ColumnTable* t = store.table(step.table_id);
    if (t == nullptr) return Status::NotFound("no columnar replica");
    tables.push_back(t);
    std::vector<ValueType> types = SchemaTypes(*step.schema);
    slot_types.insert(slot_types.end(), types.begin(), types.end());
  }

  VecSink sink(plan, params);
  OLXP_RETURN_NOT_OK(sink.Init(slot_types));

  if (plan.steps.size() == 1) {
    return RunSingleTable(plan, params, *tables[0], sink, opts, stats);
  }
  return RunHashJoin(plan, params, tables, slot_types, sink, opts, stats);
}

size_t EstimateScanSlots(const sql::CompiledStatement& stmt,
                         std::span<const Value> params,
                         const storage::ColumnTable& table) {
  const auto& impl = stmt.impl();
  if (impl.kind != sql::StmtKind::kSelect || !impl.select ||
      impl.select->steps.size() != 1) {
    return table.SlotCount();
  }
  std::vector<VExpr> filters;
  filters.reserve(impl.select->steps[0].filters.size());
  for (const auto& f : impl.select->steps[0].filters) {
    auto lowered = LowerExpr(*f, table.schema(), params);
    if (!lowered.ok()) return table.SlotCount();  // interpreter-only shape
    filters.push_back(std::move(lowered).value());
  }
  const std::vector<storage::ZonePred> preds = ExtractZonePreds(filters);
  if (preds.empty()) return table.SlotCount();
  return table.EstimateScanSlots(preds);
}

}  // namespace olxp::exec
