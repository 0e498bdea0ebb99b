#ifndef OLXP_SQL_BOUND_PLAN_H_
#define OLXP_SQL_BOUND_PLAN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "storage/schema.h"

/// Bound (compiled) plan representation shared by the row-at-a-time
/// interpreter (sql/executor.cc) and the vectorized columnar engine
/// (src/exec/). The compiler in executor.cc produces these; exec/ lowers the
/// single-table analytical subset onto typed column vectors.

namespace olxp::sql {

struct BoundSelect;

/// Bound expression node kinds (post name-resolution).
enum class BKind {
  kLiteral,
  kSlot,
  kParam,
  kUnary,
  kBinary,
  kAggRef,
  kBetween,
  kInList,
  kInSubquery,
  kScalarSubquery,
  kCase,
};

struct BoundExpr {
  BKind kind = BKind::kLiteral;
  Value literal;
  int slot = -1;
  int param_index = -1;
  UnaryOp uop = UnaryOp::kNeg;
  BinaryOp bop = BinaryOp::kEq;
  int agg_index = -1;
  bool negated_in = false;
  int sub_id = -1;
  std::vector<std::unique_ptr<BoundExpr>> children;
  std::shared_ptr<BoundSelect> subplan;
  int max_slot = -1;  ///< highest tuple slot referenced in this subtree
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

/// Deep copy of a bound expression (subplans shared).
inline BoundExprPtr CloneBound(const BoundExpr& e) {
  auto out = std::make_unique<BoundExpr>();
  out->kind = e.kind;
  out->literal = e.literal;
  out->slot = e.slot;
  out->param_index = e.param_index;
  out->uop = e.uop;
  out->bop = e.bop;
  out->agg_index = e.agg_index;
  out->negated_in = e.negated_in;
  out->sub_id = e.sub_id;
  out->subplan = e.subplan;
  out->max_slot = e.max_slot;
  for (const auto& c : e.children) out->children.push_back(CloneBound(*c));
  return out;
}

/// True when the subtree contains an IN (subquery) or scalar subquery.
bool ContainsSubquery(const BoundExpr& e);

/// Marks every tuple slot the subtree references in `mask`.
inline void MarkSlots(const BoundExpr& e, std::vector<uint8_t>* mask) {
  if (e.kind == BKind::kSlot && e.slot >= 0 &&
      static_cast<size_t>(e.slot) < mask->size()) {
    (*mask)[e.slot] = 1;
  }
  for (const auto& c : e.children) MarkSlots(*c, mask);
}

struct AggSpec {
  AggFunc fn = AggFunc::kCountStar;
  BoundExprPtr arg;  // null for COUNT(*)
};

struct TableStep {
  enum class Path { kFull, kPkPoint, kPkPrefixRange, kIndexPrefix };

  int table_id = -1;
  const storage::TableSchema* schema = nullptr;
  int base = 0;
  int ncols = 0;
  Path path = Path::kFull;
  int index_id = -1;
  /// Equality values for the key prefix (pk or index column order).
  std::vector<BoundExprPtr> key_exprs;
  /// Optional inclusive range bounds on the pk column following the
  /// equality prefix (kPkPrefixRange only).
  BoundExprPtr range_lo;
  BoundExprPtr range_hi;
  /// All conjuncts placed at this step (always re-checked).
  std::vector<BoundExprPtr> filters;
};

struct BoundOrderItem {
  BoundExprPtr expr;  // null when proj_index >= 0
  int proj_index = -1;
  bool desc = false;
};

struct BoundSelect {
  std::vector<TableStep> steps;
  int total_slots = 0;
  bool aggregate_mode = false;
  std::vector<BoundExprPtr> group_by;
  std::vector<AggSpec> aggs;
  std::vector<BoundExprPtr> projections;
  std::vector<std::string> column_names;
  BoundExprPtr having;
  std::vector<BoundOrderItem> order_by;
  int64_t limit = -1;
  bool distinct = false;
};

/// Marks the slots a SELECT's sink reads — projections, GROUP BY keys,
/// aggregate arguments, HAVING and ORDER BY expressions — in `mask`.
inline void MarkSinkSlots(const BoundSelect& plan,
                          std::vector<uint8_t>* mask) {
  for (const auto& p : plan.projections) MarkSlots(*p, mask);
  for (const auto& g : plan.group_by) MarkSlots(*g, mask);
  for (const AggSpec& a : plan.aggs) {
    if (a.arg) MarkSlots(*a.arg, mask);
  }
  if (plan.having) MarkSlots(*plan.having, mask);
  for (const BoundOrderItem& oi : plan.order_by) {
    if (oi.expr) MarkSlots(*oi.expr, mask);
  }
}

struct BoundInsert {
  int table_id = -1;
  const storage::TableSchema* schema = nullptr;
  /// For each statement column list entry, its schema position. Empty when
  /// the statement uses schema order.
  std::vector<int> col_map;
  std::vector<std::vector<BoundExprPtr>> rows;
};

struct BoundUpdate {
  TableStep step;
  std::vector<std::pair<int, BoundExprPtr>> assignments;  // schema pos
};

struct BoundDelete {
  TableStep step;
};

struct BoundCreateTable {
  storage::TableSchema schema;
};

struct BoundCreateIndex {
  std::string table_name;
  storage::IndexDef def;
};

enum class StmtKind { kSelect, kInsert, kUpdate, kDelete, kCreateTable,
                      kCreateIndex };

/// Compiled-statement implementation: the bound plan variants. Public so the
/// vectorized engine can inspect and lower plans; treat as read-only outside
/// sql/executor.cc.
struct CompiledStatement::Impl {
  StmtKind kind = StmtKind::kSelect;
  std::shared_ptr<BoundSelect> select;
  std::unique_ptr<BoundInsert> insert;
  std::unique_ptr<BoundUpdate> update;
  std::unique_ptr<BoundDelete> del;
  std::unique_ptr<BoundCreateTable> create_table;
  std::unique_ptr<BoundCreateIndex> create_index;
  int param_count = 0;
  int num_subqueries = 0;
};

/// Evaluates a bound scalar expression row-at-a-time with the interpreter's
/// exact semantics. `tuple` supplies slot values, `agg_values` the per-group
/// aggregate results for kAggRef nodes (may be null outside group context).
/// Precondition: the expression contains no subqueries (check with
/// ContainsSubquery); the vectorized engine uses this for post-aggregation
/// projections, HAVING and ORDER BY keys so both engines agree exactly.
StatusOr<Value> EvalBound(const BoundExpr& e, const Row& tuple,
                          std::span<const Value> params,
                          const std::vector<Value>* agg_values);

}  // namespace olxp::sql

#endif  // OLXP_SQL_BOUND_PLAN_H_
