// Variable lifetime analysis (Algorithm 1, step 13).
//
// A value is written into its register at the *end* of the control step of
// its defining operation (primary inputs at the end of step 0, the load
// step) and must be held until the end of the last step in which it is read.
// Registered primary outputs are held to the end of the schedule.  Two
// variables may share a register iff their lifetime intervals are disjoint.
#pragma once

#include "dfg/dfg.hpp"
#include "sched/schedule.hpp"
#include "util/ids.hpp"

namespace hlts::sched {

/// Half-open interval semantics: the value occupies the register during
/// (birth, death], i.e. from just after step `birth` to the end of `death`.
/// An interval with death == birth is empty (value produced but never held).
struct Lifetime {
  int birth = 0;
  int death = 0;
  [[nodiscard]] bool empty() const { return death <= birth; }
};

/// Lifetime of `v` under `s`, whose length() is `length`; empty when
/// !g.needs_register(v).
[[nodiscard]] Lifetime lifetime_of(const dfg::Dfg& g, const Schedule& s,
                                   int length, dfg::VarId v);

/// Lifetimes of every register-resident variable under a schedule.
class LifetimeTable {
 public:
  LifetimeTable() = default;

  /// Computes lifetimes; variables with !g.needs_register() get an empty
  /// interval and never conflict.
  static LifetimeTable compute(const dfg::Dfg& g, const Schedule& s);

  [[nodiscard]] Lifetime lifetime(dfg::VarId v) const { return table_[v]; }

  /// True when the two variables can share one register.
  [[nodiscard]] bool disjoint(dfg::VarId a, dfg::VarId b) const;

  /// Maximum number of simultaneously live variables; a lower bound on the
  /// register count of any allocation.
  [[nodiscard]] int max_live() const;

 private:
  IndexVec<dfg::VarId, Lifetime> table_;
};

}  // namespace hlts::sched
