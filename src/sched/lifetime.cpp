#include "sched/lifetime.hpp"

#include <algorithm>

namespace hlts::sched {

Lifetime lifetime_of(const dfg::Dfg& g, const Schedule& s, int length,
                     dfg::VarId v) {
  if (!g.needs_register(v)) return {};
  const dfg::Variable& var = g.var(v);
  Lifetime lt;
  lt.birth = var.is_primary_input ? 0 : s.step(var.def);
  lt.death = lt.birth;
  for (dfg::OpId use : var.uses) {
    lt.death = std::max(lt.death, s.step(use));
  }
  if (var.is_primary_output && var.po_registered) {
    lt.death = std::max(lt.death, length + 1);
  }
  return lt;
}

LifetimeTable LifetimeTable::compute(const dfg::Dfg& g, const Schedule& s) {
  LifetimeTable t;
  t.table_.assign(g.num_vars(), Lifetime{});
  const int length = s.length();
  for (dfg::VarId v : g.var_ids()) t.table_[v] = lifetime_of(g, s, length, v);
  return t;
}

bool LifetimeTable::disjoint(dfg::VarId a, dfg::VarId b) const {
  const Lifetime& la = table_[a];
  const Lifetime& lb = table_[b];
  if (la.empty() || lb.empty()) return true;
  return la.death <= lb.birth || lb.death <= la.birth;
}

int LifetimeTable::max_live() const {
  int latest = 0;
  for (const Lifetime& lt : table_) latest = std::max(latest, lt.death);
  int best = 0;
  // A variable is live during steps (birth, death]; sample each step.
  for (int step = 0; step <= latest; ++step) {
    int live = 0;
    for (const Lifetime& lt : table_) {
      if (!lt.empty() && lt.birth < step && step <= lt.death) ++live;
    }
    best = std::max(best, live);
  }
  return best;
}

}  // namespace hlts::sched
