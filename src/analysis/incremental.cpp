#include "analysis/incremental.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/trace.hpp"

namespace hlts::analysis {

BindingMerge::BindingMerge(const dfg::Dfg& g, TrialWorkspace& ws,
                           const testability::MergeCandidate& cand)
    : ws_(ws), cand_(cand) {
  into_old_size_ = cand.is_modules()
                       ? ws.binding.module_ops(cand.module_a).size()
                       : ws.binding.reg_vars(cand.reg_a).size();
  // The binding merge's failpoint fires before any mutation, so a throw
  // here leaves the workspace untouched.
  cand.apply(g, ws.binding);
}

BindingMerge::~BindingMerge() {
  // If the undo fails the copy is inconsistent: mark it stale so the next
  // checkout re-syncs instead of reusing it.
  try {
    if (cand_.is_modules()) {
      ws_.binding.undo_merge_modules(cand_.module_a, cand_.module_b,
                                     into_old_size_);
    } else {
      ws_.binding.undo_merge_regs(cand_.reg_a, cand_.reg_b, into_old_size_);
    }
  } catch (...) {
    ws_.epoch = 0;
  }
}

DataPathMerge::DataPathMerge(TrialWorkspace& ws,
                             const testability::MergeCandidate& cand)
    : ws_(ws) {
  const auto [into, from] = cand.nodes(ws.etpn);
  try {
    patch_ = etpn::apply_merge_patch(ws.etpn.data_path, ws.arena, into, from);
  } catch (...) {
    // apply_merge_patch rolled the data path back (strong guarantee); the
    // failed patch's arena carves are orphaned, so rewind them.
    ws_.arena.reset();
    throw;
  }
}

DataPathMerge::~DataPathMerge() {
  etpn::revert_merge_patch(ws_.etpn.data_path, patch_);
  // The undo log lived in the workspace arena and the patch is now fully
  // reverted; rewind the arena for the next trial (blocks retained).
  ws_.arena.reset();
}

IncrementalContext::IncrementalContext(const dfg::Dfg& g,
                                       const cost::ModuleLibrary& lib,
                                       int bits, bool register_reach)
    : g_(g),
      lib_(lib),
      bits_(bits),
      register_reach_(register_reach),
      tables_(g) {}

void IncrementalContext::derive(const sched::Schedule& s,
                                const etpn::Binding& b) {
  b_ = b;
  s_ = s;
  analysis_.reset();  // holds a reference into e_; drop before replacing
  e_ = etpn::build_data_path(g_, s_, b_);
  analysis_.emplace(e_.data_path);
  if (register_reach_) reach_ = etpn::RegisterReach(e_.data_path);
}

void IncrementalContext::attach(const sched::Schedule& s,
                                const etpn::Binding& b) {
  HLTS_REQUIRE(!poisoned_, "incremental context is poisoned");
  derive(s, b);
  cost_ = cost::estimate_cost(e_.data_path, lib_, bits_);
  ++epoch_;
}

void IncrementalContext::commit(const etpn::Binding& b_after,
                                const sched::Schedule& s_after,
                                const cost::HardwareCost& cost_after) {
  HLTS_REQUIRE(!poisoned_, "incremental context is poisoned");
  HLTS_REQUIRE(epoch_ != 0, "commit before attach");
  HLTS_FAILPOINT("analysis.commit");
  try {
    derive(s_after, b_after);
    cost_ = cost_after;
    ++epoch_;
    util::count("analysis.commits");
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

void IncrementalContext::refresh(TrialWorkspace& ws) const {
  if (ws.epoch == epoch_) return;
  ws.binding = b_;
  ws.etpn = e_;
  ws.epoch = epoch_;
}

std::unique_ptr<TrialWorkspace> IncrementalContext::checkout() {
  HLTS_REQUIRE(!poisoned_, "incremental context is poisoned");
  HLTS_REQUIRE(epoch_ != 0, "checkout before attach");
  std::unique_ptr<TrialWorkspace> ws;
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    if (!pool_.empty()) {
      ws = std::move(pool_.back());
      pool_.pop_back();
    }
  }
  if (!ws) ws = std::make_unique<TrialWorkspace>();
  refresh(*ws);
  return ws;
}

void IncrementalContext::checkin(std::unique_ptr<TrialWorkspace> ws) {
  if (!ws) return;
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  pool_.push_back(std::move(ws));
}

}  // namespace hlts::analysis
