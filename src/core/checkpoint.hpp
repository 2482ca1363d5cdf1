// Durable Algorithm-1 state and its JSON round-trip.
//
// Algorithm 1's merger loop carries exactly two pieces of mutable state: the
// committed schedule and the committed binding.  Everything else it consults
// -- the ETPN, the testability fixpoint, the cost estimate, the critical
// path -- is deterministically rederived from (dfg, params, schedule,
// binding) at the top of each iteration.  A Checkpoint therefore captures
// the complete resumable state of a run after `iteration` committed
// mergers, and a run resumed from it (AlgorithmOptions::resume_from) is
// bit-identical to the uninterrupted run from that point on.
//
// The (de)serializers here are the engine journal's payload format: plain
// util::JsonValue trees so the journal can compose them into its own
// records, with every count/id round-tripping exactly through int64.  All
// *_from_json readers treat their input as untrusted bytes off disk (a torn
// or hand-edited journal) and throw hlts::Error(ErrorKind::Input) with a
// descriptive message on any structural problem; they never crash on
// malformed documents.
//
// The module library is deliberately NOT serialized: every entry point in
// the repo uses cost::ModuleLibrary::standard(), and the paper's tables are
// defined against it.  A journal is only replayable under the library the
// binary bakes in, which params_from_json re-installs.
#pragma once

#include "core/options.hpp"
#include "dfg/dfg.hpp"
#include "etpn/binding.hpp"
#include "sched/schedule.hpp"
#include "util/json.hpp"

namespace hlts::core {

/// The committed design after `iteration` mergers of Algorithm 1 -- the
/// unit of crash recovery.  See AlgorithmOptions::resume_from /
/// on_checkpoint for the producing and consuming hooks.
struct Checkpoint {
  int iteration = 0;  ///< committed mergers baked into schedule/binding
  sched::Schedule schedule;
  etpn::Binding binding;
};

/// --- DFG ------------------------------------------------------------------
/// Variables and operations in id order (ids are dense insertion order, so
/// the reader reconstructs through the public construction API and gets the
/// same ids back).
[[nodiscard]] util::JsonValue dfg_to_json(const dfg::Dfg& g);
/// Rebuilds the graph and validates it; throws Error(Input) on malformed or
/// structurally inconsistent documents.
[[nodiscard]] dfg::Dfg dfg_from_json(const util::JsonValue& v);

/// --- AlgorithmOptions -----------------------------------------------------
/// The numeric/boolean knob set only: run hooks (cancel/on_iteration/
/// on_checkpoint/resume_from) are process-local and the library is the
/// baked-in standard one (see file comment).
[[nodiscard]] util::JsonValue params_to_json(const AlgorithmOptions& p);
[[nodiscard]] AlgorithmOptions params_from_json(const util::JsonValue& v);

/// --- Checkpoint -----------------------------------------------------------
/// Schedule as one step per op in id order; binding as per-slot member
/// lists *including* tombstone slots (empty, dead), so group ids -- which
/// candidate descriptions key on -- survive the round-trip unchanged.
[[nodiscard]] util::JsonValue checkpoint_to_json(const Checkpoint& c);
/// Rebuilds and fully validates the checkpoint against `g` (binding
/// invariants, schedule/binding consistency, data dependences); throws
/// Error(Input) if the document does not describe a valid design for `g`.
[[nodiscard]] Checkpoint checkpoint_from_json(const util::JsonValue& v,
                                              const dfg::Dfg& g);

}  // namespace hlts::core
