#include "etpn/patch.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hlts::etpn {

namespace {

/// Sorted-unique union of two sorted-unique step sets -- exactly the result
/// a fresh build gives an arc that collects the steps of several transfers.
/// Writes into an arena-backed buffer (cleared first).
void union_steps(util::Span<int> a, util::Span<int> b,
                 util::PodVec<int>& out) {
  out.clear();
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      out.push_back(a[i++]);
    } else if (b[j] < a[i]) {
      out.push_back(b[j++]);
    } else {
      out.push_back(a[i++]);
      ++j;
    }
  }
  while (i < a.size()) out.push_back(a[i++]);
  while (j < b.size()) out.push_back(b[j++]);
}

}  // namespace

MergePatch apply_merge_patch(DataPath& dp, util::Arena& arena, DpNodeId into,
                             DpNodeId from) {
  HLTS_REQUIRE(into != from, "merge patch: self-merge");
  HLTS_REQUIRE(dp.alive(into) && dp.alive(from), "merge patch: dead endpoint");
  HLTS_REQUIRE(dp.node(into).kind == dp.node(from).kind,
               "merge patch: kind mismatch");
  HLTS_REQUIRE(dp.node(into).kind == DpNodeKind::Module ||
                   dp.node(into).kind == DpNodeKind::Register,
               "merge patch: only modules and registers merge");

  MergePatch patch;
  patch.from = from;
  patch.saved_arcs.bind(arena);
  patch.saved_nodes.bind(arena);
  patch.arc_pool_mark = dp.arc_pool_size();
  patch.step_pool_mark = dp.step_pool_size();

  // The touched neighbourhood: every arc incident to either endpoint (any of
  // them can be redirected, absorb steps, or be killed by duplicate
  // collapse), and every node incident to one of those arcs (its adjacency
  // list can lose a dead arc).
  util::PodVec<DpArcId> touched_arcs(arena);
  auto collect = [&](DpNodeId n) {
    const util::Span<DpArcId> in = dp.in_arcs(n);
    const util::Span<DpArcId> out = dp.out_arcs(n);
    touched_arcs.append(in.data(), in.size());
    touched_arcs.append(out.data(), out.size());
  };
  collect(into);
  collect(from);
  std::sort(touched_arcs.begin(), touched_arcs.end());
  touched_arcs.resize_down(
      std::unique(touched_arcs.begin(), touched_arcs.end()) -
      touched_arcs.begin());

  util::PodVec<DpNodeId> touched_nodes(arena);
  touched_nodes.push_back(into);
  touched_nodes.push_back(from);
  for (DpArcId a : touched_arcs) {
    touched_nodes.push_back(dp.arc(a).from);
    touched_nodes.push_back(dp.arc(a).to);
  }
  std::sort(touched_nodes.begin(), touched_nodes.end());
  touched_nodes.resize_down(
      std::unique(touched_nodes.begin(), touched_nodes.end()) -
      touched_nodes.begin());

  patch.saved_arcs.reserve(touched_arcs.size());
  for (DpArcId a : touched_arcs) {
    const DpArc& arc = dp.arc(a);
    patch.saved_arcs.push_back(
        {a, arc.from, arc.to, dp.step_list_span(a), dp.alive(a)});
  }
  patch.saved_nodes.reserve(touched_nodes.size());
  for (DpNodeId n : touched_nodes) {
    patch.saved_nodes.push_back({n, dp.in_list_span(n), dp.out_list_span(n)});
  }

  // --- mutate ---------------------------------------------------------------
  // Snapshots above are complete and every mutation below either edits POD
  // fields captured in them or appends above the pool marks, so any failure
  // can roll the graph back to its pre-call state (set_alive is idempotent;
  // revert restores the saved descriptors and truncates the pools), giving
  // the strong exception guarantee.
  try {
    // 1. Redirect every arc of `from` to `into` (field edits; no pool moves).
    for (DpArcId a : dp.in_arcs(from)) dp.arc(a).to = into;
    for (DpArcId a : dp.out_arcs(from)) dp.arc(a).from = into;

    // 2. Splice both endpoints' lists into scratch and restore the
    // ascending-id invariant.  `from` keeps empty lists from here on.
    util::PodVec<DpArcId> merged_in(arena);
    util::PodVec<DpArcId> merged_out(arena);
    auto splice = [](util::PodVec<DpArcId>& dst, util::Span<DpArcId> a,
                     util::Span<DpArcId> b) {
      dst.reserve(a.size() + b.size());
      dst.append(a.data(), a.size());
      dst.append(b.data(), b.size());
      std::sort(dst.begin(), dst.end());
    };
    splice(merged_in, dp.in_arcs(into), dp.in_arcs(from));
    splice(merged_out, dp.out_arcs(into), dp.out_arcs(from));
    dp.set_in_list_span(from, PoolSpan{});
    dp.set_out_list_span(from, PoolSpan{});

    // 3. Collapse duplicates.  Lists are ascending, so the first arc seen
    // for a (peer, port) key is the min-id survivor; a later collision
    // absorbs its steps into the survivor and dies.  (No module-module or
    // register-register arcs exist, so a merger never creates self-arcs, and
    // duplicates only ever pair one redirected arc with one pre-existing
    // arc.)
    util::PodVec<DpArcId> kept(arena);
    util::PodVec<int> union_buf(arena);
    util::PodVec<DpArcId> peer_buf(arena);
    auto dedup = [&](util::PodVec<DpArcId>& list, bool incoming) {
      kept.clear();
      for (std::size_t idx = 0; idx < list.size(); ++idx) {
        const DpArcId a = list[idx];
        const DpArc arc = dp.arc(a);
        const DpNodeId peer = incoming ? arc.from : arc.to;
        DpArcId winner = DpArcId::invalid();
        for (DpArcId k : kept) {
          const DpArc& karc = dp.arc(k);
          if ((incoming ? karc.from : karc.to) == peer &&
              karc.to_port == arc.to_port) {
            winner = k;
            break;
          }
        }
        if (!winner.valid()) {
          kept.push_back(a);
          continue;
        }
        union_steps(dp.steps(winner), dp.steps(a), union_buf);
        dp.rewrite_steps(winner, union_buf.data(),
                         static_cast<std::uint32_t>(union_buf.size()));
        dp.set_alive(a, false);
        // Detach the loser from its *other* endpoint's list; the survivor's
        // own list is rewritten from `kept` after the pass.
        peer_buf.clear();
        const util::Span<DpArcId> plist =
            incoming ? dp.out_arcs(peer) : dp.in_arcs(peer);
        for (DpArcId id : plist) {
          if (id != a) peer_buf.push_back(id);
        }
        HLTS_REQUIRE(peer_buf.size() + 1 == plist.size(),
                     "merge patch: arc missing from endpoint list");
        const std::uint32_t len = static_cast<std::uint32_t>(peer_buf.size());
        if (incoming) {
          dp.rewrite_out_list(peer, peer_buf.data(), len);
        } else {
          dp.rewrite_in_list(peer, peer_buf.data(), len);
        }
        ++patch.arcs_deduped;
      }
    };
    dedup(merged_in, /*incoming=*/true);
    dp.rewrite_in_list(into, kept.data(),
                       static_cast<std::uint32_t>(kept.size()));
    dedup(merged_out, /*incoming=*/false);
    dp.rewrite_out_list(into, kept.data(),
                        static_cast<std::uint32_t>(kept.size()));

    // 4. Retire `from`.
    dp.set_alive(from, false);
  } catch (...) {
    revert_merge_patch(dp, patch);
    throw;
  }
  return patch;
}

void revert_merge_patch(DataPath& dp, const MergePatch& patch) {
  for (const MergePatch::ArcState& st : patch.saved_arcs) {
    DpArc& arc = dp.arc(st.id);
    arc.from = st.from;
    arc.to = st.to;
    dp.set_step_list_span(st.id, st.steps);
    dp.set_alive(st.id, st.alive);
  }
  for (const MergePatch::NodeState& st : patch.saved_nodes) {
    dp.set_in_list_span(st.id, st.in);
    dp.set_out_list_span(st.id, st.out);
  }
  dp.truncate_arc_pool(patch.arc_pool_mark);
  dp.truncate_step_pool(patch.step_pool_mark);
  dp.set_alive(patch.from, true);
}

}  // namespace hlts::etpn
