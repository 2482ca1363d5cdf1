#include "gates/cnf.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace hlts::gates {

using util::cdcl::Lit;
using util::cdcl::Var;

TimeFrameCnf::TimeFrameCnf(const Netlist& nl, int frames, int reset_index)
    : nl_(nl), table_(nl), frames_(frames) {
  HLTS_REQUIRE_INPUT(frames >= 1, "cnf: need at least one time frame");
  HLTS_REQUIRE_INPUT(
      reset_index < static_cast<int>(nl.inputs().size()),
      "cnf: reset index out of range");
  nl.validate();

  // A shared constant-true literal; constants and stuck values reuse it.
  true_lit_ = fresh(Role::True);
  solver_.add_clause(true_lit_);
  const Lit false_lit = ~true_lit_;

  const std::size_t slots =
      static_cast<std::size_t>(frames) * nl.num_gates();
  good_one_.assign(slots, false_lit);
  good_zero_.assign(slots, false_lit);
  faulty_one_.assign(slots, false_lit);
  faulty_zero_.assign(slots, false_lit);
  path_.assign(slots, false_lit);
  cone_mark_.assign(slots, 0);
  cone_key_bits_.assign((slots + 63) / 64, 0);

  // Encoding order: the sources (PIs, constants, DFFs) in gate-id order,
  // then the combinational gates in levelized order.
  rank_.assign(nl.num_gates(), 0);
  is_output_.assign(nl.num_gates(), 0);
  std::vector<std::uint8_t> combinational(nl.num_gates(), 0);
  for (const GateId g : nl.levelized()) combinational[g.index()] = 1;
  for (const GateId g : nl.gate_ids()) {
    if (combinational[g.index()] != 0) continue;
    rank_[g.index()] = static_cast<std::uint32_t>(by_rank_.size());
    by_rank_.push_back(g);
  }
  for (const GateId g : nl.levelized()) {
    rank_[g.index()] = static_cast<std::uint32_t>(by_rank_.size());
    by_rank_.push_back(g);
  }
  for (const GateId o : nl.outputs()) is_output_[o.index()] = 1;

  // A slot is observable when an observed output is reachable from it
  // within the frame bound.  Frame-major from the last frame back, and in
  // reverse encoding order within a frame, every fanout is settled first.
  observable_.assign(slots, 0);
  for (int t = frames_ - 1; t >= 0; --t) {
    for (auto r = by_rank_.rbegin(); r != by_rank_.rend(); ++r) {
      const GateId g = *r;
      bool obs = is_output_[g.index()] != 0;
      for (const std::uint32_t fo : table_.fanouts(g.value())) {
        if (obs) break;
        const int ot = t + static_cast<int>(GateTable::crossing(fo));
        obs = ot < frames_ &&
              observable_[slot(GateId{GateTable::target(fo)}, ot)] != 0;
      }
      observable_[slot(g, t)] = obs ? 1 : 0;
    }
  }

  // Good machine, frame-major.  Mirrors WideSimulator<W>::step exactly:
  // sources first (PIs binary, constants fixed, DFFs chained / X at power
  // up), then the combinational gates in levelized order.
  note_.role = Role::Gate;
  for (int t = 0; t < frames_; ++t) {
    note_.frame = t;
    for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
      const GateId g = nl.inputs()[i];
      note_.gate = g;
      // Forced base state: reset high in frame 0, low afterwards -- as
      // constants, so the reset logic folds away.
      const Lit x = static_cast<int>(i) == reset_index
                        ? (t == 0 ? true_lit_ : false_lit)
                        : fresh(Role::Input);
      good_one_[slot(g, t)] = x;
      good_zero_[slot(g, t)] = ~x;
    }
    for (const GateId g : nl.gate_ids()) {
      const GateKind kind = nl.gate(g).kind;
      if (kind == GateKind::Const0) {
        good_one_[slot(g, t)] = false_lit;
        good_zero_[slot(g, t)] = true_lit_;
      } else if (kind == GateKind::Const1) {
        good_one_[slot(g, t)] = true_lit_;
        good_zero_[slot(g, t)] = false_lit;
      }
    }
    for (const GateId d : nl.dffs()) {
      if (t == 0) {
        // Power-up X: neither plane set.
        good_one_[slot(d, 0)] = false_lit;
        good_zero_[slot(d, 0)] = false_lit;
      } else {
        const GateId src = nl.gate(d).inputs[0];
        good_one_[slot(d, t)] = good_one_[slot(src, t - 1)];
        good_zero_[slot(d, t)] = good_zero_[slot(src, t - 1)];
      }
    }
    for (const GateId g : nl.levelized()) {
      const Gate& gate = nl.gate(g);
      note_.gate = g;
      in_one_.clear();
      in_zero_.clear();
      for (const GateId in : gate.inputs) {
        in_one_.push_back(good_one_[slot(in, t)]);
        in_zero_.push_back(good_zero_[slot(in, t)]);
      }
      encode_gate(gate.kind, good_one_[slot(g, t)], good_zero_[slot(g, t)]);
    }
  }
  solver_.mark_baseline();
}

Lit TimeFrameCnf::fresh(Role role) {
  const Var v = solver_.new_var();
  var_notes_.push_back(note_);
  var_notes_.back().role = role;
  return util::cdcl::mk_lit(v);
}

Lit TimeFrameCnf::make_and(std::span<const Lit> lits) {
  // Constant folding keeps the unrolling small: Const0/Const1 gates and
  // stuck fault sites feed fixed literals into half the plane equations.
  kept_.clear();
  for (const Lit l : lits) {
    if (l == true_lit_) continue;
    if (l == ~true_lit_) return ~true_lit_;
    kept_.push_back(l);
  }
  if (kept_.empty()) return true_lit_;
  if (kept_.size() == 1) return kept_[0];
  const Lit y = fresh(note_.role);
  for (const Lit l : kept_) solver_.add_clause(~y, l);  // y -> l
  // (AND of l) -> y, written over kept_ in place: [~l..., y].
  for (Lit& l : kept_) l = ~l;
  kept_.push_back(y);
  solver_.add_clause(kept_);
  return y;
}

Lit TimeFrameCnf::make_or(std::span<const Lit> lits) {
  negated_.clear();
  for (const Lit l : lits) negated_.push_back(~l);
  return ~make_and(negated_);
}

Lit TimeFrameCnf::make_and(Lit a, Lit b) {
  const Lit lits[] = {a, b};
  return make_and(lits);
}

Lit TimeFrameCnf::make_or(Lit a, Lit b) {
  const Lit lits[] = {~a, ~b};
  return ~make_and(lits);
}

Lit TimeFrameCnf::make_or(Lit a, Lit b, Lit c) {
  const Lit lits[] = {~a, ~b, ~c};
  return ~make_and(lits);
}

void TimeFrameCnf::encode_gate(GateKind kind, Lit& out_one, Lit& out_zero) {
  const std::vector<Lit>& in_one = in_one_;
  const std::vector<Lit>& in_zero = in_zero_;
  switch (kind) {
    case GateKind::Buf:
    case GateKind::Output:
      out_one = in_one[0];
      out_zero = in_zero[0];
      break;
    case GateKind::Not:
      out_one = in_zero[0];
      out_zero = in_one[0];
      break;
    case GateKind::And:
    case GateKind::Nand: {
      Lit v1 = make_and(in_one);
      Lit v0 = make_or(in_zero);
      if (kind == GateKind::Nand) std::swap(v1, v0);
      out_one = v1;
      out_zero = v0;
      break;
    }
    case GateKind::Or:
    case GateKind::Nor: {
      Lit v1 = make_or(in_one);
      Lit v0 = make_and(in_zero);
      if (kind == GateKind::Nor) std::swap(v1, v0);
      out_one = v1;
      out_zero = v0;
      break;
    }
    case GateKind::Xor:
    case GateKind::Xnor: {
      const Lit a1 = in_one[0];
      const Lit a0 = in_zero[0];
      const Lit b1 = in_one[1];
      const Lit b0 = in_zero[1];
      Lit v1 = make_or(make_and(a1, b0), make_and(a0, b1));
      Lit v0 = make_or(make_and(a1, b1), make_and(a0, b0));
      if (kind == GateKind::Xnor) std::swap(v1, v0);
      out_one = v1;
      out_zero = v0;
      break;
    }
    case GateKind::Mux: {
      const Lit s1 = in_one[0];
      const Lit s0 = in_zero[0];
      const Lit a1 = in_one[1];
      const Lit a0 = in_zero[1];
      const Lit b1 = in_one[2];
      const Lit b0 = in_zero[2];
      out_one = make_or(make_and(s0, a1), make_and(s1, b1), make_and(a1, b1));
      out_zero =
          make_or(make_and(s0, a0), make_and(s1, b0), make_and(a0, b0));
      break;
    }
    default:
      HLTS_REQUIRE(false, "cnf: source gate reached combinational encoding");
  }
}

void TimeFrameCnf::collect_cone(GateId site) {
  // Fanout cone of the (permanent) fault: the site in every frame, closed
  // combinationally within a frame and through DFFs into the next frame,
  // restricted to observable slots.  Every input of an observable slot is
  // observable itself, so the restriction drops nothing a detection can
  // depend on.  Marking by epoch keeps the search proportional to the
  // cone, not to all slots; the keys sort into frame-major encoding order.
  if (++cone_epoch_ == 0) {
    std::fill(cone_mark_.begin(), cone_mark_.end(), 0);
    cone_epoch_ = 1;
  }
  const std::size_t num_gates = nl_.num_gates();
  cone_.clear();
  const auto visit = [&](GateId g, int t) {
    const std::size_t s = slot(g, t);
    if (in_cone(s) || observable_[s] == 0) return;
    cone_mark_[s] = cone_epoch_;
    cone_.push_back(static_cast<std::size_t>(t) * num_gates +
                    rank_[g.index()]);
  };
  for (int t = 0; t < frames_; ++t) visit(site, t);
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    const auto t = static_cast<int>(cone_[i] / num_gates);
    const GateId g = by_rank_[cone_[i] % num_gates];
    for (const std::uint32_t fo : table_.fanouts(g.value())) {
      const int ot = t + static_cast<int>(GateTable::crossing(fo));
      if (ot < frames_) visit(GateId{GateTable::target(fo)}, ot);
    }
  }
  // Sort the keys by a pass over a bitset of all keys, from the word of
  // the smallest key to that of the largest: on large cones far fewer
  // steps than a comparison sort.
  std::size_t first_word = cone_key_bits_.size();
  std::size_t last_word = 0;
  for (const std::size_t key : cone_) {
    cone_key_bits_[key >> 6] |= std::uint64_t{1} << (key & 63);
    first_word = std::min(first_word, key >> 6);
    last_word = std::max(last_word, key >> 6);
  }
  cone_.clear();
  for (std::size_t w = first_word; w <= last_word && w < cone_key_bits_.size();
       ++w) {
    for (std::uint64_t bits = cone_key_bits_[w]; bits != 0; bits &= bits - 1) {
      cone_.push_back(64 * w + static_cast<std::size_t>(std::countr_zero(bits)));
    }
    cone_key_bits_[w] = 0;
  }
}

Lit TimeFrameCnf::add_fault(GateId site, bool stuck_at_one) {
  HLTS_REQUIRE_INPUT(site.index() < nl_.num_gates(),
                     "cnf: fault site out of range");
  note_.fault = static_cast<std::int32_t>(faults_.size());
  note_.role = Role::Gate;
  faults_.emplace_back(site, stuck_at_one);
  collect_cone(site);
  const std::size_t num_gates = nl_.num_gates();
  const auto frame_of = [&](std::size_t key) {
    return static_cast<int>(key / num_gates);
  };
  const auto gate_of = [&](std::size_t key) {
    return by_rank_[key % num_gates];
  };

  // Faulty planes inside the cone; everything else aliases the good planes
  // (faulty_one()/faulty_zero()).  The site itself is tied to the stuck
  // value -- the dual-rail image of the simulator's sa-mask (one =
  // (one|s1)&~s0 collapses to a constant).  A slot none of whose inputs
  // is still in the cone, or whose faulty planes fold to the good ones,
  // leaves the cone: it cannot differ.  Every remaining slot gets its
  // active-path variable and the four clauses a -> binary difference,
  // unless one machine is constant X there (then a is false).
  const Lit false_lit = ~true_lit_;
  for (const std::size_t key : cone_) {
    const int t = frame_of(key);
    const GateId g = gate_of(key);
    const std::size_t s = slot(g, t);
    const GateKind kind = table_.kind(g.value());
    const std::span<const std::uint32_t> ins = table_.inputs(g.value());
    note_.frame = t;
    note_.gate = g;
    if (g == site) {
      faulty_one_[s] = stuck_at_one ? true_lit_ : false_lit;
      faulty_zero_[s] = stuck_at_one ? false_lit : true_lit_;
    } else if (kind == GateKind::Dff) {
      // A DFF enters the cone only through its data input one frame back.
      const std::size_t src = slot(GateId{ins[0]}, t - 1);
      faulty_one_[s] = faulty_one(src);
      faulty_zero_[s] = faulty_zero(src);
    } else {
      in_one_.clear();
      in_zero_.clear();
      bool live = false;
      for (const std::uint32_t in : ins) {
        const std::size_t is = slot(GateId{in}, t);
        live = live || in_cone(is);
        in_one_.push_back(faulty_one(is));
        in_zero_.push_back(faulty_zero(is));
      }
      if (live) {
        encode_gate(kind, faulty_one_[s], faulty_zero_[s]);
      } else {
        faulty_one_[s] = good_one_[s];
        faulty_zero_[s] = good_zero_[s];
      }
    }
    const Lit g1 = good_one_[s];
    const Lit g0 = good_zero_[s];
    const Lit f1 = faulty_one_[s];
    const Lit f0 = faulty_zero_[s];
    if (f1 == g1 && f0 == g0) {
      cone_mark_[s] = 0;  // the machines agree here: the slot leaves the cone
      continue;
    }
    path_[s] = false_lit;
    if ((g1 == false_lit && g0 == false_lit) ||
        (f1 == false_lit && f0 == false_lit)) {
      continue;  // one machine is constant X: no binary difference
    }
    const Lit a = fresh(Role::Path);
    path_[s] = a;
    // a -> (g1 & f0) | (g0 & f1), distributed into four ternary clauses.
    solver_.add_clause(~a, g1, g0);
    solver_.add_clause(~a, g1, f1);
    solver_.add_clause(~a, f0, g0);
    solver_.add_clause(~a, f0, f1);
  }

  // a -> some cone fanout is active: a difference that reaches no observed
  // output is useless.  Fanouts into the site are left out: its faulty
  // value is the stuck constant whatever its inputs carry, and the path
  // from the last site slot on a detecting run never re-enters the site.
  for (const std::size_t key : cone_) {
    const int t = frame_of(key);
    const GateId g = gate_of(key);
    const std::size_t s = slot(g, t);
    if (!in_cone(s) || path_[s] == false_lit || is_output_[g.index()] != 0) {
      continue;
    }
    clause_.clear();
    clause_.push_back(~path_[s]);
    for (const std::uint32_t fo : table_.fanouts(g.value())) {
      const GateId out{GateTable::target(fo)};
      const int ot = t + static_cast<int>(GateTable::crossing(fo));
      if (ot < frames_ && out != site && in_cone(slot(out, ot))) {
        clause_.push_back(path_[slot(out, ot)]);
      }
    }
    solver_.add_clause(clause_);
  }

  // Detection: some observed output differs with a binary good value --
  // (good1 & faulty0) | (good0 & faulty1), the simulator's expression.
  // Only cone outputs can differ; everything else aliases the good planes.
  note_.role = Role::Detect;
  std::vector<Lit> detect;
  for (const std::size_t key : cone_) {
    const GateId o = gate_of(key);
    const int t = frame_of(key);
    const std::size_t s = slot(o, t);
    if (is_output_[o.index()] == 0 || !in_cone(s)) continue;
    note_.frame = t;
    note_.gate = o;
    const Lit d = make_or(make_and(good_one_[s], faulty_zero_[s]),
                          make_and(good_zero_[s], faulty_one_[s]));
    if (d == false_lit) continue;
    detect.push_back(d);
  }
  const Lit act = fresh(Role::Act);
  // act -> the fault is excited on some frame's (observable) site slot.
  clause_.clear();
  clause_.push_back(~act);
  for (int t = 0; t < frames_; ++t) {
    if (in_cone(slot(site, t))) clause_.push_back(path_[slot(site, t)]);
  }
  solver_.add_clause(clause_);
  // act -> some output differs somewhere.
  clause_.clear();
  clause_.push_back(~act);
  clause_.insert(clause_.end(), detect.begin(), detect.end());
  solver_.add_clause(clause_);
  return act;
}

void TimeFrameCnf::retire_fault(Lit act) { solver_.add_clause(~act); }

void TimeFrameCnf::reset() {
  solver_.restore_baseline();
  var_notes_.resize(static_cast<std::size_t>(solver_.num_vars()));
  faults_.clear();
  note_ = VarNote{};
}

std::vector<std::vector<bool>> TimeFrameCnf::extract_sequence() const {
  std::vector<std::vector<bool>> seq;
  seq.reserve(static_cast<std::size_t>(frames_));
  for (int t = 0; t < frames_; ++t) {
    std::vector<bool> v(nl_.inputs().size(), false);
    for (std::size_t i = 0; i < nl_.inputs().size(); ++i) {
      v[i] = solver_.model_true(good_one_[slot(nl_.inputs()[i], t)]);
    }
    seq.push_back(std::move(v));
  }
  return seq;
}

Lit TimeFrameCnf::one_lit(GateId g, int frame) const {
  HLTS_REQUIRE(frame >= 0 && frame < frames_, "cnf: frame out of range");
  return good_one_[slot(g, frame)];
}

Lit TimeFrameCnf::zero_lit(GateId g, int frame) const {
  HLTS_REQUIRE(frame >= 0 && frame < frames_, "cnf: frame out of range");
  return good_zero_[slot(g, frame)];
}

std::string TimeFrameCnf::describe(const VarNote& note) const {
  if (note.role == Role::True) return "const:true";
  const auto gate_name = [&](GateId g) {
    const std::string& name = nl_.gate(g).name;
    return name.empty() ? std::to_string(g.index()) : name;
  };
  std::string s;
  if (note.fault >= 0) {
    const auto& [site, stuck_at_one] =
        faults_[static_cast<std::size_t>(note.fault)];
    s = "fault:" + gate_name(site) + (stuck_at_one ? ":sa1:" : ":sa0:");
    if (note.role == Role::Act) return s + "act";
  }
  s += cat("f", std::to_string(note.frame), ":");
  switch (note.role) {
    case Role::Input:
      return s + "pi:" + gate_name(note.gate) + ":value";
    case Role::Gate:
      return s + gate_kind_name(nl_.gate(note.gate).kind) + ":" +
             gate_name(note.gate) + ":and";
    case Role::Path:
      return s + gate_kind_name(nl_.gate(note.gate).kind) + ":" +
             gate_name(note.gate) + ":path";
    case Role::Detect:
      return s + gate_name(note.gate) + ":detect:and";
    default:
      return s;
  }
}

void TimeFrameCnf::dump_dimacs(std::ostream& os, Lit assume) const {
  const auto dimacs = [](Lit l) {
    const int v = l.var() + 1;
    return l.sign() ? -v : v;
  };
  os << "c hlts time-frame CNF: netlist=" << nl_.name()
     << " frames=" << frames_ << "\n";
  if (assume.x >= 0) os << "c assume " << dimacs(assume) << "\n";
  for (std::size_t v = 0; v < var_notes_.size(); ++v) {
    os << "c v " << (v + 1) << " " << describe(var_notes_[v]) << "\n";
  }
  const std::size_t units = solver_.root_literals().size();
  os << "p cnf " << solver_.num_vars() << " "
     << (solver_.num_clauses() + units) << "\n";
  for (const Lit l : solver_.root_literals()) {
    os << dimacs(l) << " 0\n";
  }
  solver_.for_each_problem_clause([&](const int* codes, int size) {
    for (int i = 0; i < size; ++i) {
      Lit l;
      l.x = codes[i];
      os << dimacs(l) << " ";
    }
    os << "0\n";
  });
}

}  // namespace hlts::gates
