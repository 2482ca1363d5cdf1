// SAT backend suite (label: sat): unit tests of the in-repo CDCL solver,
// CNF-vs-simulator property tests over random sequential gate cones (with
// exhaustive simulation as ground truth for both verdicts), and the
// deterministic-backend equivalence matrix over the six benchmarks.
//
// The load-bearing property is soundness-by-construction: TimeFrameCnf
// encodes the *same* dual-rail plane equations the wide fault simulator
// evaluates, so any SAT model is a concrete simulation run and every
// extracted test must be confirmed by the simulator -- not "usually", but
// for every model of every cone.  The property tests check exactly that;
// the equivalence matrix then checks the orchestrator-level consequences
// (hybrid coverage >= timeframe, zero unconfirmed SAT detections, aborted
// PODEM targets resolved by SAT).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/backend.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/faults.hpp"
#include "atpg/sat_backend.hpp"
#include "atpg/wide_sim.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "gates/cnf.hpp"
#include "rtl/elaborate.hpp"
#include "rtl/rtl.hpp"
#include "support/netlist_fixtures.hpp"
#include "support/reference_cdcl.hpp"
#include "util/cdcl.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hlts {
namespace {

using gates::GateId;
using gates::GateKind;
using gates::Netlist;
using util::cdcl::Lit;
using util::cdcl::mk_lit;
using util::cdcl::Solver;
using util::cdcl::Status;
using test_support::random_netlist;
using util::cdcl::Value;
using util::cdcl::Var;

// ---------------------------------------------------------------------------
// CDCL solver units
// ---------------------------------------------------------------------------

TEST(Cdcl, UnitPropagationChains) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();
  const Var d = s.new_var();
  ASSERT_TRUE(s.add_clause(~mk_lit(a), mk_lit(b)));  // a -> b
  ASSERT_TRUE(s.add_clause(~mk_lit(b), mk_lit(c)));  // b -> c
  ASSERT_TRUE(s.add_clause(~mk_lit(c), mk_lit(d)));  // c -> d
  ASSERT_TRUE(s.add_clause(mk_lit(a)));              // root unit
  // The whole chain is implied at decision level 0.
  EXPECT_EQ(s.solve(), Status::Sat);
  EXPECT_EQ(s.value(a), Value::True);
  EXPECT_EQ(s.value(b), Value::True);
  EXPECT_EQ(s.value(c), Value::True);
  EXPECT_EQ(s.value(d), Value::True);
  EXPECT_EQ(s.stats().decisions, 0u);
}

TEST(Cdcl, EmptyAndContradictoryClausesMakeTheSolverInconsistent) {
  Solver s;
  const Var a = s.new_var();
  ASSERT_TRUE(s.add_clause(mk_lit(a)));
  EXPECT_FALSE(s.add_clause(mk_lit(a, true)));
  EXPECT_TRUE(s.inconsistent());
  EXPECT_EQ(s.solve(), Status::Unsat);
}

/// Pigeonhole PHP(n, n-1): n pigeons into n-1 holes, classic UNSAT family
/// that is impossible without conflict learning doing real work.
void add_php(Solver& s, int pigeons, int holes,
             std::vector<std::vector<Var>>* vars = nullptr) {
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> some;
    for (int h = 0; h < holes; ++h) some.push_back(mk_lit(p[i][h]));
    s.add_clause(some);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j)
        s.add_clause(mk_lit(p[i][h], true), mk_lit(p[j][h], true));
  if (vars != nullptr) *vars = std::move(p);
}

TEST(Cdcl, LearnedClausesRefutePigeonhole) {
  Solver s;
  add_php(s, 5, 4);
  EXPECT_EQ(s.solve(), Status::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().learned, 0u);
  // Refuted at the formula level: no assumptions were involved.
  EXPECT_TRUE(s.failed_assumptions().empty());
}

TEST(Cdcl, ModelsSatisfyEveryProblemClause) {
  // A satisfiable instance hard enough to force conflicts and learning:
  // PHP(5, 5) (a permutation exists) plus side constraints.
  Solver s;
  std::vector<std::vector<Var>> p;
  add_php(s, 5, 5, &p);
  s.add_clause(mk_lit(p[0][0], true));
  s.add_clause(mk_lit(p[1][1], true));
  ASSERT_EQ(s.solve(), Status::Sat);
  // Every problem clause (flat arena walk) must hold under the model, and
  // so must the root-trail units the simplifier stripped out of clauses.
  std::size_t checked = 0;
  s.for_each_problem_clause([&](const int* codes, int size) {
    bool sat = false;
    for (int i = 0; i < size; ++i) {
      Lit l;
      l.x = codes[i];
      if (s.model_true(l)) sat = true;
    }
    EXPECT_TRUE(sat) << "clause " << checked << " falsified by the model";
    ++checked;
  });
  EXPECT_GT(checked, 0u);
  for (const Lit l : s.root_literals()) EXPECT_TRUE(s.model_true(l));
}

TEST(Cdcl, FailedAssumptionsFormAnUnsatCore) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  const Var c = s.new_var();  // irrelevant to the conflict
  const Var x = s.new_var();
  ASSERT_TRUE(s.add_clause(~mk_lit(a), mk_lit(x)));        // a -> x
  ASSERT_TRUE(s.add_clause(~mk_lit(b), mk_lit(x, true)));  // b -> ~x
  // {a, b, c} is inconsistent; the core must be within {a, b}.
  ASSERT_EQ(s.solve({mk_lit(a), mk_lit(b), mk_lit(c)}), Status::Unsat);
  const std::vector<Lit> core = s.failed_assumptions();
  ASSERT_FALSE(core.empty());
  for (const Lit l : core) {
    EXPECT_TRUE(l == mk_lit(a) || l == mk_lit(b))
        << "core pulled in an irrelevant assumption";
  }
  // Core sanity: the core alone is still Unsat, and dropping the conflict
  // (either side) restores Sat -- on the same incremental solver.
  EXPECT_EQ(s.solve(core), Status::Unsat);
  EXPECT_EQ(s.solve({mk_lit(a), mk_lit(c)}), Status::Sat);
  EXPECT_TRUE(s.model_true(mk_lit(x)));
  EXPECT_EQ(s.solve({mk_lit(b), mk_lit(c)}), Status::Sat);
  EXPECT_FALSE(s.model_true(mk_lit(x)));
}

TEST(Cdcl, ConflictBudgetReturnsUnknown) {
  Solver s;
  add_php(s, 8, 7);
  EXPECT_EQ(s.solve({}, /*conflict_budget=*/10), Status::Unknown);
  // Unbounded, the same solver finishes the refutation.
  EXPECT_EQ(s.solve(), Status::Unsat);
}

TEST(Cdcl, DeterministicAcrossRuns) {
  auto run = [] {
    Solver s;
    add_php(s, 7, 6);
    EXPECT_EQ(s.solve(), Status::Unsat);
    return s.stats().conflicts;
  };
  const auto first = run();
  EXPECT_EQ(run(), first);
}

// ---------------------------------------------------------------------------
// Random sequential cones: CNF model <=> simulator agreement, frame by frame
// ---------------------------------------------------------------------------

TEST(CnfProperty, GoodMachineModelsAgreeWithSimulatorEveryFrame) {
  Rng rng(2026);
  int sat_cases = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const Netlist nl = random_netlist(rng, 4, 24, 3);
    const int frames = 3;
    gates::TimeFrameCnf cnf(nl, frames);
    // Constrain a random gate to a random binary value in a random frame.
    const GateId target{static_cast<GateId::underlying_type>(
        rng.next_below(nl.num_gates()))};
    const int frame = static_cast<int>(rng.next_below(frames));
    const Lit goal = rng.next_bool() ? cnf.one_lit(target, frame)
                                     : cnf.zero_lit(target, frame);
    if (cnf.solver().solve({goal}) != Status::Sat) continue;
    ++sat_cases;
    const atpg::TestSequence seq = cnf.extract_sequence();
    ASSERT_EQ(seq.size(), static_cast<std::size_t>(frames));
    // Replay the model's PI assignment on the real simulator: every gate's
    // three-valued planes must match the model in every frame.
    atpg::WideSimulator<1> sim(nl);
    sim.reset_state();
    for (int t = 0; t < frames; ++t) {
      sim.step(seq[t]);
      for (GateId g : nl.gate_ids()) {
        const bool model_one = cnf.solver().model_true(cnf.one_lit(g, t));
        const bool model_zero = cnf.solver().model_true(cnf.zero_lit(g, t));
        EXPECT_EQ(model_one, sim.plane_one(g).lane(0))
            << "one-plane mismatch at gate " << g.index() << " frame " << t
            << " (trial " << trial << ")";
        EXPECT_EQ(model_zero, sim.plane_zero(g).lane(0))
            << "zero-plane mismatch at gate " << g.index() << " frame " << t
            << " (trial " << trial << ")";
      }
    }
  }
  // The constraint is satisfiable most of the time; guard against the test
  // silently degenerating into a no-op.
  EXPECT_GE(sat_cases, 10);
}

TEST(CnfProperty, EverySatTestIsConfirmedByTheFaultSimulator) {
  Rng rng(4096);
  int detected = 0;
  int untestable = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const Netlist nl = random_netlist(rng, 4, 20, 3);
    const int frames = 4;
    gates::TimeFrameCnf cnf(nl, frames);
    atpg::FaultSimulator fsim(nl, /*num_threads=*/1);
    const atpg::FaultUniverse universe = atpg::FaultUniverse::collapsed(nl);
    for (const atpg::Fault& f : universe.faults()) {
      const Lit act = cnf.add_fault(f.gate, f.stuck_at_one);
      const Status st = cnf.solver().solve({act});
      if (st == Status::Sat) {
        ++detected;
        const atpg::TestSequence seq = cnf.extract_sequence();
        std::vector<atpg::Fault> remaining{f};
        fsim.drop_detected(seq, remaining);
        EXPECT_TRUE(remaining.empty())
            << "SAT test for " << atpg::fault_name(nl, f)
            << " not confirmed by the simulator (trial " << trial << ")";
      } else {
        ASSERT_EQ(st, Status::Unsat);
        ++untestable;
      }
      cnf.retire_fault(act);
    }
  }
  // Random cones must exercise both outcomes for the property to bite.
  EXPECT_GT(detected, 100);
  EXPECT_GT(untestable, 0);
}

TEST(CnfProperty, VerdictsMatchExhaustiveSimulation) {
  // Ground truth for both verdicts.  With 3 PIs and 3 frames there are only
  // 512 input sequences, so the set of faults some sequence detects is
  // known exactly: Sat must come with a detecting sequence, Unsat must mean
  // no sequence detects the fault.  The faults run through the production
  // SatBackend with no conflict budget, resets included.  Every other
  // netlist has a reset input, which every sequence drives 1-then-0.
  Rng rng(1992);
  constexpr int kInputs = 3;
  constexpr int kFrames = 3;
  int detected = 0;
  int untestable = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const bool with_reset = trial % 2 == 1;
    const Netlist nl = random_netlist(rng, kInputs, 18, 3, with_reset);
    const atpg::FaultUniverse universe = atpg::FaultUniverse::collapsed(nl);
    const std::vector<atpg::Fault>& faults = universe.faults();
    atpg::FaultSimulator fsim(nl, /*num_threads=*/1);
    std::vector<std::uint8_t> testable(faults.size(), 0);
    for (unsigned code = 0; code < (1u << (kInputs * kFrames)); ++code) {
      atpg::TestSequence seq(kFrames, atpg::TestVector(kInputs));
      bool base_state = true;
      for (int t = 0; t < kFrames; ++t) {
        for (int i = 0; i < kInputs; ++i) {
          seq[t][i] = ((code >> (t * kInputs + i)) & 1u) != 0;
        }
        base_state = base_state && (!with_reset || seq[t][0] == (t == 0));
      }
      if (!base_state) continue;
      for (const std::size_t idx : fsim.detected_by(seq, faults)) {
        testable[idx] = 1;
      }
    }

    atpg::BackendConfig config;
    config.frames = kFrames;
    config.conflict_budget = 0;
    auto backend = atpg::make_backend(atpg::BackendKind::Sat, nl, config);
    for (std::size_t k = 0; k < faults.size(); ++k) {
      const atpg::Fault& f = faults[k];
      const atpg::BackendResult r = backend->generate(f);
      ASSERT_NE(r.status, atpg::BackendStatus::Aborted);
      if (r.status == atpg::BackendStatus::Detected) {
        ++detected;
        std::vector<atpg::Fault> remaining{f};
        fsim.drop_detected(r.sequence, remaining);
        EXPECT_TRUE(remaining.empty())
            << "Sat test for " << atpg::fault_name(nl, f)
            << " not confirmed (trial " << trial << ")";
      } else {
        ++untestable;
        EXPECT_EQ(testable[k], 0)
            << "Unsat for " << atpg::fault_name(nl, f)
            << ", which some sequence detects (trial " << trial << ")";
      }
    }
  }
  // Both verdicts must be common for the oracle to bite.
  EXPECT_GT(detected, 2000);
  EXPECT_GT(untestable, 2000);
  std::printf("[oracle] %d detected, %d untestable\n", detected, untestable);
}

TEST(CnfProperty, ResetRestoresTheFreshEncodingExactly) {
  // After reset() the encoding must behave exactly like a freshly built
  // one: same CNF, same verdicts, same models, same conflict counts.
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const Netlist nl = random_netlist(rng, 4, 20, 3);
    const int frames = 4;
    const std::vector<atpg::Fault> faults =
        atpg::FaultUniverse::collapsed(nl).faults();
    gates::TimeFrameCnf reused(nl, frames);
    std::ostringstream pristine;
    reused.dump_dimacs(pristine);
    for (const atpg::Fault& f : faults) {
      gates::TimeFrameCnf fresh(nl, frames);
      const Lit fresh_act = fresh.add_fault(f.gate, f.stuck_at_one);
      const std::uint64_t fresh_before = fresh.solver().stats().conflicts;
      const Status fresh_st = fresh.solver().solve({fresh_act});

      const Lit act = reused.add_fault(f.gate, f.stuck_at_one);
      ASSERT_EQ(act, fresh_act) << atpg::fault_name(nl, f);
      const std::uint64_t before = reused.solver().stats().conflicts;
      const Status st = reused.solver().solve({act});
      ASSERT_EQ(st, fresh_st) << atpg::fault_name(nl, f);
      EXPECT_EQ(reused.solver().stats().conflicts - before,
                fresh.solver().stats().conflicts - fresh_before)
          << atpg::fault_name(nl, f);
      if (st == Status::Sat) {
        EXPECT_EQ(reused.extract_sequence(), fresh.extract_sequence())
            << atpg::fault_name(nl, f);
      }
      reused.retire_fault(act);
      reused.reset();
    }
    std::ostringstream after;
    reused.dump_dimacs(after);
    EXPECT_EQ(after.str(), pristine.str()) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Backend seam
// ---------------------------------------------------------------------------

TEST(Backend, RegistryListsBothBackendsAndRejectsUnknownNames) {
  Netlist nl;
  nl.add_output(nl.add_input("a"), "o");
  EXPECT_STREQ(atpg::make_backend(atpg::BackendKind::TimeFrame, nl, {})->name(),
               "timeframe");
  EXPECT_STREQ(atpg::make_backend(atpg::BackendKind::Sat, nl, {})->name(),
               "sat");
  atpg::AtpgOptions options;
  options.backend = "no-such-backend";
  EXPECT_THROW((void)atpg::run_atpg(nl, 1, options), hlts::Error);
}

TEST(Backend, SatBackendClassifiesEveryFaultOnASmallSequentialDesign) {
  // Sequential cone with a reset: DFF accumulator XOR-fed from an input.
  Netlist nl;
  const GateId reset = nl.add_input("reset");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId acc = nl.add_dff("acc");
  const GateId x = nl.add_gate(GateKind::Xor, {a, acc});
  const GateId m = nl.add_gate(GateKind::Mux, {reset, x, nl.const0()});
  nl.connect_dff(acc, m);
  const GateId an = nl.add_gate(GateKind::And, {acc, b});
  nl.add_output(an, "out");

  atpg::BackendConfig config;
  config.frames = 3;
  auto backend = atpg::make_backend(atpg::BackendKind::Sat, nl, config);
  atpg::FaultSimulator fsim(nl, /*num_threads=*/1);
  const atpg::FaultUniverse universe = atpg::FaultUniverse::collapsed(nl);
  for (const atpg::Fault& f : universe.faults()) {
    const atpg::BackendResult r = backend->generate(f);
    ASSERT_NE(r.status, atpg::BackendStatus::Aborted)
        << atpg::fault_name(nl, f);
    if (r.status == atpg::BackendStatus::Detected) {
      std::vector<atpg::Fault> remaining{f};
      fsim.drop_detected(r.sequence, remaining);
      EXPECT_TRUE(remaining.empty()) << atpg::fault_name(nl, f);
    }
  }
  const atpg::BackendStats& st = backend->stats();
  EXPECT_EQ(st.targets, universe.size());
  EXPECT_EQ(st.detected + st.untestable, universe.size());
  EXPECT_GT(st.detected, 0u);
  // reset/sa0 keeps the faulty accumulator X forever -> proved untestable.
  EXPECT_GT(st.untestable, 0u);
}

TEST(Backend, DimacsDumpCarriesHeaderVarMapAndAssumption) {
  Netlist nl("dumpme");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate(GateKind::And, {a, b});
  nl.add_output(g, "o");
  gates::TimeFrameCnf cnf(nl, 2);
  const Lit act = cnf.add_fault(g, /*stuck_at_one=*/false);
  std::ostringstream os;
  cnf.dump_dimacs(os, act);
  const std::string text = os.str();
  EXPECT_NE(text.find("c hlts time-frame CNF: netlist=dumpme frames=2"),
            std::string::npos);
  EXPECT_NE(text.find("c assume "), std::string::npos);
  EXPECT_NE(text.find("c v 1 "), std::string::npos);
  EXPECT_NE(text.find("p cnf "), std::string::npos);
  // Var count in the header must match the solver.
  std::istringstream is(text.substr(text.find("p cnf ") + 6));
  int vars = 0;
  is >> vars;
  EXPECT_EQ(vars, cnf.solver().num_vars());
}

TEST(Backend, DumpCnfDirWritesOneDimacsFilePerTarget) {
  Netlist nl("tiny");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate(GateKind::And, {a, b});
  nl.add_output(g, "o");
  atpg::BackendConfig config;
  config.frames = 1;
  config.dump_cnf_dir = testing::TempDir() + "hlts_dump_cnf";
  std::filesystem::create_directories(config.dump_cnf_dir);
  auto backend = atpg::make_backend(atpg::BackendKind::Sat, nl, config);
  (void)backend->generate({g, false});
  // The backend replaces path-hostile characters ('/', '#', ' ') with '_'.
  std::string leaf = "tiny-" + atpg::fault_name(nl, {g, false}) + ".cnf";
  for (char& c : leaf) {
    if (c == '/' || c == '#' || c == ' ') c = '_';
  }
  std::ifstream in(config.dump_cnf_dir + "/" + leaf);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("c hlts time-frame CNF", 0), 0u);
}

// ---------------------------------------------------------------------------
// Backend equivalence matrix over the six benchmarks
// ---------------------------------------------------------------------------

struct BenchDesign {
  gates::Netlist netlist;
  int period = 0;
};

/// Synthesized + elaborated benchmark designs, built once per process (the
/// matrix tests below share them).
const BenchDesign& bench_design(const std::string& name) {
  static std::map<std::string, BenchDesign>* cache =
      new std::map<std::string, BenchDesign>();
  auto it = cache->find(name);
  if (it == cache->end()) {
    const dfg::Dfg g = benchmarks::make_benchmark(name);
    const core::FlowResult flow =
        core::run_flow(core::FlowKind::Ours, g, {.bits = 8});
    const rtl::RtlDesign design =
        rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 8);
    rtl::Elaboration elab = rtl::elaborate(design);
    it = cache
             ->emplace(name,
                       BenchDesign{std::move(elab.netlist),
                                   design.steps() + 1})
             .first;
  }
  return it->second;
}

const char* const kBenchmarks[] = {"ex",  "dct",    "diffeq",
                                   "ewf", "paulin", "tseng"};

bool contains(const std::vector<atpg::Fault>& v, const atpg::Fault& f) {
  return std::find(v.begin(), v.end(), f) != v.end();
}

TEST(BackendEquivalence, HybridCoverageDominatesTimeframeOnEveryBenchmark) {
  std::size_t timeframe_aborted_total = 0;
  std::size_t newly_resolved_total = 0;
  for (const char* name : kBenchmarks) {
    const BenchDesign& d = bench_design(name);
    atpg::AtpgOptions options;
    // A modest per-fault budget keeps the six-benchmark matrix affordable.
    // With the active-path clauses the budgeted SAT search alone already
    // dominates here; the PODEM rescue of its few aborts only adds to it.
    options.sat_conflict_budget = 2000;
    options.backend = "timeframe";
    const atpg::AtpgResult tf =
        atpg::run_atpg(d.netlist, d.period, options);
    options.backend = "hybrid";
    const atpg::AtpgResult hy =
        atpg::run_atpg(d.netlist, d.period, options);

    // The random phases are bit-identical (same seed, same RNG stream), so
    // any difference is the deterministic backend's doing.
    EXPECT_EQ(hy.detected_random, tf.detected_random) << name;
    // The acceptance bar: hybrid (random + SAT) covers at least what the
    // timeframe mode (random + PODEM) covers, per benchmark.
    EXPECT_GE(hy.fault_coverage, tf.fault_coverage) << name;
    EXPECT_GE(hy.fault_efficiency, tf.fault_efficiency) << name;
    // Every SAT candidate is a concrete simulation run by construction;
    // the orchestrator must never see an unconfirmed SAT detection.
    EXPECT_EQ(hy.unconfirmed, 0u) << name;
    EXPECT_EQ(hy.backend, "hybrid") << name;
    EXPECT_EQ(tf.backend, "timeframe") << name;

    // Fault-by-fault: a target the PODEM search aborted is "previously
    // unresolvable"; count how many the SAT backend settles (either a
    // simulator-confirmed detection or an untestability proof).
    timeframe_aborted_total += tf.aborted_faults.size();
    for (const atpg::Fault& f : tf.aborted_faults) {
      const bool now_detected = !contains(hy.undetected, f);
      const bool now_untestable = contains(hy.untestable_faults, f);
      if (now_detected || now_untestable) ++newly_resolved_total;
    }
  }
  // The bounded PODEM search must leave hard sequential faults on the
  // table, and SAT must resolve at least one of them -- the headline
  // improvement this backend exists for.
  EXPECT_GT(timeframe_aborted_total, 0u);
  EXPECT_GT(newly_resolved_total, 0u);
  std::printf("[matrix] timeframe aborted %zu target(s); SAT resolved %zu\n",
              timeframe_aborted_total, newly_resolved_total);
}

TEST(BackendEquivalence, HybridSatAbortsStayRare) {
  // The active-path clauses let the budgeted CDCL settle nearly every
  // target itself; a target it aborts goes to the PODEM rescue.  Without
  // them tseng alone aborts about 95 targets at this setting, so the bound
  // catches a lost or weakened path constraint.
  std::size_t aborted_total = 0;
  for (const char* name : kBenchmarks) {
    const BenchDesign& d = bench_design(name);
    atpg::AtpgOptions options;
    options.backend = "hybrid";
    options.sat_conflict_budget = 2000;
    const atpg::AtpgResult hy = atpg::run_atpg(d.netlist, d.period, options);
    std::printf("[aborts] %-6s %zu SAT-aborted of %zu targets\n", name,
                hy.backend_stats.aborted, hy.backend_stats.targets);
    aborted_total += hy.backend_stats.aborted;
  }
  EXPECT_LE(aborted_total, 20u);
}

TEST(BackendEquivalence, DetectedSetsBitIdenticalAcrossWidthsAndThreads) {
  // The hybrid test set re-simulated at every thread count must detect the
  // *same* fault set -- the fault simulator's bit-identity contract
  // extended over SAT-generated sequences.
  for (const char* name : kBenchmarks) {
    const BenchDesign& d = bench_design(name);
    atpg::AtpgOptions options;
    options.backend = "hybrid";
    // Bit-identity across threads is independent of search effort;
    // a small budget keeps this six-benchmark sweep fast.
    options.sat_conflict_budget = 400;
    const atpg::AtpgResult hy =
        atpg::run_atpg(d.netlist, d.period, options);
    const atpg::FaultUniverse universe =
        atpg::FaultUniverse::collapsed(d.netlist);
    const std::vector<atpg::Fault>& faults = universe.faults();

    auto detected_set = [&](int threads) {
      atpg::FaultSimulator fsim(d.netlist, threads);
      std::set<std::size_t> out;
      for (const atpg::TestSequence& seq : hy.test_set) {
        for (std::size_t idx : fsim.detected_by(seq, faults)) out.insert(idx);
      }
      return out;
    };
    const std::set<std::size_t> reference = detected_set(1);
    EXPECT_EQ(reference.size(), hy.detected()) << name;
    EXPECT_EQ(detected_set(4), reference) << name << " threads=4";
  }
}

TEST(BackendEquivalence, HybridIsDeterministicAcrossRuns) {
  const BenchDesign& d = bench_design("ex");
  atpg::AtpgOptions options;
  options.backend = "hybrid";
  options.sat_conflict_budget = 2000;
  const atpg::AtpgResult a = atpg::run_atpg(d.netlist, d.period, options);
  const atpg::AtpgResult b = atpg::run_atpg(d.netlist, d.period, options);
  EXPECT_EQ(a.test_set, b.test_set);
  EXPECT_EQ(a.fault_coverage, b.fault_coverage);
  EXPECT_EQ(a.untestable_proved, b.untestable_proved);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.backend_stats.sat_conflicts, b.backend_stats.sat_conflicts);
}

// ---------------------------------------------------------------------------
// CdclDifferential: the production solver against the frozen copy
// ---------------------------------------------------------------------------

using test_support::ReferenceSolver;

std::string stats_text(const util::cdcl::Stats& s) {
  std::ostringstream os;
  os << "conflicts " << s.conflicts << " decisions " << s.decisions
     << " propagations " << s.propagations << " restarts " << s.restarts
     << " learned " << s.learned << " learned_literals " << s.learned_literals
     << " minimized_literals " << s.minimized_literals;
  return os.str();
}

/// The production solver and the frozen copy, driven by the same calls.
/// Every solve() compares everything a caller can observe; `mismatches`
/// counts the solves that differed.
struct SolverPair {
  Solver got;
  ReferenceSolver want;
  int mismatches = 0;

  Var new_var() {
    const Var v = got.new_var();
    EXPECT_EQ(want.new_var(), v);
    return v;
  }
  void add_clause(std::span<const Lit> lits) {
    const bool ok = got.add_clause(lits);
    EXPECT_EQ(want.add_clause(lits), ok);
  }
  void add_clause(Lit a) { add_clause(std::span<const Lit>(&a, 1)); }
  void mark_baseline() {
    got.mark_baseline();
    want.mark_baseline();
  }
  void restore_baseline() {
    got.restore_baseline();
    want.restore_baseline();
  }

  Status solve(const std::vector<Lit>& assumptions, std::int64_t budget,
               const std::string& what) {
    const Status st = got.solve(assumptions, budget);
    const Status ref = want.solve(assumptions, budget);
    bool same = st == ref && got.stats() == want.stats() &&
                got.failed_assumptions() == want.failed_assumptions() &&
                got.num_vars() == want.num_vars() &&
                got.num_clauses() == want.num_clauses() &&
                got.inconsistent() == want.inconsistent() &&
                got.root_literals() == want.root_literals();
    EXPECT_EQ(st, ref) << what;
    EXPECT_EQ(stats_text(got.stats()), stats_text(want.stats())) << what;
    EXPECT_TRUE(got.failed_assumptions() == want.failed_assumptions()) << what;
    EXPECT_TRUE(got.root_literals() == want.root_literals()) << what;
    EXPECT_EQ(got.num_clauses(), want.num_clauses()) << what;
    EXPECT_EQ(got.inconsistent(), want.inconsistent()) << what;
    if (same && st == Status::Sat) {
      for (Var v = 0; v < got.num_vars(); ++v) {
        if (got.value(v) != want.value(v)) {
          ADD_FAILURE() << what << ": model differs at variable " << v;
          same = false;
          break;
        }
      }
    }
    if (!same) ++mismatches;
    return st;
  }
};

struct VerdictTally {
  int sat = 0, unsat = 0, unknown = 0;
  void add(Status s) {
    if (s == Status::Sat) ++sat;
    if (s == Status::Unsat) ++unsat;
    if (s == Status::Unknown) ++unknown;
  }
};

TEST(CdclDifferential, RandomCnfsWithAssumptionsBudgetsAndBaselines) {
  // Random 3-CNFs around the satisfiability threshold, a baseline after
  // the base formula, then rounds of extra variables and clauses (some
  // units, binaries and 5-clauses among them), solves under random
  // assumptions and budgets, and baseline restores.
  Rng rng(0xCDC1);
  VerdictTally tally;
  int with_core = 0;
  const auto random_lit = [&rng](int vars) {
    return mk_lit(static_cast<Var>(rng.next_below(static_cast<std::uint64_t>(
                      vars))),
                  rng.next_bool());
  };
  const auto random_clause = [&](SolverPair& s, bool mixed) {
    const std::uint64_t r = mixed ? rng.next_below(40) : 10;
    const std::size_t len = r == 0 ? 1 : r < 4 ? 2 : r < 34 ? 3 : 5;
    std::vector<Lit> c;
    for (std::size_t i = 0; i < len; ++i) {
      c.push_back(random_lit(s.got.num_vars()));
    }
    s.add_clause(c);
  };
  for (int trial = 0; trial < 120; ++trial) {
    SolverPair s;
    const int vars = 40 + static_cast<int>(rng.next_below(120));
    for (int i = 0; i < vars; ++i) s.new_var();
    const int clauses = vars * (38 + static_cast<int>(rng.next_below(9))) / 10;
    for (int i = 0; i < clauses; ++i) random_clause(s, false);
    s.mark_baseline();
    for (int round = 0; round < 4; ++round) {
      if (round > 0) {
        const int extra = static_cast<int>(rng.next_below(12));
        for (int i = 0; i < extra; ++i) s.new_var();
        for (int i = 0; i < 2 * extra; ++i) random_clause(s, true);
      }
      for (int q = 0; q < 3; ++q) {
        std::vector<Lit> assumptions;
        const auto n = rng.next_below(5);
        for (std::uint64_t i = 0; i < n; ++i) {
          assumptions.push_back(random_lit(s.got.num_vars()));
        }
        const std::int64_t budgets[] = {0, 8, 60};
        const std::int64_t budget = budgets[rng.next_below(3)];
        const Status st = s.solve(
            assumptions, budget,
            "trial " + std::to_string(trial) + " round " +
                std::to_string(round) + " solve " + std::to_string(q));
        ASSERT_EQ(s.mismatches, 0);
        tally.add(st);
        if (!s.got.failed_assumptions().empty()) ++with_core;
      }
      if (rng.next_bool()) s.restore_baseline();
    }
  }
  // Every verdict and a nonempty assumption core must occur, or the
  // comparison would not bite.
  std::printf("[random-cnf] sat %d unsat %d unknown %d cores %d\n",
              tally.sat, tally.unsat, tally.unknown, with_core);
  EXPECT_GT(tally.sat, 100);
  EXPECT_GT(tally.unsat, 100);
  EXPECT_GT(tally.unknown, 50);
  EXPECT_GT(with_core, 50);
}

/// Replays run_atpg's deterministic SAT walk ("hybrid" or "sat") on one
/// design.  The walk itself runs exactly as in run_atpg and SatBackend::
/// generate: the same targets in the same order, the same encoder, solver
/// calls, resets and PODEM rescues, checked against run_atpg at the end.
/// Beside it, each target's solver input -- the variables, problem
/// clauses and root units its encoding added -- goes to a production
/// solver and to the frozen copy, which then solve it under the same
/// activation literal and budget and must agree on everything.  (From
/// outside, a solver shows which clauses and units an encoding added but
/// not how the units interleaved with the clauses, so the pair's stream
/// is the walk's up to that order; both members get the same one.)
VerdictTally replay_sat_targets(const gates::Netlist& nl, int period,
                                const std::string& mode,
                                const std::string& where) {
  constexpr std::int64_t kBudget = 2000;
  atpg::AtpgOptions options;
  options.backend = mode;
  options.seed = 1;
  options.sat_conflict_budget = kBudget;
  std::vector<atpg::Fault> worklist;
  if (mode == "hybrid") {
    atpg::AtpgOptions random_only = options;
    random_only.deterministic_phase = false;
    random_only.compact = false;
    worklist = atpg::run_atpg(nl, period, random_only).undetected;
  } else {
    worklist = atpg::FaultUniverse::collapsed(nl).faults();
  }
  int reset_index = -1;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (nl.gate(nl.inputs()[i]).name == "reset") {
      reset_index = static_cast<int>(i);
    }
  }

  gates::TimeFrameCnf cnf(nl, 2 * period, reset_index);
  Solver& walk = cnf.solver();
  const std::size_t base_clauses = walk.num_clauses();
  SolverPair pair;
  // Feeds the pair what the encoder added since the given sizes.
  const auto feed = [&](int vars, std::size_t clauses, std::size_t units) {
    for (int v = vars; v < walk.num_vars(); ++v) pair.new_var();
    std::size_t index = 0;
    walk.for_each_problem_clause([&](const int* codes, int size) {
      if (index++ < clauses) return;
      std::vector<Lit> c(static_cast<std::size_t>(size));
      for (int i = 0; i < size; ++i) {
        c[static_cast<std::size_t>(i)].x = codes[i];
      }
      pair.add_clause(c);
    });
    for (std::size_t i = units; i < walk.root_literals().size(); ++i) {
      pair.add_clause(walk.root_literals()[i]);
    }
  };
  feed(0, 0, 0);
  pair.mark_baseline();
  EXPECT_EQ(pair.got.num_clauses(), base_clauses) << where;
  EXPECT_TRUE(pair.got.root_literals() == walk.root_literals()) << where;

  std::unique_ptr<atpg::DeterministicBackend> rescue;
  if (mode == "hybrid") {
    atpg::BackendConfig config;
    config.backtrack_limit = options.podem_backtrack_limit;
    config.frames = 2 * period;
    rescue = atpg::make_backend(atpg::BackendKind::TimeFrame, nl, config);
  }
  atpg::FaultSimulator fsim(nl);
  std::vector<atpg::Fault> remaining = worklist;
  VerdictTally tally;
  std::size_t targets = 0;
  for (const atpg::Fault& target : worklist) {
    if (static_cast<int>(targets) >= options.podem_max_targets) break;
    if (!contains(remaining, target)) continue;
    ++targets;
    if (walk.num_clauses() > 2 * base_clauses) {
      cnf.reset();
      pair.restore_baseline();
    }
    const int vars = walk.num_vars();
    const std::size_t clauses = walk.num_clauses();
    const std::size_t units = walk.root_literals().size();
    const Lit act = cnf.add_fault(target.gate, target.stuck_at_one);
    feed(vars, clauses, units);
    const std::string what =
        where + " " + mode + " " + atpg::fault_name(nl, target);
    tally.add(pair.solve({act}, kBudget, what));
    if (pair.mismatches > 0) return tally;
    pair.add_clause(~act);

    const Status st = walk.solve({act}, kBudget);
    atpg::TestSequence sequence;
    bool detected = st == Status::Sat;
    if (detected) sequence = cnf.extract_sequence();
    cnf.retire_fault(act);
    if (st == Status::Unknown && rescue) {
      atpg::BackendResult r = rescue->generate(target);
      detected = r.status == atpg::BackendStatus::Detected;
      sequence = std::move(r.sequence);
    }
    if (detected) fsim.drop_detected(sequence, remaining);
  }
  // The walk is run_atpg's own: as many targets, the same faults left
  // undetected, the same solver effort.
  const atpg::AtpgResult full = atpg::run_atpg(nl, period, options);
  EXPECT_EQ(full.backend_stats.targets, targets) << where << " " << mode;
  EXPECT_TRUE(full.undetected == remaining) << where << " " << mode;
  EXPECT_EQ(full.backend_stats.sat_conflicts, walk.stats().conflicts)
      << where << " " << mode;
  EXPECT_EQ(full.backend_stats.sat_decisions, walk.stats().decisions)
      << where << " " << mode;
  return tally;
}

class PaperSatTargets : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperSatTargets, MatchFrozenSolver) {
  const dfg::Dfg g = benchmarks::make_benchmark(GetParam());
  VerdictTally total;
  for (const core::FlowKind kind :
       {core::FlowKind::Camad, core::FlowKind::Approach1,
        core::FlowKind::Approach2, core::FlowKind::Ours}) {
    const core::FlowResult flow =
        core::run_flow(kind, g, {.bits = 4, .num_threads = 1});
    const rtl::RtlDesign design =
        rtl::RtlDesign::from_synthesis(g, flow.schedule, flow.binding, 4);
    const rtl::Elaboration elab = rtl::elaborate(design);
    const std::string where =
        std::string(GetParam()) + "/" + core::flow_name(kind);
    for (const char* mode : {"hybrid", "sat"}) {
      const VerdictTally t =
          replay_sat_targets(elab.netlist, design.steps() + 1, mode, where);
      total.sat += t.sat;
      total.unsat += t.unsat;
      total.unknown += t.unknown;
      ASSERT_FALSE(HasFailure()) << where << " " << mode;
    }
  }
  // Both verdicts occur on every benchmark, so each comparison bites.
  EXPECT_GT(total.sat, 0);
  EXPECT_GT(total.unsat, 0);
  std::printf("[sat-targets] %s sat %d unsat %d unknown %d\n", GetParam(),
              total.sat, total.unsat, total.unknown);
}

INSTANTIATE_TEST_SUITE_P(
    CdclDifferential, PaperSatTargets,
    ::testing::Values("ex", "dct", "diffeq", "paulin", "tseng"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

/// Adds the underflow instance: `idle` variables no conflict will touch
/// (indices 0..idle-1), a random 3-CNF over `side` variables after them,
/// then an activation literal and a pigeonhole core PHP(9, 8) guarded by
/// it.  Solving under the activation literal settles the side formula
/// within a few conflicts and then spends tens of thousands refuting the
/// core, so the side variables' activities decay through several rescales
/// to 0.0.  Returns the activation literal.
template <typename S>
Lit add_underflow_instance(S& s, std::uint64_t seed, int idle, int side) {
  constexpr int kPigeons = 9;
  Rng rng(seed);
  for (int i = 0; i < idle + side; ++i) s.new_var();
  for (int c = 0; c < side * 41 / 10; ++c) {
    Lit l[3];
    for (Lit& x : l) {
      x = mk_lit(idle + static_cast<Var>(rng.next_below(
                            static_cast<std::uint64_t>(side))),
                 rng.next_bool());
    }
    s.add_clause(std::span<const Lit>(l));
  }
  const Lit act = mk_lit(s.new_var());
  std::vector<std::vector<Var>> p(kPigeons, std::vector<Var>(kPigeons - 1));
  for (auto& row : p)
    for (Var& v : row) v = s.new_var();
  for (int i = 0; i < kPigeons; ++i) {
    std::vector<Lit> some{~act};
    for (const Var v : p[static_cast<std::size_t>(i)]) some.push_back(mk_lit(v));
    s.add_clause(std::span<const Lit>(some));
  }
  for (int h = 0; h < kPigeons - 1; ++h) {
    for (int i = 0; i < kPigeons; ++i) {
      for (int j = i + 1; j < kPigeons; ++j) {
        const Lit c[] = {~act, mk_lit(p[static_cast<std::size_t>(i)]
                                       [static_cast<std::size_t>(h)], true),
                         mk_lit(p[static_cast<std::size_t>(j)]
                                 [static_cast<std::size_t>(h)], true)};
        s.add_clause(std::span<const Lit>(c));
      }
    }
  }
  return act;
}

/// Ties idle variable i to side variable i (mod side) by an XOR, so the
/// order in which the two tiers hand out those zero-activity variables
/// decides the model.
template <typename S>
void tie_idle_to_side(S& s, int idle, int side) {
  for (int i = 0; i < idle; ++i) {
    const Var e = idle + i % side;
    const Lit a[] = {mk_lit(i), mk_lit(e)};
    const Lit b[] = {mk_lit(i, true), mk_lit(e, true)};
    s.add_clause(std::span<const Lit>(a));
    s.add_clause(std::span<const Lit>(b));
  }
}

TEST(CdclDifferential, UnsatCoreRescalesUntilActivitiesUnderflow) {
  constexpr int kIdle = 20;
  constexpr int kSide = 40;
  SolverPair s;
  const Lit act = add_underflow_instance(s, 3, kIdle, kSide);
  EXPECT_EQ(s.solve({act}, 0, "core"), Status::Unsat);
  ASSERT_EQ(s.mismatches, 0);
  // At least four rescales, and some positive activity fell to 0.0: the
  // bitset tier got variables back from the heap.
  EXPECT_GE(s.want.rescales(), 4u);
  EXPECT_GE(s.want.underflows(), 1u);
  std::printf("[underflow] %llu conflicts, %llu rescales, %llu underflows\n",
              static_cast<unsigned long long>(s.want.stats().conflicts),
              static_cast<unsigned long long>(s.want.rescales()),
              static_cast<unsigned long long>(s.want.underflows()));
  // With the core switched off the search reaches the zero-activity
  // variables -- the idle ones and the underflowed side ones -- and their
  // order decides the model.
  tie_idle_to_side(s, kIdle, kSide);
  EXPECT_EQ(s.solve({~act}, 0, "after the core"), Status::Sat);
  // Unassumed, the core is back in play under a budget.
  (void)s.solve({}, 500, "budgeted");
  // The comparison means something only while the frozen heap kept its
  // own order (see FrozenHeapCanLeaveItsOrderAfterAnUnderflow).
  EXPECT_EQ(s.want.out_of_order_picks(), 0u);
  EXPECT_EQ(s.mismatches, 0);
}

TEST(CdclDifferential, FrozenHeapCanLeaveItsOrderAfterAnUnderflow) {
  // Scaling keeps the heap's order while activities stay distinct, but an
  // underflow makes several of them 0.0 in place: a former positive
  // variable can then sit above a zero-activity variable of a smaller
  // index, and the frozen heap pops it first.  The two tiers give the
  // documented order instead (every 0.0 in index order), so the solvers
  // part there; the frozen heap makes one such decision on this instance.
  // The paper designs' SAT targets never get there (PaperSatTargets match
  // in full).
  constexpr int kIdle = 20;
  constexpr int kSide = 40;
  ReferenceSolver s;
  const Lit act = add_underflow_instance(s, 7, kIdle, kSide);
  EXPECT_EQ(s.solve({act}), Status::Unsat);
  EXPECT_GE(s.underflows(), 1u);
  tie_idle_to_side(s, kIdle, kSide);
  EXPECT_EQ(s.solve({~act}), Status::Sat);
  EXPECT_GT(s.out_of_order_picks(), 0u);
}

}  // namespace
}  // namespace hlts
