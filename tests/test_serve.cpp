// Serving-layer tests (`ctest -L serve`): the lattice algebra behind the
// cluster health view, deterministic shard routing, wire-protocol framing
// and tag correlation (including adversarial bytes), the versioned api DTO
// round-trips with forward-compatibility guarantees, the env-knob registry
// (value round-trip and README-table audit), and the fork-based
// supervisor/failover soak -- a real Server with forked shard workers, a
// SIGKILLed worker mid-load, and the assertion that every job still gets
// exactly one result bit-identical to a serial core::run_flow.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flows.hpp"
#include "serve/client.hpp"
#include "serve/health.hpp"
#include "serve/protocol.hpp"
#include "serve/router.hpp"
#include "serve/supervisor.hpp"
#include "serve/worker.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/knobs.hpp"
#include "util/lattice.hpp"
#include "util/socket.hpp"

namespace hlts {
namespace {

core::FlowParams paper_params() {
  core::FlowParams p;
  p.k = 5;
  p.alpha = 2;
  p.beta = 1;
  p.num_threads = 1;
  return p;
}

// ---------------------------------------------------------------------------
// Lattice algebra.  The cluster view's correctness rests on merge being
// associative, commutative and idempotent; exercise each law directly.

TEST(Lattice, BoolJoinIsOrAndIdempotent) {
  util::BoolLattice a;
  EXPECT_FALSE(a.reveal());  // bottom
  a.merge(false);
  EXPECT_FALSE(a.reveal());
  a.merge(true);
  EXPECT_TRUE(a.reveal());
  a.merge(false);  // monotone: can never move back down
  EXPECT_TRUE(a.reveal());
  a.merge(true);  // idempotent
  EXPECT_TRUE(a.reveal());
}

TEST(Lattice, MaxJoinLawsHoldOverPermutations) {
  const std::vector<std::int64_t> values = {3, 7, 7, 1, 5, 7, 2};
  // Any delivery order, with any duplication, converges to the same join.
  for (std::size_t start = 0; start < values.size(); ++start) {
    util::MaxLattice<std::int64_t> m{0};
    for (std::size_t i = 0; i < values.size(); ++i) {
      m.merge(values[(start + i) % values.size()]);
    }
    m.merge(values[start]);  // replay a stale element
    EXPECT_EQ(m.reveal(), 7);
  }
}

TEST(Lattice, MinJoinBottomIsMax) {
  util::MinLattice<int> m;
  EXPECT_EQ(m.reveal(), std::numeric_limits<int>::max());
  m.merge(9);
  m.merge(12);
  m.merge(9);
  EXPECT_EQ(m.reveal(), 9);
}

TEST(Lattice, MergeInEqualsElementwiseMerge) {
  util::MaxLattice<int> a{4};
  util::MaxLattice<int> b{6};
  a.merge_in(b);
  EXPECT_EQ(a.reveal(), 6);
  b.merge_in(a);  // commutes: both sides converge
  EXPECT_EQ(b.reveal(), 6);
}

TEST(Lattice, MapLatticeSumIsIdempotentUnderRedelivery) {
  util::ShardCounterLattice counters;
  counters.merge_at(0, std::uint64_t{10});
  counters.merge_at(1, std::uint64_t{5});
  counters.merge_at(0, std::uint64_t{12});  // shard 0 advanced
  EXPECT_EQ(counters.sum(), 17u);
  // Re-delivering every stale snapshot changes nothing: this is the exact
  // property that lets the supervisor fold health frames without dedup.
  counters.merge_at(0, std::uint64_t{10});
  counters.merge_at(1, std::uint64_t{5});
  EXPECT_EQ(counters.sum(), 17u);

  util::ShardCounterLattice replica;
  replica.merge_at(1, std::uint64_t{6});
  counters.merge_in(replica);  // pointwise join across replicas
  EXPECT_EQ(counters.sum(), 18u);
}

TEST(Lattice, ShardCountersFoldHealthSnapshotsCommutatively) {
  api::HealthV1 early;
  early.shard = 2;
  early.submitted = 4;
  early.recovered = 0;
  early.journaling = false;
  api::HealthV1 late = early;
  late.submitted = 9;
  late.recovered = 2;
  late.journaling = true;

  serve::ShardCounters fwd;
  fwd.merge(early);
  fwd.merge(late);
  serve::ShardCounters rev;
  rev.merge(late);
  rev.merge(early);  // stale after fresh: must not regress
  for (const serve::ShardCounters* c : {&fwd, &rev}) {
    EXPECT_EQ(c->submitted.reveal(), 9);
    EXPECT_EQ(c->recovered.reveal(), 2);
    EXPECT_TRUE(c->journaling.reveal());
  }
}

TEST(Lattice, ClusterViewTotalsSurviveSnapshotReplay) {
  serve::ClusterView view;
  api::HealthV1 s0;
  s0.shard = 0;
  s0.submitted = 7;
  s0.queue_depth = 3;
  api::HealthV1 s1;
  s1.shard = 1;
  s1.submitted = 5;
  s1.queue_depth = 1;
  view.observe(s0);
  view.observe(s1);
  view.observe(s0);  // replayed frame
  const util::JsonValue doc = view.to_json({{0, true}, {1, true}});
  const util::JsonValue* cluster = doc.find("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->get_int("submitted"), 12);
  EXPECT_EQ(cluster->get_int("queue_depth"), 4);
  EXPECT_EQ(cluster->get_int("live_shards"), 2);
  ASSERT_NE(doc.find("shards"), nullptr);
  EXPECT_EQ(doc.find("shards")->as_array().size(), 2u);
}

// ---------------------------------------------------------------------------
// Shard routing.

TEST(ShardRouter, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors: the hash is part of the wire contract
  // (the same name must route identically on every platform).
  EXPECT_EQ(serve::fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(serve::fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(serve::fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(ShardRouter, RouteIsDeterministicAndLandsOnLiveShards) {
  serve::ShardRouter router(4);
  serve::ShardRouter twin(4);
  for (int i = 0; i < 64; ++i) {
    const std::string name = "job-" + std::to_string(i);
    const int shard = router.route(name);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
    EXPECT_EQ(shard, twin.route(name)) << name;
    EXPECT_EQ(shard, router.route(name)) << "route must be stateless";
  }
}

TEST(ShardRouter, DeadShardsLeaveTheCandidateSet) {
  serve::ShardRouter router(3);
  router.mark_dead(1);
  EXPECT_EQ(router.live_count(), 2);
  for (int i = 0; i < 64; ++i) {
    const int shard = router.route("job-" + std::to_string(i));
    EXPECT_TRUE(shard == 0 || shard == 2);
  }
  router.mark_dead(0);
  router.mark_dead(2);
  EXPECT_EQ(router.live_count(), 0);
  EXPECT_EQ(router.route("anything"), -1);
}

TEST(ShardRouter, PeerOfWalksTheRingOverLiveShards) {
  serve::ShardRouter router(4);
  EXPECT_EQ(router.peer_of(1), 2);
  EXPECT_EQ(router.peer_of(3), 0);  // wraps
  router.mark_dead(2);
  EXPECT_EQ(router.peer_of(1), 3);  // skips the dead shard
  router.mark_dead(3);
  router.mark_dead(0);
  router.mark_dead(1);
  EXPECT_EQ(router.peer_of(1), -1);  // nobody left
}

// ---------------------------------------------------------------------------
// Wire protocol: tag embedding and frame shapes, including garbage input.

TEST(Protocol, EmbedSplitTagRoundTrips) {
  const std::string tagged = serve::proto::embed_tag(42, "dct/ours");
  EXPECT_EQ(tagged, "t42|dct/ours");
  const auto split = serve::proto::split_tag(tagged);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->tag, 42u);
  EXPECT_EQ(split->name, "dct/ours");
}

TEST(Protocol, SplitTagKeepsPipesInClientNames) {
  // A client name may itself contain '|' (or even look tagged): only the
  // first prefix is the supervisor's.
  const auto split = serve::proto::split_tag(serve::proto::embed_tag(7, "a|b"));
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->name, "a|b");
  const auto nested =
      serve::proto::split_tag(serve::proto::embed_tag(1, "t99|x"));
  ASSERT_TRUE(nested.has_value());
  EXPECT_EQ(nested->tag, 1u);
  EXPECT_EQ(nested->name, "t99|x");
}

TEST(Protocol, SplitTagRejectsGarbage) {
  for (const char* bad : {"", "plain-name", "t|missing-digits", "tx9|y",
                          "t12", "12|no-t-prefix", "|", "t-3|negative"}) {
    EXPECT_FALSE(serve::proto::split_tag(bad).has_value()) << bad;
  }
}

TEST(Protocol, FramesAreParseableNdjsonWithExpectedFields) {
  const std::string line = serve::proto::health_line(9);
  ASSERT_EQ(line.back(), '\n');
  const auto doc = util::json_parse(line.substr(0, line.size() - 1));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_string("op"), "health");
  EXPECT_EQ(doc->get_int("tag"), 9);

  const std::string adopted = serve::proto::adopted_frame(3, {5, 6});
  const auto adoc = util::json_parse(adopted.substr(0, adopted.size() - 1));
  ASSERT_TRUE(adoc.has_value());
  EXPECT_EQ(adoc->get_string("kind"), "adopted");
  ASSERT_NE(adoc->find("tags"), nullptr);
  EXPECT_EQ(adoc->find("tags")->as_array().size(), 2u);

  const std::string err = serve::proto::error_line("boom \"quoted\"");
  const auto edoc = util::json_parse(err.substr(0, err.size() - 1));
  ASSERT_TRUE(edoc.has_value());
  EXPECT_FALSE(edoc->get_bool("ok", true));
  EXPECT_EQ(edoc->get_string("error"), "boom \"quoted\"");
}

// ---------------------------------------------------------------------------
// Versioned DTOs: round-trips, forward compatibility, strictness.

util::JsonValue with_extra_member(const util::JsonValue& doc) {
  util::JsonValue::Object obj = doc.as_object();
  obj.emplace_back("an_unknown_future_field", util::JsonValue::make_int(42));
  obj.emplace_back("another", util::JsonValue::make_string("ignored"));
  return util::JsonValue::make_object(std::move(obj));
}

TEST(ApiDto, FlowRequestRoundTripsThroughJson) {
  api::FlowRequestV1 req;
  req.name = "ex/ours";
  req.kind = core::FlowKind::Ours;
  req.dfg = benchmarks::make_benchmark("ex");
  req.params = paper_params();
  req.timeout_ms = 1500;
  const api::FlowRequestV1 back = api::FlowRequestV1::from_json(req.to_json());
  EXPECT_EQ(back.schema_version, api::kSchemaVersion);
  EXPECT_EQ(back.name, req.name);
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.timeout_ms, 1500);
  ASSERT_TRUE(back.dfg.has_value());
  EXPECT_EQ(back.dfg->num_ops(), req.dfg->num_ops());
  EXPECT_EQ(back.params.k, req.params.k);
}

TEST(ApiDto, FlowResultRoundTripPreservesEveryContractField) {
  const dfg::Dfg g = benchmarks::make_benchmark("ex");
  const core::FlowResult r =
      core::run_flow(core::FlowKind::Ours, g, paper_params());
  api::FlowResultV1 dto = api::FlowResultV1::from_result("ex/ours", r);
  dto.state = "succeeded";  // from_result leaves the engine-owned state empty
  const api::FlowResultV1 back = api::FlowResultV1::from_json(dto.to_json());
  EXPECT_TRUE(dto.design_identical(back));
  EXPECT_EQ(back.name, "ex/ours");
  EXPECT_TRUE(back.has_design);
  EXPECT_EQ(back.iterations, dto.iterations);
  // And the comparison has teeth: perturb one schedule step.
  api::FlowResultV1 tampered = back;
  ASSERT_FALSE(tampered.schedule_steps.empty());
  tampered.schedule_steps[0] += 1;
  EXPECT_FALSE(dto.design_identical(tampered));
}

TEST(ApiDto, UnknownFieldsAreIgnoredForForwardCompatibility) {
  api::FlowRequestV1 req;
  req.name = "fc";
  req.dfg = benchmarks::make_benchmark("ex");
  req.params = paper_params();
  const api::FlowRequestV1 back =
      api::FlowRequestV1::from_json(with_extra_member(req.to_json()));
  EXPECT_EQ(back.name, "fc");

  api::HealthV1 h;
  h.shard = 3;
  h.submitted = 11;
  const api::HealthV1 hback = api::HealthV1::from_json(with_extra_member(h.to_json()));
  EXPECT_EQ(hback.shard, 3);
  EXPECT_EQ(hback.submitted, 11);
}

TEST(ApiDto, NewerSchemaVersionIsAcceptedOlderIsNot) {
  api::HealthV1 h;
  h.shard = 1;
  util::JsonValue::Object obj = h.to_json().as_object();
  for (auto& [key, value] : obj) {
    if (key == "schema_version") value = util::JsonValue::make_int(2);
  }
  const api::HealthV1 newer =
      api::HealthV1::from_json(util::JsonValue::make_object(obj));
  EXPECT_EQ(newer.shard, 1);

  for (auto& [key, value] : obj) {
    if (key == "schema_version") value = util::JsonValue::make_int(0);
  }
  EXPECT_THROW(
      (void)api::HealthV1::from_json(util::JsonValue::make_object(obj)),
      Error);
}

TEST(ApiDto, MalformedDocumentsThrowInputErrors) {
  EXPECT_THROW((void)api::FlowRequestV1::from_json(util::JsonValue::make_int(4)),
               Error);
  // A request must carry exactly one of dfg / source.
  util::JsonValue::Object obj;
  obj.emplace_back("schema_version", util::JsonValue::make_int(1));
  obj.emplace_back("name", util::JsonValue::make_string("x"));
  obj.emplace_back("kind", util::JsonValue::make_string("ours"));
  EXPECT_THROW((void)api::FlowRequestV1::from_json(
                   util::JsonValue::make_object(obj)),
               Error);
  EXPECT_THROW((void)api::flow_from_token("no-such-flow"), Error);
}

// ---------------------------------------------------------------------------
// Env-knob registry.

/// RAII environment override for knob tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(Knobs, ServeOptionsRoundTripThroughRegistryAndJson) {
  ScopedEnv shards("HLTS_SERVE_SHARDS", "7");
  ScopedEnv bytes("HLTS_SERVE_MAX_REQUEST_BYTES", "1024");
  const serve::ServerOptions opts = serve::ServerOptions::from_env({});
  EXPECT_EQ(opts.shards, 7);
  EXPECT_EQ(opts.max_request_bytes, 1024u);

  // The registry snapshot must agree with what the options consumed.
  const util::JsonValue snap = util::knobs::to_json();
  const util::JsonValue* knobs = snap.find("knobs");
  ASSERT_NE(knobs, nullptr);
  bool seen = false;
  for (const util::JsonValue& entry : knobs->as_array()) {
    if (entry.get_string("name") != "HLTS_SERVE_SHARDS") continue;
    seen = true;
    EXPECT_EQ(entry.get_string("value"), "7");
    EXPECT_EQ(entry.get_string("kind"), "int");
  }
  EXPECT_TRUE(seen);
}

TEST(Knobs, MalformedServeKnobIsAConfigurationError) {
  ScopedEnv bad("HLTS_SERVE_SHARDS", "a-few");
  EXPECT_THROW((void)serve::ServerOptions::from_env({}), Error);
}

TEST(Knobs, ReadmeKnobTableMatchesRegistry) {
  // Every registered knob must have a row in README's `HLTS_*` table and
  // vice versa: the registry is the source of truth, the README is the
  // audited mirror.
  std::ifstream readme(std::string(HLTS_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(readme.is_open());
  std::set<std::string> documented;
  std::string line;
  while (std::getline(readme, line)) {
    if (line.rfind("| `HLTS_", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    documented.insert(line.substr(3, end - 3));
  }
  std::set<std::string> registered;
  for (const util::knobs::Knob& k : util::knobs::registry()) {
    registered.insert(k.name);
  }
  EXPECT_EQ(documented, registered);
}

// ---------------------------------------------------------------------------
// The live server: fork-based supervisor + shard workers, driven over TCP.

/// Fresh scratch tree under TMPDIR, recursively removed on scope exit (the
/// server populates shard-<k>/ journal subdirectories inside it).
struct TempRoot {
  std::string path;
  TempRoot() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/hlts_serve_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : tmpl;
  }
  ~TempRoot() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

class ServeFixture : public ::testing::Test {
 protected:
  /// Builds a server rooted in a fresh temp journal dir and drives run() on
  /// a fixture thread.  Must be called before any other thread exists in
  /// the test process (the ctor forks).  The fixture owns the server: the
  /// run() thread is joined *before* the Server is destroyed (destroying a
  /// Server concurrently with run() is undefined, as for any object).
  serve::Server& make_server(int shards,
                             std::size_t max_request_bytes = 4u << 20) {
    serve::ServerOptions opts;
    opts.shards = shards;
    opts.port = 0;
    opts.max_request_bytes = max_request_bytes;
    opts.journal_root = root_.path;
    server_ = std::make_unique<serve::Server>(std::move(opts));
    runner_ = std::thread([s = server_.get()] { s->run(); });
    return *server_;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();  // no-op after orderly shutdown
    if (runner_.joinable()) runner_.join();
    server_.reset();
  }

  TempRoot root_;
  std::unique_ptr<serve::Server> server_;
  std::thread runner_;
};

api::FlowRequestV1 make_request(const std::string& name,
                                const std::string& bench,
                                core::FlowKind kind) {
  api::FlowRequestV1 req;
  req.name = name;
  req.kind = kind;
  req.dfg = benchmarks::make_benchmark(bench);
  req.params = paper_params();
  return req;
}

TEST_F(ServeFixture, SubmitReturnsBitIdenticalResults) {
  serve::Server& server = make_server(2);
  serve::Client client(server.port());
  for (const char* bench : {"ex", "diffeq"}) {
    const auto resp = client.submit(
        make_request(std::string(bench) + "/ours", bench, core::FlowKind::Ours));
    ASSERT_TRUE(resp.ok) << resp.error;
    ASSERT_TRUE(resp.result.has_value());
    EXPECT_EQ(resp.result->state, "succeeded");
    const core::FlowResult serial = core::run_flow(
        core::FlowKind::Ours, benchmarks::make_benchmark(bench), paper_params());
    const api::FlowResultV1 expected =
        api::FlowResultV1::from_result(resp.result->name, serial);
    EXPECT_TRUE(expected.design_identical(*resp.result)) << bench;
  }
  EXPECT_TRUE(client.shutdown());
}

TEST_F(ServeFixture, HealthAggregatesAllShards) {
  serve::Server& server = make_server(3);
  serve::Client client(server.port());
  const auto first = client.submit(
      make_request("warm/ours", "ex", core::FlowKind::Ours));
  ASSERT_TRUE(first.ok) << first.error;
  const auto health = client.health();
  ASSERT_TRUE(health.ok) << health.error;
  ASSERT_TRUE(health.health.has_value());
  const util::JsonValue* cluster = health.health->find("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->get_int("live_shards"), 3);
  EXPECT_GE(cluster->get_int("submitted"), 1);
  ASSERT_NE(health.health->find("shards"), nullptr);
  EXPECT_EQ(health.health->find("shards")->as_array().size(), 3u);
  EXPECT_TRUE(client.shutdown());
}

TEST_F(ServeFixture, HttpHealthProbeAnswers200) {
  serve::Server& server = make_server(2);
  util::net::Fd fd = util::net::connect_local(server.port());
  util::net::write_all(fd.get(), "GET /health HTTP/1.1\r\nHost: x\r\n\r\n");
  // Raw read to EOF: the JSON body is not newline-terminated, so a line
  // reader would drop it as a torn trailing write.
  std::string body;
  char chunk[4096];
  for (ssize_t n = 0; (n = ::read(fd.get(), chunk, sizeof chunk)) > 0;) {
    body.append(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_NE(body.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(body.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(body.find("\"live_shards\":2"), std::string::npos);
  serve::Client client(server.port());
  EXPECT_TRUE(client.shutdown());
}

TEST_F(ServeFixture, GarbageAndUnknownOpsGetErrorRepliesNotCrashes) {
  serve::Server& server = make_server(2);
  util::net::Fd fd = util::net::connect_local(server.port());
  util::net::LineReader reader(fd.get(), 1u << 20);
  for (const char* bad :
       {"not json at all", "[1,2,3]", "{\"op\":\"no-such-op\"}",
        "{\"op\":\"submit\"}", "{\"op\":\"submit\",\"request\":{\"schema_version\":1}}",
        "{\"op\":\"kill\",\"shard\":99}"}) {
    util::net::write_all(fd.get(), std::string(bad) + "\n");
    const auto line = reader.read_line();
    ASSERT_TRUE(line.has_value()) << bad;
    const auto doc = util::json_parse(*line);
    ASSERT_TRUE(doc.has_value()) << *line;
    EXPECT_FALSE(doc->get_bool("ok", true)) << bad;
    EXPECT_FALSE(doc->get_string("error").empty()) << bad;
  }
  // The connection survived all of it; a real request still works.
  serve::Client client(server.port());
  const auto resp =
      client.submit(make_request("after/ours", "ex", core::FlowKind::Ours));
  EXPECT_TRUE(resp.ok) << resp.error;
  EXPECT_TRUE(client.shutdown());
}

TEST_F(ServeFixture, OversizedRequestLineIsRefusedAndConnectionClosed) {
  serve::Server& server = make_server(2, /*max_request_bytes=*/4096);
  util::net::Fd fd = util::net::connect_local(server.port());
  util::net::LineReader reader(fd.get(), 1u << 20);
  const std::string huge(8192, 'x');
  util::net::write_all(fd.get(), huge + "\n");
  const auto line = reader.read_line();
  ASSERT_TRUE(line.has_value());
  const auto doc = util::json_parse(*line);
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->get_bool("ok", true));
  EXPECT_FALSE(reader.read_line().has_value());  // server hung up
  serve::Client client(server.port());
  EXPECT_TRUE(client.shutdown());
}

// The tentpole soak: SIGKILL a worker while jobs are in flight.  Zero jobs
// may be lost (every submit gets exactly one response) and every result
// must stay bit-identical to a serial run -- the journal-adoption failover
// in action.
TEST_F(ServeFixture, KilledWorkerLosesNoJobsAndResultsStayBitIdentical) {
  serve::Server& server = make_server(3);

  const std::vector<std::string> benches = {"ex", "dct", "diffeq", "ewf"};
  const std::vector<core::FlowKind> kinds = {
      core::FlowKind::Camad, core::FlowKind::Approach1,
      core::FlowKind::Approach2, core::FlowKind::Ours};
  std::vector<api::FlowRequestV1> grid;
  for (const std::string& bench : benches) {
    for (core::FlowKind kind : kinds) {
      grid.push_back(make_request(
          bench + "/" + api::flow_token(kind) + "/soak", bench, kind));
    }
  }

  serve::Client pipe(server.port());
  for (const api::FlowRequestV1& req : grid) pipe.send_submit(req);

  // Kill a shard while the grid is in flight.  A separate connection so the
  // kill cannot queue behind the pipelined submits.
  serve::Client chaos(server.port());
  ASSERT_TRUE(chaos.kill_shard(1));

  std::map<std::string, api::FlowResultV1> results;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto resp = pipe.read_response();
    ASSERT_TRUE(resp.has_value()) << "connection died after " << i;
    ASSERT_TRUE(resp->ok) << resp->error;
    ASSERT_TRUE(resp->result.has_value());
    EXPECT_TRUE(results.emplace(resp->result->name, *resp->result).second)
        << "duplicate result for " << resp->result->name;
  }
  ASSERT_EQ(results.size(), grid.size()) << "lost jobs";

  int checked = 0;
  for (const api::FlowRequestV1& req : grid) {
    const auto it = results.find(req.name);
    ASSERT_NE(it, results.end()) << req.name;
    ASSERT_EQ(it->second.state, "succeeded") << req.name << ": "
                                             << it->second.error;
    const core::FlowResult serial =
        core::run_flow(req.kind, *req.dfg, paper_params());
    EXPECT_TRUE(api::FlowResultV1::from_result(req.name, serial)
                    .design_identical(it->second))
        << req.name;
    ++checked;
  }
  EXPECT_EQ(checked, static_cast<int>(grid.size()));

  // The cluster kept exact books through the failover.
  const auto health = chaos.health();
  ASSERT_TRUE(health.ok);
  const util::JsonValue* cluster = health.health->find("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->get_int("live_shards"), 2);
  EXPECT_TRUE(chaos.shutdown());
}

TEST_F(ServeFixture, SubmitsAfterFailoverStillRouteAndSucceed) {
  serve::Server& server = make_server(2);
  serve::Client client(server.port());
  ASSERT_TRUE(client.kill_shard(0));
  // Give the reaper a beat; then the surviving shard must take everything.
  const auto resp = client.submit(
      make_request("post-failover/ours", "ex", core::FlowKind::Ours));
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.result->state, "succeeded");
  const auto health = client.health();
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.health->find("cluster")->get_int("live_shards"), 1);
  EXPECT_TRUE(client.shutdown());
}

// ---------------------------------------------------------------------------
// A long-lived shard worker keeps its threads and memory bounded however
// many jobs it serves.

/// The "Threads:" and "VmSize:" (kB) lines of /proc/<pid>/status.
struct ProcStatus {
  long threads = -1;
  long vm_size_kb = -1;
};

ProcStatus proc_status(pid_t pid) {
  ProcStatus s;
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "Threads:") in >> s.threads;
    if (key == "VmSize:") in >> s.vm_size_kb;
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return s;
}

// Every served job gets a waiter thread; a finished waiter must be joined,
// not parked until drain.  An exited-but-unjoined thread leaves the kernel
// task list (so Threads alone cannot see the leak) but keeps its stack
// mapped, so VmSize grows by one thread stack per job served.
TEST(Worker, ThreadsAndStacksStayBoundedOverThousandsOfJobs) {
  const TempRoot root;
  auto [ours, theirs] = util::net::socket_pair();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ours.close();
    serve::WorkerConfig config;
    config.journal_dir = root.path;
    config.engine.max_concurrent_jobs = 2;
    config.engine.threads_per_job = 1;
    serve::run_worker(theirs.get(), config);
    std::_Exit(0);
  }
  theirs.close();
  util::net::LineReader reader(ours.get(), 1u << 20);
  ASSERT_TRUE(reader.read_line().has_value());  // the ready frame

  const util::JsonValue request =
      make_request("tiny", "ex", core::FlowKind::Approach1).to_json();
  std::uint64_t tag = 0;
  int succeeded = 0;
  // Pipelines `n` submits, then reads their `n` result frames.
  auto serve_jobs = [&](int n) {
    for (int i = 0; i < n; ++i) {
      util::net::write_all(ours.get(), serve::proto::submit_line(++tag, request));
    }
    for (int i = 0; i < n; ++i) {
      const auto line = reader.read_line();
      if (!line) return;
      const auto doc = util::json_parse(*line);
      if (doc && doc->get_string("kind") == "result" &&
          doc->find("result")->get_string("state") == "succeeded") {
        ++succeeded;
      }
    }
  };

  constexpr int kWarmJobs = 10;
  constexpr int kJobs = 2000;
  serve_jobs(kWarmJobs);
  const ProcStatus warm = proc_status(pid);
  for (int served = kWarmJobs; served < kJobs; served += kWarmJobs) {
    serve_jobs(kWarmJobs);
  }
  const ProcStatus after = proc_status(pid);
  util::net::write_all(ours.get(), serve::proto::quit_line());
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  EXPECT_EQ(succeeded, kJobs);
  ASSERT_GT(warm.threads, 0);
  ASSERT_GT(warm.vm_size_kb, 0);
  std::printf("[worker] Threads %ld -> %ld, VmSize %ld -> %ld kB over %d jobs\n",
              warm.threads, after.threads, warm.vm_size_kb, after.vm_size_kb,
              kJobs);
  EXPECT_LE(after.threads, warm.threads + 4);
  // 1 GiB of slack covers allocator growth (including an ASan quarantine);
  // one parked 8 MiB stack per job would be ~15 GiB here.
  EXPECT_LE(after.vm_size_kb, warm.vm_size_kb + 1024L * 1024L);
}

}  // namespace
}  // namespace hlts
