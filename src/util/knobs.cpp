#include "util/knobs.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"

namespace hlts::util::knobs {

namespace {

const Knob kRegistry[] = {
    {"HLTS_THREADS", Kind::Int, OnMalformed::Ignore, "hardware concurrency",
     "util::ThreadPool::default_threads",
     "trial-evaluation worker count; values < 1 fall back to the default"},
    {"HLTS_SIMD_WIDTH", Kind::Int, OnMalformed::Ignore, "256",
     "atpg::resolve_simd_width",
     "fault-simulation packet width in lanes (64, 256 or 512); other values "
     "fall back to the default"},
    {"HLTS_FAILPOINTS", Kind::String, OnMalformed::Throw, "unset",
     "util::failpoint (static init)",
     "arms fault-injection sites, grammar site:mode:prob:seed[:param]; a "
     "malformed spec aborts the process before main"},
    {"HLTS_IO_FAULTS", Kind::String, OnMalformed::Throw, "unset",
     "util::io_faults (static init)",
     "injects disk faults into util/fs, grammar op:mode:prob:seed[:param] "
     "with ops open|write|fsync|rename and modes short|enospc|eio; a "
     "malformed spec aborts the process before main"},
    {"HLTS_NET_FAULTS", Kind::String, OnMalformed::Throw, "unset",
     "util::net_chaos (static init)",
     "injects network faults into chaos-enabled sockets, grammar "
     "op:mode:prob:seed[:param] with ops connect|read|write and modes "
     "reset|truncate|stall; a malformed spec aborts the process before main"},
    {"HLTS_CLIENT_CONNECT_TIMEOUT_MS", Kind::Int, OnMalformed::Throw, "10000",
     "serve::ClientOptions::from_env",
     "serve client connect timeout in ms; 0 blocks indefinitely"},
    {"HLTS_CLIENT_READ_TIMEOUT_MS", Kind::Int, OnMalformed::Throw,
     "0 (no timeout)", "serve::ClientOptions::from_env",
     "serve client per-response read timeout in ms; 0 waits forever "
     "(synthesis jobs can legitimately run long)"},
    {"HLTS_CLIENT_WRITE_TIMEOUT_MS", Kind::Int, OnMalformed::Throw, "10000",
     "serve::ClientOptions::from_env",
     "serve client send timeout in ms; 0 blocks indefinitely"},
    {"HLTS_CLIENT_RETRIES", Kind::Int, OnMalformed::Throw, "0",
     "serve::ClientOptions::from_env",
     "extra reconnect-and-resubmit attempts by serve::RetryClient after a "
     "transport failure; safe because retries reuse the request's "
     "flow_token and the supervisor deduplicates"},
    {"HLTS_SANITIZE", Kind::ConfigTime, OnMalformed::Throw, "unset",
     "CMakeLists.txt",
     "configure-time: 'thread' or 'address' builds the tree under TSan / "
     "ASan+UBSan"},
    {"HLTS_PODEM_DEBUG", Kind::Flag, OnMalformed::Ignore, "0",
     "atpg::podem",
     "verbose PODEM search tracing (0/false/off quiet, anything else "
     "verbose)"},
    {"HLTS_ATPG_BACKEND", Kind::String, OnMalformed::Ignore, "timeframe",
     "atpg::run_atpg (AtpgOptions::backend)",
     "deterministic ATPG mode: timeframe (random phase + time-frame PODEM), "
     "sat (SAT on the whole fault universe, no random phase), or hybrid "
     "(random phase + SAT on the survivors)"},
    {"HLTS_SAT_FRAMES", Kind::Int, OnMalformed::Ignore,
     "0 (two controller periods)", "atpg::run_atpg (AtpgOptions::sat_frames)",
     "time frames the SAT backend unrolls the netlist over; values < 1 fall "
     "back to the default"},
    {"HLTS_SAT_CONFLICT_BUDGET", Kind::Int, OnMalformed::Ignore, "20000",
     "atpg::run_atpg (AtpgOptions::sat_conflict_budget)",
     "per-fault CDCL conflict budget before the SAT backend aborts a "
     "target; values < 1 fall back to the default"},
    {"HLTS_JOURNAL_DIR", Kind::String, OnMalformed::Throw, "unset",
     "engine::EngineOptions::from_env",
     "write-ahead job journal + checkpoint directory for the batch engine"},
    {"HLTS_QUEUE_CAP", Kind::Size, OnMalformed::Throw, "unbounded",
     "engine::EngineOptions::from_env",
     "admission-control bound on the engine's pending queue"},
    {"HLTS_MEM_BUDGET", Kind::Size, OnMalformed::Throw, "0 (unlimited)",
     "engine::EngineOptions::from_env",
     "default per-job working-set budget in bytes"},
    {"HLTS_SERVE_SHARDS", Kind::Int, OnMalformed::Throw, "4",
     "serve::ServeOptions::from_env",
     "worker processes forked by hlts_serve, one engine + journal dir each"},
    {"HLTS_SERVE_PORT", Kind::Int, OnMalformed::Throw, "0 (ephemeral)",
     "serve::ServeOptions::from_env",
     "TCP port hlts_serve listens on; 0 lets the kernel pick"},
    {"HLTS_SERVE_MAX_REQUEST_BYTES", Kind::Size, OnMalformed::Throw,
     "4194304", "serve::ServeOptions::from_env",
     "upper bound on one wire-protocol request line; longer requests are "
     "rejected before parsing"},
    {"HLTS_CODEL_TARGET_MS", Kind::Int, OnMalformed::Throw, "0 (off)",
     "engine::EngineOptions::from_env",
     "CoDel adaptive shedding: acceptable dispatch-time sojourn in ms; jobs "
     "are shed once sojourn stays above this for a full interval, and the "
     "shed rate returns to zero on recovery"},
    {"HLTS_CODEL_INTERVAL_MS", Kind::Int, OnMalformed::Throw, "100",
     "engine::EngineOptions::from_env",
     "CoDel persistence window and control-law base period in ms"},
    {"HLTS_SERVE_RESPAWN", Kind::Flag, OnMalformed::Ignore, "0",
     "serve::ServeOptions::from_env",
     "self-healing shard lifecycle: respawn dead workers with capped "
     "exponential backoff, recover their journals and rejoin the ring; "
     "crash-looping shards are quarantined"},
    {"HLTS_SERVE_BREAKER_FAILURES", Kind::Int, OnMalformed::Throw, "3",
     "serve::ServeOptions::from_env",
     "consecutive per-shard failures that trip the circuit breaker open; "
     "routing avoids open shards until a half-open probe succeeds"},
    {"HLTS_SERVE_HEDGE", Kind::Flag, OnMalformed::Ignore, "0",
     "serve::ServeOptions::from_env",
     "hedged requests: a submit stuck past a p99-derived delay is re-issued "
     "to a second shard, first result wins, the loser is cancelled"},
};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Int: return "int";
    case Kind::Size: return "size";
    case Kind::Flag: return "flag";
    case Kind::String: return "string";
    case Kind::ConfigTime: return "configure-time";
  }
  return "?";
}

/// Registered row of `name`, with the kind the caller expects; refusing
/// unregistered reads is the audit that keeps the table complete.
const Knob& checked(const char* name, Kind kind) {
  const Knob* k = find(name);
  HLTS_REQUIRE(k != nullptr,
               std::string("knob '") + name + "' read without a registry row");
  HLTS_REQUIRE(k->kind == kind,
               std::string("knob '") + name + "' is registered as " +
                   kind_name(k->kind) + ", read as " + kind_name(kind));
  return *k;
}

/// Raw environment value; nullopt when unset or empty (empty has always
/// meant "unset" for every knob in the tree).
std::optional<std::string> raw(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

std::optional<long long> parse_ll(const Knob& knob, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' || end == text.c_str()) {
    if (knob.on_malformed == OnMalformed::Throw) {
      throw Error(std::string(knob.name) + " is not an integer: '" + text + "'",
                  ErrorKind::Input);
    }
    return std::nullopt;
  }
  return v;
}

}  // namespace

const std::vector<Knob>& registry() {
  static const std::vector<Knob> table(std::begin(kRegistry),
                                       std::end(kRegistry));
  return table;
}

const Knob* find(const std::string& name) {
  for (const Knob& k : registry()) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

std::optional<long long> read_int(const char* name) {
  const Knob& knob = checked(name, Kind::Int);
  const std::optional<std::string> text = raw(name);
  if (!text) return std::nullopt;
  return parse_ll(knob, *text);
}

std::optional<std::size_t> read_size(const char* name) {
  const Knob& knob = checked(name, Kind::Size);
  const std::optional<std::string> text = raw(name);
  if (!text) return std::nullopt;
  const std::optional<long long> v = parse_ll(knob, *text);
  if (!v) return std::nullopt;
  if (*v < 0) {
    if (knob.on_malformed == OnMalformed::Throw) {
      throw Error(std::string(knob.name) + " must be >= 0", ErrorKind::Input);
    }
    return std::nullopt;
  }
  return static_cast<std::size_t>(*v);
}

std::optional<bool> read_flag(const char* name) {
  checked(name, Kind::Flag);
  const std::optional<std::string> text = raw(name);
  if (!text) return std::nullopt;
  return !(*text == "0" || *text == "false" || *text == "off");
}

std::optional<std::string> read_string(const char* name) {
  checked(name, Kind::String);
  return raw(name);
}

JsonValue to_json() {
  JsonValue::Array knobs;
  for (const Knob& k : registry()) {
    JsonValue::Object o{
        {"name", JsonValue::make_string(k.name)},
        {"kind", JsonValue::make_string(kind_name(k.kind))},
        {"on_malformed",
         JsonValue::make_string(k.on_malformed == OnMalformed::Throw
                                    ? "throw"
                                    : "ignore")},
        {"default", JsonValue::make_string(k.default_str)},
        {"consumer", JsonValue::make_string(k.consumer)},
        {"summary", JsonValue::make_string(k.summary)},
    };
    const std::optional<std::string> value = raw(k.name);
    o.emplace_back("value", value ? JsonValue::make_string(*value)
                                  : JsonValue::make_null());
    knobs.push_back(JsonValue::make_object(std::move(o)));
  }
  return JsonValue::make_object({
      {"knobs", JsonValue::make_array(std::move(knobs))},
  });
}

}  // namespace hlts::util::knobs
