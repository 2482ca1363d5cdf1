// The audited registry of every HLTS_* environment knob.
//
// Before this registry, each subsystem parsed its own environment variables
// with its own ad-hoc rules (ThreadPool strtol'd HLTS_THREADS, the engine
// strtoll'd HLTS_QUEUE_CAP, the fault simulator had a third copy, ...), and
// nothing guaranteed the README's knob table matched what the code actually
// read.  Now there is exactly one name -> metadata table; every environment
// read in the tree goes through read_int/read_size/read_flag/read_string,
// which refuse names that are not registered -- a knob cannot exist without
// a registry row, and the tests assert the README table matches the
// registry (tests/test_serve.cpp).
//
// Per-knob malformed-value policy, preserved from the original consumers:
//   Throw  -- a malformed value is a configuration error
//             (hlts::Error(ErrorKind::Input)); used by the engine and the
//             serving layer, where silently ignoring a typo'd limit would
//             run unprotected.
//   Ignore -- a malformed value reads as "unset" and the consumer's default
//             applies; used by the performance knob HLTS_THREADS and the
//             ATPG knobs, which predate the registry with that contract
//             and where the safe fallback is the tuned default.
//
// Range/validity checks beyond integer syntax (e.g. HLTS_SAT_FRAMES >= 1)
// stay with the consumer: the registry audits *names and parsing*, the
// consumer owns semantics.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace hlts::util::knobs {

enum class Kind {
  Int,         ///< integer via read_int
  Size,        ///< non-negative integer via read_size
  Flag,        ///< "0"/"false"/"off" -> false, anything else -> true
  String,      ///< uninterpreted text via read_string
  ConfigTime,  ///< consumed by CMake at configure time, never read at runtime
};

enum class OnMalformed { Throw, Ignore };

struct Knob {
  const char* name;          ///< environment variable, e.g. "HLTS_THREADS"
  Kind kind;
  OnMalformed on_malformed;
  const char* default_str;   ///< human-readable default for docs/JSON
  const char* consumer;      ///< the code that applies it
  const char* summary;       ///< one-line effect description
};

/// The full table, one row per knob, stable order.
[[nodiscard]] const std::vector<Knob>& registry();

/// Registry row for `name`, or nullptr when no such knob exists.
[[nodiscard]] const Knob* find(const std::string& name);

/// Environment reads.  Every accessor fails a contract check when `name` is
/// not registered with the matching kind (so a new env read cannot bypass
/// the registry), returns nullopt when the variable is unset or empty, and
/// applies the knob's OnMalformed policy to bad values.
[[nodiscard]] std::optional<long long> read_int(const char* name);
[[nodiscard]] std::optional<std::size_t> read_size(const char* name);
[[nodiscard]] std::optional<bool> read_flag(const char* name);
[[nodiscard]] std::optional<std::string> read_string(const char* name);

/// JSON snapshot of the registry: one entry per knob with its metadata and
/// the raw value currently in the environment (null when unset).  The
/// round-trip test sets a value, reads it through the consuming option
/// struct, and checks this snapshot agrees.
[[nodiscard]] JsonValue to_json();

}  // namespace hlts::util::knobs
