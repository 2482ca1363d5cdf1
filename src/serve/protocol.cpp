#include "serve/protocol.hpp"

#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace hlts::serve::proto {

namespace {

using util::JsonValue;

std::string dump_line(JsonValue::Object members) {
  return util::json_dump(JsonValue::make_object(std::move(members))) + "\n";
}

JsonValue tag_value(std::uint64_t tag) {
  return JsonValue::make_int(static_cast<std::int64_t>(tag));
}

}  // namespace

std::string submit_line(std::uint64_t tag, const util::JsonValue& request) {
  return dump_line({{"op", JsonValue::make_string("submit")},
                    {"tag", tag_value(tag)},
                    {"request", request}});
}

std::string health_line(std::uint64_t tag) {
  return dump_line(
      {{"op", JsonValue::make_string("health")}, {"tag", tag_value(tag)}});
}

std::string adopt_line(std::uint64_t tag, const std::string& dir) {
  return dump_line({{"op", JsonValue::make_string("adopt")},
                    {"tag", tag_value(tag)},
                    {"dir", JsonValue::make_string(dir)}});
}

std::string cancel_line(std::uint64_t tag) {
  return dump_line(
      {{"op", JsonValue::make_string("cancel")}, {"tag", tag_value(tag)}});
}

std::string quit_line() {
  return dump_line({{"op", JsonValue::make_string("quit")}});
}

std::string result_frame(std::uint64_t tag, const api::FlowResultV1& result) {
  return dump_line({{"kind", JsonValue::make_string("result")},
                    {"tag", tag_value(tag)},
                    {"result", result.to_json()}});
}

std::string health_frame(std::uint64_t tag, const api::HealthV1& health) {
  return dump_line({{"kind", JsonValue::make_string("health")},
                    {"tag", tag_value(tag)},
                    {"health", health.to_json()}});
}

std::string adopted_frame(std::uint64_t tag,
                          const std::vector<std::uint64_t>& tags) {
  JsonValue::Array arr;
  arr.reserve(tags.size());
  for (const std::uint64_t t : tags) arr.push_back(tag_value(t));
  return dump_line({{"kind", JsonValue::make_string("adopted")},
                    {"tag", tag_value(tag)},
                    {"tags", JsonValue::make_array(std::move(arr))}});
}

std::string ready_frame(const std::vector<std::uint64_t>& tags) {
  JsonValue::Array arr;
  arr.reserve(tags.size());
  for (const std::uint64_t t : tags) arr.push_back(tag_value(t));
  return dump_line({{"kind", JsonValue::make_string("ready")},
                    {"tags", JsonValue::make_array(std::move(arr))}});
}

std::string ok_result_line(const util::JsonValue& result) {
  return dump_line({{"ok", JsonValue::make_bool(true)}, {"result", result}});
}

std::string ok_health_line(const util::JsonValue& health) {
  return dump_line({{"ok", JsonValue::make_bool(true)}, {"health", health}});
}

std::string ok_line() { return dump_line({{"ok", JsonValue::make_bool(true)}}); }

std::string error_line(const std::string& message) {
  return dump_line({{"ok", JsonValue::make_bool(false)},
                    {"error", JsonValue::make_string(message)}});
}

std::string embed_tag(std::uint64_t tag, const std::string& name) {
  return cat("t", std::to_string(tag), "|", name);
}

std::optional<TaggedName> split_tag(const std::string& name) {
  if (name.size() < 3 || name[0] != 't') return std::nullopt;
  const std::size_t bar = name.find('|');
  if (bar == std::string::npos || bar < 2) return std::nullopt;
  const std::string digits = name.substr(1, bar - 1);
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long tag = std::strtoull(digits.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return std::nullopt;
  return TaggedName{static_cast<std::uint64_t>(tag), name.substr(bar + 1)};
}

}  // namespace hlts::serve::proto
