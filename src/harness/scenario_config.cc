#include "harness/scenario_config.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/json.h"

namespace pig::harness {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser. The library deliberately
// takes no third-party dependencies, and scenario files are small, so a
// ~150-line strict parser (no comments, no trailing commas) is the whole
// cost of config-driven chaos.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  int64_t integer = 0;     // valid when `is_integer`
  bool is_integer = false;  // number had no '.', 'e', or 'E'
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    Status s = ParseValue(root);
    if (!s.ok()) return s;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return root;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("scenario JSON at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_++;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    return Status::Ok();
  }

  Status ParseValue(JsonValue& out) {
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return ParseString(out.string);
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  Status ParseKeyword(JsonValue& out) {
    auto match = [this](const char* kw) {
      const size_t len = std::string_view(kw).size();
      if (text_.compare(pos_, len, kw) == 0) {
        pos_ += len;
        return true;
      }
      return false;
    };
    if (match("true")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return Status::Ok();
    }
    if (match("false")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return Status::Ok();
    }
    if (match("null")) {
      out.type = JsonValue::Type::kNull;
      return Status::Ok();
    }
    return Error("unknown keyword");
  }

  Status ParseString(std::string& out) {
    if (Status s = Expect('"'); !s.ok()) return s;
    out.clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (Status s = ParseUnicodeEscape(out); !s.ok()) return s;
            break;
          default:
            return Error("unsupported escape sequence");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  /// The XXXX of a "\uXXXX" escape: JsonEscape's form for control
  /// characters. Only ASCII code points are accepted.
  Status ParseUnicodeEscape(std::string& out) {
    const std::string hex = text_.substr(pos_, 4);
    if (hex.size() != 4 || !std::all_of(hex.begin(), hex.end(), [](char h) {
          return std::isxdigit(static_cast<unsigned char>(h)) != 0;
        })) {
      return Error("malformed \\u escape");
    }
    const auto code =
        static_cast<unsigned>(std::strtoul(hex.c_str(), nullptr, 16));
    if (code >= 0x80) return Error("malformed \\u escape");
    pos_ += 4;
    out += static_cast<char>(code);
    return Status::Ok();
  }

  Status ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      pos_++;
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        pos_++;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        integral = false;
        pos_++;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    if (integral) {
      out.is_integer = true;
      out.integer = std::strtoll(token.c_str(), nullptr, 10);
    }
    return Status::Ok();
  }

  Status ParseArray(JsonValue& out) {
    if (Status s = Expect('['); !s.ok()) return s;
    out.type = JsonValue::Type::kArray;
    if (Consume(']')) return Status::Ok();
    for (;;) {
      JsonValue item;
      if (Status s = ParseValue(item); !s.ok()) return s;
      out.array.push_back(std::move(item));
      if (Consume(']')) return Status::Ok();
      if (Status s = Expect(','); !s.ok()) return s;
    }
  }

  Status ParseObject(JsonValue& out) {
    if (Status s = Expect('{'); !s.ok()) return s;
    out.type = JsonValue::Type::kObject;
    if (Consume('}')) return Status::Ok();
    for (;;) {
      std::string key;
      if (Status s = ParseString(key); !s.ok()) return s;
      if (Status s = Expect(':'); !s.ok()) return s;
      JsonValue value;
      if (Status s = ParseValue(value); !s.ok()) return s;
      out.object.emplace_back(std::move(key), std::move(value));
      if (Consume('}')) return Status::Ok();
      if (Status s = Expect(','); !s.ok()) return s;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Field decoding

/// Reads a virtual time given as `<base>_ns` (integer nanoseconds) or
/// `<base>_ms` (possibly fractional milliseconds); exactly one must be
/// present unless `required` is false (then `out` is left untouched).
Status ReadTime(const JsonValue& obj, const std::string& base, bool required,
                TimeNs& out) {
  const JsonValue* ns = obj.Find(base + "_ns");
  const JsonValue* ms = obj.Find(base + "_ms");
  if (ns != nullptr && ms != nullptr) {
    return Status::InvalidArgument("scenario: both " + base + "_ns and " +
                                   base + "_ms given");
  }
  const JsonValue* v = ns != nullptr ? ns : ms;
  if (v == nullptr) {
    if (required) {
      return Status::InvalidArgument("scenario: missing " + base +
                                     "_ns/_ms");
    }
    return Status::Ok();
  }
  if (v->type != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("scenario: " + base + " must be a number");
  }
  if (ns != nullptr) {
    if (!v->is_integer) {
      return Status::InvalidArgument("scenario: " + base +
                                     "_ns must be an integer");
    }
    out = v->integer;
  } else {
    out = static_cast<TimeNs>(
        std::llround(v->number * static_cast<double>(kMillisecond)));
  }
  if (out < 0) {
    return Status::InvalidArgument("scenario: negative " + base);
  }
  return Status::Ok();
}

/// Reads a node field: an integer replica id, or "*" for the wildcard on
/// kinds whose network fault supports it (delivery faults and one-way
/// peers). Node-targeted kinds (crash, clock-skew, ...) pass
/// `allow_wildcard=false` so a meaningless "*" fails at parse time.
Status ReadNode(const JsonValue& obj, const std::string& key, bool required,
                bool allow_wildcard, NodeId& out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    if (required) {
      return Status::InvalidArgument("scenario: missing \"" + key + "\"");
    }
    return Status::Ok();
  }
  if (v->type == JsonValue::Type::kString) {
    if (v->string == "*") {
      if (!allow_wildcard) {
        return Status::InvalidArgument("scenario: \"" + key +
                                       "\" does not accept \"*\" for this "
                                       "fault kind");
      }
      out = kInvalidNode;
      return Status::Ok();
    }
    return Status::InvalidArgument("scenario: \"" + key +
                                   "\" must be a node id or \"*\"");
  }
  if (v->type != JsonValue::Type::kNumber || !v->is_integer ||
      v->integer < 0 ||
      v->integer >= static_cast<int64_t>(kFirstClientId)) {
    return Status::InvalidArgument("scenario: \"" + key +
                                   "\" must be a replica id in [0, " +
                                   std::to_string(kFirstClientId) + ")");
  }
  out = static_cast<NodeId>(v->integer);
  return Status::Ok();
}

Status ReadDouble(const JsonValue& obj, const std::string& key,
                  double& out) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("scenario: missing numeric \"" + key +
                                   "\"");
  }
  out = v->number;
  return Status::Ok();
}

/// How a fault kind uses its "node"/"peer" endpoint fields.
enum class Endpoint {
  kNone,              ///< Absent.
  kConcrete,          ///< Required replica id.
  kWildcard,          ///< Required; "*" allowed.
  kOptionalWildcard,  ///< Optional, defaults to "*".
};

/// The kind-specific payload beyond the endpoints.
enum class Payload { kNone, kGroups, kGroup, kProbability, kLatency, kFactor };

/// Per-kind field schema shared by the reader, the writer and
/// ValidateScenario.
struct KindFields {
  Endpoint node;
  Endpoint peer;
  Payload payload;
};

KindFields FieldsOf(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
    case FaultKind::kRecover:
    case FaultKind::kCrashWithDisk:
    case FaultKind::kCrashLosingDisk:
    case FaultKind::kGraySlowStart:
    case FaultKind::kGraySlowEnd:
      return {Endpoint::kConcrete, Endpoint::kNone, Payload::kNone};
    case FaultKind::kHeal:
    case FaultKind::kReshuffle:
      return {Endpoint::kNone, Endpoint::kNone, Payload::kNone};
    case FaultKind::kPartition:
      return {Endpoint::kNone, Endpoint::kNone, Payload::kGroups};
    case FaultKind::kCrashGroupLeader:
      return {Endpoint::kNone, Endpoint::kNone, Payload::kGroup};
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      return {Endpoint::kConcrete, Endpoint::kConcrete, Payload::kNone};
    case FaultKind::kOneWayDown:  // no peer = mute all of node's sends
    case FaultKind::kOneWayRestore:
      return {Endpoint::kConcrete, Endpoint::kOptionalWildcard,
              Payload::kNone};
    case FaultKind::kDuplicateLink:
      return {Endpoint::kWildcard, Endpoint::kWildcard,
              Payload::kProbability};
    case FaultKind::kReorderLink:
      return {Endpoint::kWildcard, Endpoint::kWildcard, Payload::kLatency};
    case FaultKind::kClockSkew:
      return {Endpoint::kConcrete, Endpoint::kNone, Payload::kFactor};
  }
  return {Endpoint::kNone, Endpoint::kNone, Payload::kNone};
}

Status ReadEndpoint(const JsonValue& obj, const char* key, Endpoint how,
                    NodeId& out) {
  if (how == Endpoint::kNone) return Status::Ok();
  if (how == Endpoint::kOptionalWildcard) out = kInvalidNode;
  return ReadNode(obj, key, /*required=*/how != Endpoint::kOptionalWildcard,
                  /*allow_wildcard=*/how != Endpoint::kConcrete, out);
}

Status ParseEvent(const JsonValue& obj, FaultEvent& e) {
  if (obj.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("scenario: schedule entries must be "
                                   "objects");
  }
  const JsonValue* kind = obj.Find("kind");
  if (kind == nullptr || kind->type != JsonValue::Type::kString) {
    return Status::InvalidArgument("scenario: event missing \"kind\"");
  }
  Result<FaultKind> parsed = FaultKindFromName(kind->string);
  if (!parsed.ok()) return parsed.status();
  e.kind = parsed.value();
  if (Status s = ReadTime(obj, "at", /*required=*/true, e.at); !s.ok()) {
    return s;
  }
  const KindFields f = FieldsOf(e.kind);
  if (Status s = ReadEndpoint(obj, "node", f.node, e.node); !s.ok()) {
    return s;
  }
  if (Status s = ReadEndpoint(obj, "peer", f.peer, e.peer); !s.ok()) {
    return s;
  }

  switch (f.payload) {
    case Payload::kNone:
      return Status::Ok();
    case Payload::kGroups: {
      const JsonValue* groups = obj.Find("groups");
      if (groups == nullptr || groups->type != JsonValue::Type::kArray) {
        return Status::InvalidArgument(
            "scenario: partition event needs a \"groups\" array");
      }
      for (const JsonValue& g : groups->array) {
        if (g.type != JsonValue::Type::kNumber || !g.is_integer ||
            g.integer < 0) {
          return Status::InvalidArgument(
              "scenario: partition groups must be nonnegative integers");
        }
        e.partition_groups.push_back(static_cast<int>(g.integer));
      }
      return Status::Ok();
    }
    case Payload::kGroup: {
      const JsonValue* group = obj.Find("group");
      if (group == nullptr || group->type != JsonValue::Type::kNumber ||
          !group->is_integer || group->integer < 0) {
        return Status::InvalidArgument(
            "scenario: crash-group-leader needs a nonnegative \"group\"");
      }
      e.group = static_cast<uint32_t>(group->integer);
      return Status::Ok();
    }
    case Payload::kProbability:
      if (Status s = ReadDouble(obj, "probability", e.value); !s.ok()) {
        return s;
      }
      if (e.value < 0.0 || e.value > 1.0) {
        return Status::InvalidArgument(
            "scenario: duplicate-link probability must be in [0, 1]");
      }
      return Status::Ok();
    case Payload::kLatency:
      return ReadTime(obj, "extra_latency", /*required=*/true,
                      e.extra_latency);
    case Payload::kFactor:
      if (Status s = ReadDouble(obj, "factor", e.value); !s.ok()) return s;
      if (e.value <= 0.0) {
        return Status::InvalidArgument(
            "scenario: clock-skew factor must be positive");
      }
      return Status::Ok();
  }
  return Status::Internal("scenario: unhandled fault kind");
}

// ---------------------------------------------------------------------------
// Serialization (common/json.h, shared with SweepReportJson).

void AppendNodeField(std::string& out, const char* key, NodeId node) {
  if (node == kInvalidNode) {
    AppendF(out, ", \"%s\": \"*\"", key);
  } else {
    AppendF(out, ", \"%s\": %u", key, node);
  }
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kGraySlowStart: return "gray-slow-start";
    case FaultKind::kGraySlowEnd: return "gray-slow-end";
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kReshuffle: return "reshuffle";
    case FaultKind::kCrashGroupLeader: return "crash-group-leader";
    case FaultKind::kCrashWithDisk: return "crash-with-disk";
    case FaultKind::kCrashLosingDisk: return "crash-losing-disk";
    case FaultKind::kOneWayDown: return "one-way-down";
    case FaultKind::kOneWayRestore: return "one-way-restore";
    case FaultKind::kDuplicateLink: return "duplicate-link";
    case FaultKind::kReorderLink: return "reorder-link";
    case FaultKind::kClockSkew: return "clock-skew";
  }
  return "unknown";
}

Result<FaultKind> FaultKindFromName(const std::string& name) {
  // FaultKind is contiguous from kCrash (0) through kClockSkew (last).
  for (int k = 0; k <= static_cast<int>(FaultKind::kClockSkew); ++k) {
    if (name == FaultKindName(static_cast<FaultKind>(k))) {
      return static_cast<FaultKind>(k);
    }
  }
  return Status::InvalidArgument("scenario: unknown fault kind \"" + name +
                                 "\"");
}

Result<ScenarioSpec> ScenarioFromJson(const std::string& json) {
  JsonParser parser(json);
  Result<JsonValue> parsed = parser.Parse();
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (root.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("scenario: top level must be an object");
  }

  ScenarioSpec spec;
  if (const JsonValue* name = root.Find("name")) {
    if (name->type != JsonValue::Type::kString) {
      return Status::InvalidArgument("scenario: \"name\" must be a string");
    }
    spec.name = name->string;
  }
  if (const JsonValue* topo = root.Find("topology")) {
    if (topo->type != JsonValue::Type::kString) {
      return Status::InvalidArgument(
          "scenario: \"topology\" must be a string");
    }
    if (topo->string == "lan") {
      spec.topology = Topology::kLan;
    } else if (topo->string == "wan-va-ca-or") {
      spec.topology = Topology::kWanVaCaOr;
    } else {
      return Status::InvalidArgument("scenario: unknown topology \"" +
                                     topo->string + "\"");
    }
  }
  if (Status s = ReadTime(root, "gray_extra_latency", /*required=*/false,
                          spec.gray_extra_latency);
      !s.ok()) {
    return s;
  }

  const JsonValue* schedule = root.Find("schedule");
  if (schedule != nullptr) {
    if (schedule->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument(
          "scenario: \"schedule\" must be an array");
    }
    for (const JsonValue& entry : schedule->array) {
      FaultEvent e;
      if (Status s = ParseEvent(entry, e); !s.ok()) return s;
      spec.schedule.push_back(std::move(e));
    }
  }
  return spec;
}

Result<ScenarioSpec> LoadScenarioFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open scenario file " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  Result<ScenarioSpec> spec = ScenarioFromJson(text);
  if (!spec.ok()) {
    return Status::InvalidArgument(path + ": " + spec.status().message());
  }
  return spec;
}

std::string ScenarioToJson(const ScenarioSpec& spec) {
  std::string out;
  out.reserve(256 + spec.schedule.size() * 96);
  AppendF(out, "{\n  \"name\": \"%s\",\n", JsonEscape(spec.name).c_str());
  AppendF(out, "  \"topology\": \"%s\",\n",
          spec.topology == Topology::kWanVaCaOr ? "wan-va-ca-or" : "lan");
  AppendF(out, "  \"gray_extra_latency_ns\": %lld,\n",
          static_cast<long long>(spec.gray_extra_latency));
  out += "  \"schedule\": [";
  for (size_t i = 0; i < spec.schedule.size(); ++i) {
    const FaultEvent& e = spec.schedule[i];
    AppendF(out, "%s\n    {\"at_ns\": %lld, \"kind\": \"%s\"",
            i > 0 ? "," : "", static_cast<long long>(e.at),
            FaultKindName(e.kind));
    const KindFields f = FieldsOf(e.kind);
    if (f.node != Endpoint::kNone) AppendNodeField(out, "node", e.node);
    if (f.peer != Endpoint::kNone) AppendNodeField(out, "peer", e.peer);
    switch (f.payload) {
      case Payload::kNone:
        break;
      case Payload::kGroups:
        out += ", \"groups\": [";
        for (size_t g = 0; g < e.partition_groups.size(); ++g) {
          AppendF(out, "%s%d", g > 0 ? "," : "", e.partition_groups[g]);
        }
        out += "]";
        break;
      case Payload::kGroup:
        AppendF(out, ", \"group\": %u", e.group);
        break;
      case Payload::kProbability:
        AppendF(out, ", \"probability\": %.6g", e.value);
        break;
      case Payload::kLatency:
        AppendF(out, ", \"extra_latency_ns\": %lld",
                static_cast<long long>(e.extra_latency));
        break;
      case Payload::kFactor:
        AppendF(out, ", \"factor\": %.6g", e.value);
        break;
    }
    out += "}";
  }
  out += spec.schedule.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

Status SaveScenarioFile(const std::string& path, const ScenarioSpec& spec) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  const std::string json = ScenarioToJson(spec);
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to " + path);
  }
  return Status::Ok();
}

Status ValidateScenario(const ScenarioSpec& spec, size_t num_replicas) {
  for (size_t i = 0; i < spec.schedule.size(); ++i) {
    const FaultEvent& e = spec.schedule[i];
    auto where = [&] {
      return "scenario '" + spec.name + "' event " + std::to_string(i) +
             " (" + FaultKindName(e.kind) + ")";
    };
    if (e.at < 0) {
      return Status::InvalidArgument(where() + ": negative time");
    }
    for (NodeId id : {e.node, e.peer}) {
      if (id != kInvalidNode && id >= num_replicas) {
        return Status::OutOfRange(where() + ": node " + std::to_string(id) +
                                  " out of range for " +
                                  std::to_string(num_replicas) +
                                  " replicas");
      }
    }
    // Kinds that act on a specific node must actually name one.
    const KindFields f = FieldsOf(e.kind);
    if ((f.node == Endpoint::kConcrete && e.node == kInvalidNode) ||
        (f.peer == Endpoint::kConcrete && e.peer == kInvalidNode)) {
      return Status::InvalidArgument(where() + ": needs a concrete node");
    }
    if (e.kind == FaultKind::kPartition &&
        e.partition_groups.size() > num_replicas) {
      return Status::OutOfRange(where() + ": partition map names " +
                                std::to_string(e.partition_groups.size()) +
                                " replicas, cluster has " +
                                std::to_string(num_replicas));
    }
    if (e.kind == FaultKind::kDuplicateLink &&
        (e.value < 0.0 || e.value > 1.0)) {
      return Status::InvalidArgument(where() +
                                     ": probability must be in [0, 1]");
    }
    if (e.kind == FaultKind::kClockSkew && e.value <= 0.0) {
      return Status::InvalidArgument(where() + ": factor must be positive");
    }
    if (e.kind == FaultKind::kReorderLink && e.extra_latency < 0) {
      return Status::InvalidArgument(where() + ": negative extra latency");
    }
  }
  return Status::Ok();
}

}  // namespace pig::harness
