#include "tinkerpop/bytecode.h"

#include <cmath>
#include <limits>
#include <utility>

#include "util/json.h"

namespace graphbench {
namespace gremlinio {

// GraphSON 3.0 analog: traversals and results travel as typed JSON, the
// format the real Gremlin Server speaks. The encode/parse cost on every
// request is a genuine component of the TinkerPop overhead (§4.2, §4.4).
// Both directions stream: the writer appends into one reserved string and
// the reader builds steps and values straight from the text, with no JSON
// document in between. Integers travel exactly as g:Int64; the non-finite
// doubles as GraphSON's "NaN", "Infinity" and "-Infinity".

namespace {

using K = GremlinStep::Kind;

// The wire name of each step kind, read in both directions.
constexpr std::pair<std::string_view, K> kOps[] = {
    {"V", K::kV},
    {"hasIndexed", K::kHasIndexed},
    {"has", K::kHas},
    {"out", K::kOut},
    {"in", K::kIn},
    {"both", K::kBoth},
    {"values", K::kValues},
    {"dedup", K::kDedup},
    {"limit", K::kLimit},
    {"count", K::kCount},
    {"as", K::kAs},
    {"whereNeq", K::kWhereNeq},
    {"shortestPath", K::kShortestPath},
    {"addV", K::kAddV},
    {"addE", K::kAddE},
    {"orderBy", K::kOrderBy},
    {"valueMap", K::kValueMap},
    {"addEdgeTo", K::kAddEdgeTo},
    {"dropEdgeTo", K::kDropEdgeTo},
    {"groupCount", K::kGroupCount},
};

std::string_view OpName(K kind) {
  for (const auto& [op, k] : kOps) {
    if (k == kind) return op;
  }
  return "unknown";
}

Result<K> OpKind(std::string_view name) {
  for (const auto& [op, kind] : kOps) {
    if (name == op) return kind;
  }
  return Status::Corruption("unknown gremlin op " + std::string(name));
}

// --- Writer -----------------------------------------------------------------

// An upper bound on AppendValue's bytes for everything but escapes, which
// the slack on strings absorbs; a frame or request sized from these
// reserves once.
size_t ValueBytes(const Value& v) {
  return v.is_string() ? v.as_string().size() + 8 : 64;
}

void AppendValue(const Value& v, std::string* out) {
  switch (v.type()) {
    case Value::Type::kNull:
      *out += "null";
      return;
    case Value::Type::kBool:
      *out += v.as_bool() ? "true" : "false";
      return;
    case Value::Type::kInt:
      *out += R"({"@type":"g:Int64","@value":)";
      AppendJsonInt(v.as_int(), out);
      out->push_back('}');
      return;
    case Value::Type::kDouble: {
      // GraphSON 3.0 spells the non-finite doubles as strings.
      const double d = v.as_double();
      *out += R"({"@type":"g:Double","@value":)";
      if (std::isnan(d)) {
        *out += R"("NaN")";
      } else if (std::isinf(d)) {
        *out += d > 0 ? R"("Infinity")" : R"("-Infinity")";
      } else {
        AppendJsonNumber(d, out);
      }
      out->push_back('}');
      return;
    }
    case Value::Type::kString:
      AppendJsonString(v.as_string(), out);
      return;
  }
}

void AppendField(std::string_view name, const std::string& text,
                 std::string* out) {
  if (text.empty()) return;
  out->push_back(',');
  AppendJsonString(name, out);
  out->push_back(':');
  AppendJsonString(text, out);
}

size_t StepBytes(const GremlinStep& step) {
  size_t bytes = 128 + step.label.size() + step.key.size() +
                 step.name.size() + step.name2.size() +
                 ValueBytes(step.value);
  for (const auto& [key, value] : step.props.entries()) {
    bytes += key.size() + 4 + ValueBytes(value);
  }
  return bytes;
}

// --- Reader -----------------------------------------------------------------

// A field that is absent stays at its default; a field of the wrong type,
// an unknown field or a non-integral or out-of-range number is an error,
// which the Decode functions report as Corruption.

Status ReadString(JsonReader& in, std::string* out) {
  std::string scratch;
  GB_ASSIGN_OR_RETURN(std::string_view s, in.String(&scratch));
  if (s.data() == scratch.data()) {
    *out = std::move(scratch);
  } else {
    out->assign(s);
  }
  return Status::OK();
}

// {"@type":"g:Int64"|"g:Double","@value":...}, keys in either order: the
// @value is kept as text until the type is known.
Status ReadTypedValue(JsonReader& in, Value* out) {
  enum class Type { kNone, kInt64, kDouble } type = Type::kNone;
  std::string type_scratch, text_scratch;
  std::string_view number, text;
  GB_RETURN_IF_ERROR(in.Object([&](std::string_view key) -> Status {
    if (key == "@type") {
      GB_ASSIGN_OR_RETURN(std::string_view name, in.String(&type_scratch));
      if (name == "g:Int64") {
        type = Type::kInt64;
      } else if (name == "g:Double") {
        type = Type::kDouble;
      } else {
        return Status::Corruption("unknown GraphSON type " +
                                  std::string(name));
      }
      return Status::OK();
    }
    if (key != "@value") {
      return Status::Corruption("unknown GraphSON field " + std::string(key));
    }
    number = text = {};
    if (in.Peek() == '"') {
      GB_ASSIGN_OR_RETURN(text, in.String(&text_scratch));
    } else {
      GB_ASSIGN_OR_RETURN(number, in.NumberText());
    }
    return Status::OK();
  }));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (type == Type::kInt64 && !number.empty()) {
    GB_ASSIGN_OR_RETURN(int64_t i, JsonReader::ToInt64(number));
    *out = Value(i);
  } else if (type == Type::kDouble && !number.empty()) {
    GB_ASSIGN_OR_RETURN(double d, JsonReader::ToDouble(number));
    *out = Value(d);
  } else if (type == Type::kDouble && text == "NaN") {
    *out = Value(std::numeric_limits<double>::quiet_NaN());
  } else if (type == Type::kDouble && text == "Infinity") {
    *out = Value(kInf);
  } else if (type == Type::kDouble && text == "-Infinity") {
    *out = Value(-kInf);
  } else {
    return Status::Corruption("bad GraphSON @type/@value pair");
  }
  return Status::OK();
}

Status ReadValue(JsonReader& in, Value* out) {
  switch (in.Peek()) {
    case 'n':
      GB_RETURN_IF_ERROR(in.Literal("null"));
      *out = Value();
      return Status::OK();
    case 't':
      GB_RETURN_IF_ERROR(in.Literal("true"));
      *out = Value(true);
      return Status::OK();
    case 'f':
      GB_RETURN_IF_ERROR(in.Literal("false"));
      *out = Value(false);
      return Status::OK();
    case '"': {
      std::string s;
      GB_RETURN_IF_ERROR(ReadString(in, &s));
      *out = Value(std::move(s));
      return Status::OK();
    }
    case '{':
      return ReadTypedValue(in, out);
    default:
      return Status::Corruption("expected a GraphSON value");
  }
}

Status ReadStep(JsonReader& in, GremlinStep* step) {
  bool has_op = false;
  GB_RETURN_IF_ERROR(in.Object([&](std::string_view key) -> Status {
    if (key == "op") {
      std::string scratch;
      GB_ASSIGN_OR_RETURN(std::string_view op, in.String(&scratch));
      GB_ASSIGN_OR_RETURN(step->kind, OpKind(op));
      has_op = true;
      return Status::OK();
    }
    if (key == "label") return ReadString(in, &step->label);
    if (key == "key") return ReadString(in, &step->key);
    if (key == "value") return ReadValue(in, &step->value);
    if (key == "n") {
      GB_ASSIGN_OR_RETURN(step->n, in.Int64());
      return Status::OK();
    }
    if (key == "name") return ReadString(in, &step->name);
    if (key == "name2") return ReadString(in, &step->name2);
    if (key == "props") {
      step->props = PropertyMap();
      return in.Object([&](std::string_view prop) -> Status {
        Value v;
        GB_RETURN_IF_ERROR(ReadValue(in, &v));
        step->props.Set(prop, std::move(v));
        return Status::OK();
      });
    }
    return Status::Corruption("unknown step field " + std::string(key));
  }));
  if (!has_op) return Status::Corruption("gremlin step without op");
  return Status::OK();
}

// Malformed text anywhere in a request or frame is Corruption.
Status AsCorruption(const Status& s) {
  return s.IsCorruption() ? s : Status::Corruption(s.message());
}

}  // namespace

std::string EncodeTraversal(const Traversal& traversal) {
  size_t bytes = 64;
  for (const GremlinStep& step : traversal.steps()) bytes += StepBytes(step);
  std::string out;
  out.reserve(bytes);
  out += R"({"@type":"g:Bytecode","step":[)";
  bool first = true;
  for (const GremlinStep& step : traversal.steps()) {
    if (!first) out.push_back(',');
    first = false;
    out += R"({"op":)";
    AppendJsonString(OpName(step.kind), &out);
    AppendField("label", step.label, &out);
    AppendField("key", step.key, &out);
    if (!step.value.is_null()) {
      out += R"(,"value":)";
      AppendValue(step.value, &out);
    }
    if (step.n != 0) {
      out += R"(,"n":)";
      AppendJsonInt(step.n, &out);
    }
    AppendField("name", step.name, &out);
    AppendField("name2", step.name2, &out);
    if (!step.props.empty()) {
      out += R"(,"props":{)";
      bool first_prop = true;
      for (const auto& [key, value] : step.props.entries()) {
        if (!first_prop) out.push_back(',');
        first_prop = false;
        AppendJsonString(key, &out);
        out.push_back(':');
        AppendValue(value, &out);
      }
      out.push_back('}');
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

Result<Traversal> DecodeTraversal(std::string_view bytes) {
  JsonReader in(bytes);
  Traversal t;
  bool bytecode = false;
  Status s = in.Object([&](std::string_view key) -> Status {
    if (key == "@type") {
      std::string type;
      GB_RETURN_IF_ERROR(ReadString(in, &type));
      bytecode = type == "g:Bytecode";
      return Status::OK();
    }
    if (key != "step") {
      return Status::Corruption("unknown bytecode field " + std::string(key));
    }
    std::vector<GremlinStep>* steps = t.mutable_steps();
    steps->clear();
    return in.Array([&] {
      return ReadStep(in, &steps->emplace_back(GremlinStep{}));
    });
  });
  if (s.ok() && !in.AtEnd()) s = Status::Corruption("trailing bytes");
  if (!s.ok()) return AsCorruption(s);
  if (!bytecode) return Status::Corruption("not gremlin bytecode");
  return t;
}

std::string EncodeResults(const std::vector<Value>& results) {
  // Response envelope mirroring the Gremlin Server protocol.
  size_t bytes = 64;
  for (const Value& v : results) bytes += ValueBytes(v);
  std::string out;
  out.reserve(bytes);
  out += R"({"status":{"code":200},"result":{"data":[)";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i) out.push_back(',');
    AppendValue(results[i], &out);
  }
  out += "]}}";
  return out;
}

Result<std::vector<Value>> DecodeResults(std::string_view bytes) {
  JsonReader in(bytes);
  std::vector<Value> out;
  int64_t code = 0;
  Status s = in.Object([&](std::string_view key) -> Status {
    if (key == "status") {
      return in.Object([&](std::string_view field) -> Status {
        if (field != "code") {
          return Status::Corruption("unknown status field " +
                                    std::string(field));
        }
        GB_ASSIGN_OR_RETURN(code, in.Int64());
        return Status::OK();
      });
    }
    if (key != "result") {
      return Status::Corruption("unknown response field " + std::string(key));
    }
    return in.Object([&](std::string_view field) -> Status {
      if (field != "data") {
        return Status::Corruption("unknown result field " +
                                  std::string(field));
      }
      out.clear();
      return in.Array([&] { return ReadValue(in, &out.emplace_back()); });
    });
  });
  if (s.ok() && !in.AtEnd()) s = Status::Corruption("trailing bytes");
  if (!s.ok()) return AsCorruption(s);
  if (code != 200) return Status::Corruption("gremlin error response");
  return out;
}

}  // namespace gremlinio
}  // namespace graphbench
