#include "workload/trace_io.h"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json_escape.h"

namespace pe::workload {
namespace {

// A minimal schema-directed JSON reader that tracks the input line so every
// failure is reported as "trace_io: line N: ...".  It only implements what
// the v1 document needs (objects, arrays, strings, integers) plus generic
// value skipping for unknown keys.
class JsonReader {
 public:
  explicit JsonReader(std::istream& is) : is_(is) {}

  [[noreturn]] void Fail(const std::string& what) const {
    std::ostringstream os;
    os << "trace_io: line " << line_ << ": " << what;
    throw std::runtime_error(os.str());
  }

  void SkipWs() {
    while (true) {
      int c = is_.peek();
      if (c == '\n' || c == ' ' || c == '\t' || c == '\r') {
        Get();
      } else {
        return;
      }
    }
  }

  // Consumes `expected` (after whitespace) or fails.
  void Expect(char expected) {
    SkipWs();
    int c = Get();
    if (c != expected) {
      Fail(std::string("expected '") + expected + "', got " + Show(c));
    }
  }

  // Consumes `maybe` (after whitespace) if it is next; returns whether.
  bool TryConsume(char maybe) {
    SkipWs();
    if (is_.peek() == maybe) {
      Get();
      return true;
    }
    return false;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      int c = Get();
      if (c == EOF) Fail("unterminated string");
      if (c == '"') return out;
      if (c == '\n') Fail("unterminated string");
      if (c == '\\') {
        int e = Get();
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'u': {
            int code = 0;
            for (int i = 0; i < 4; ++i) {
              int h = Get();
              if (h >= '0' && h <= '9') {
                code = code * 16 + (h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code = code * 16 + (h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code = code * 16 + (h - 'A' + 10);
              } else {
                Fail("bad \\u escape in string");
              }
            }
            if (code > 0x7F) Fail("non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default:
            Fail("unsupported escape in string");
        }
      } else {
        out += static_cast<char>(c);
      }
    }
  }

  std::int64_t ParseInt() {
    SkipWs();
    bool negative = false;
    if (is_.peek() == '-') {
      Get();
      negative = true;
    }
    if (!std::isdigit(is_.peek())) Fail("expected an integer");
    std::uint64_t magnitude = 0;
    constexpr std::uint64_t kMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    while (std::isdigit(is_.peek())) {
      int d = Get() - '0';
      if (magnitude > (kMax - static_cast<std::uint64_t>(d)) / 10) {
        Fail("integer out of range");
      }
      magnitude = magnitude * 10 + static_cast<std::uint64_t>(d);
    }
    int next = is_.peek();
    if (next == '.' || next == 'e' || next == 'E') {
      Fail("expected an integer, got a fractional number");
    }
    auto value = static_cast<std::int64_t>(magnitude);
    return negative ? -value : value;
  }

  // Skips one JSON value of any type (for unknown forward-compat keys).
  void SkipValue() {
    SkipWs();
    int c = is_.peek();
    if (c == '"') {
      ParseString();
    } else if (c == '{') {
      Get();
      if (TryConsume('}')) return;
      while (true) {
        ParseString();
        Expect(':');
        SkipValue();
        if (TryConsume(',')) continue;
        Expect('}');
        return;
      }
    } else if (c == '[') {
      Get();
      if (TryConsume(']')) return;
      while (true) {
        SkipValue();
        if (TryConsume(',')) continue;
        Expect(']');
        return;
      }
    } else if (c == '-' || std::isdigit(c)) {
      Get();
      while (true) {
        c = is_.peek();
        if (std::isdigit(c) || c == '.' || c == '-' || c == '+' || c == 'e' ||
            c == 'E') {
          Get();
        } else {
          return;
        }
      }
    } else if (c == 't' || c == 'f' || c == 'n') {
      while (std::isalpha(is_.peek())) Get();
    } else {
      Fail(std::string("unexpected character ") + Show(c));
    }
  }

  void ExpectEnd() {
    SkipWs();
    int c = is_.peek();
    if (c != EOF) {
      Fail(std::string("trailing content after document: ") + Show(c));
    }
  }

 private:
  int Get() {
    int c = is_.get();
    if (c == '\n') ++line_;
    return c;
  }

  static std::string Show(int c) {
    if (c == EOF) return "end of input";
    return std::string("'") + static_cast<char>(c) + "'";
  }

  std::istream& is_;
  int line_ = 1;
};

}  // namespace

void TraceDocument::Validate() const {
  if (models.empty()) {
    throw std::invalid_argument("TraceDocument: models[] must be non-empty");
  }
  for (const auto& name : models) {
    if (name.empty()) {
      throw std::invalid_argument("TraceDocument: model names must be "
                                  "non-empty");
    }
  }
  SimTime prev_arrival = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Query& q = trace.queries()[i];
    if (q.id != i) {
      throw std::invalid_argument(
          "TraceDocument: query ids must be dense in row order (row " +
          std::to_string(i) + " has id " + std::to_string(q.id) + ")");
    }
    if (q.arrival < prev_arrival) {
      throw std::invalid_argument(
          "TraceDocument: arrivals must be non-decreasing (query " +
          std::to_string(i) + ")");
    }
    prev_arrival = q.arrival;
    if (q.batch < 1) {
      throw std::invalid_argument("TraceDocument: batch must be >= 1 (query " +
                                  std::to_string(i) + ")");
    }
    if (q.model_id < 0 ||
        static_cast<std::size_t>(q.model_id) >= models.size()) {
      throw std::invalid_argument(
          "TraceDocument: query " + std::to_string(i) + " references model " +
          std::to_string(q.model_id) + " outside models[0.." +
          std::to_string(models.size() - 1) + "]");
    }
  }
}

void SaveTrace(std::ostream& os, const TraceDocument& doc) {
  doc.Validate();
  os << "{\n";
  os << "  \"schema\": \"" << kTraceSchema << "\",\n";
  os << "  \"time_unit\": \"ns\",\n";
  if (!doc.scenario.empty()) {
    os << "  \"scenario\": \"" << JsonEscape(doc.scenario) << "\",\n";
  }
  os << "  \"models\": [";
  for (std::size_t i = 0; i < doc.models.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << JsonEscape(doc.models[i]) << '"';
  }
  os << "],\n";
  os << "  \"queries\": [";
  for (std::size_t i = 0; i < doc.trace.size(); ++i) {
    const Query& q = doc.trace.queries()[i];
    os << (i > 0 ? ",\n    " : "\n    ");
    os << '[' << q.id << ", " << q.arrival << ", " << q.batch << ", "
       << q.model_id << ']';
  }
  os << (doc.trace.empty() ? "]\n" : "\n  ]\n");
  os << "}\n";
}

void SaveTraceFile(const std::string& path, const TraceDocument& doc) {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("trace_io: cannot open '" + path +
                             "' for writing");
  }
  SaveTrace(os, doc);
  os.flush();
  if (!os) {
    throw std::runtime_error("trace_io: error writing '" + path + "'");
  }
}

TraceDocument LoadTrace(std::istream& is) {
  JsonReader r(is);
  TraceDocument doc;
  std::vector<Query> queries;
  bool seen_schema = false;
  bool seen_models = false;
  bool seen_queries = false;

  r.Expect('{');
  if (!r.TryConsume('}')) {
    while (true) {
      r.SkipWs();
      std::string key = r.ParseString();
      r.Expect(':');
      if (key == "schema") {
        std::string schema = r.ParseString();
        if (schema != kTraceSchema) {
          r.Fail("unsupported schema '" + schema + "' (expected " +
                 kTraceSchema + ")");
        }
        seen_schema = true;
      } else if (key == "time_unit") {
        std::string unit = r.ParseString();
        if (unit != "ns") {
          r.Fail("unsupported time_unit '" + unit + "' (expected ns)");
        }
      } else if (key == "scenario") {
        doc.scenario = r.ParseString();
      } else if (key == "models") {
        if (seen_models) r.Fail("duplicate key 'models'");
        seen_models = true;
        r.Expect('[');
        if (!r.TryConsume(']')) {
          while (true) {
            r.SkipWs();
            doc.models.push_back(r.ParseString());
            if (r.TryConsume(',')) continue;
            r.Expect(']');
            break;
          }
        }
      } else if (key == "queries") {
        if (seen_queries) r.Fail("duplicate key 'queries'");
        seen_queries = true;
        r.Expect('[');
        SimTime prev_arrival = 0;
        if (!r.TryConsume(']')) {
          while (true) {
            r.Expect('[');
            std::int64_t id = r.ParseInt();
            r.Expect(',');
            std::int64_t arrival = r.ParseInt();
            r.Expect(',');
            std::int64_t batch = r.ParseInt();
            r.Expect(',');
            std::int64_t model = r.ParseInt();
            r.Expect(']');
            if (id != static_cast<std::int64_t>(queries.size())) {
              r.Fail("query id " + std::to_string(id) +
                     " out of order (expected " +
                     std::to_string(queries.size()) + ")");
            }
            if (arrival < 0) r.Fail("negative arrival time");
            if (arrival < prev_arrival) {
              r.Fail("arrivals must be non-decreasing");
            }
            prev_arrival = arrival;
            if (batch < 1) r.Fail("batch must be >= 1");
            if (batch > std::numeric_limits<int>::max()) {
              r.Fail("batch out of range");
            }
            if (model < 0 || model > std::numeric_limits<int>::max()) {
              r.Fail("model id out of range");
            }
            queries.push_back(Query{static_cast<std::uint64_t>(id), arrival,
                                    static_cast<int>(batch),
                                    static_cast<int>(model)});
            if (r.TryConsume(',')) continue;
            r.Expect(']');
            break;
          }
        }
      } else {
        r.SkipValue();  // Unknown keys: forward-compatible, skip.
      }
      if (r.TryConsume(',')) continue;
      r.Expect('}');
      break;
    }
  }
  r.ExpectEnd();

  if (!seen_schema) r.Fail("missing required key 'schema'");
  if (!seen_models) r.Fail("missing required key 'models'");
  if (!seen_queries) r.Fail("missing required key 'queries'");
  if (doc.models.empty()) r.Fail("models[] must be non-empty");
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (static_cast<std::size_t>(queries[i].model_id) >= doc.models.size()) {
      r.Fail("query " + std::to_string(i) + " references model " +
             std::to_string(queries[i].model_id) + " outside models[0.." +
             std::to_string(doc.models.size() - 1) + "]");
    }
  }
  doc.trace = QueryTrace(std::move(queries));
  doc.Validate();
  return doc;
}

TraceDocument LoadTraceFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("trace_io: cannot open '" + path +
                             "' for reading");
  }
  return LoadTrace(is);
}

}  // namespace pe::workload
