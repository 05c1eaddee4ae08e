#include "serve/protocol.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/string_util.h"
#include "obs/report.h"  // JsonEscape

namespace tpiin {

namespace {

// --- Flat JSON scanning -------------------------------------------------
//
// The protocol only ever carries one-level objects of string and integer
// values, so a ~100-line recursive-descent scanner beats dragging in a
// JSON library: no allocation beyond the output strings, strict about
// what it accepts, and the error messages name the offending key.

struct Scanner {
  std::string_view in;
  size_t pos = 0;

  void SkipSpace() {
    while (pos < in.size() &&
           std::isspace(static_cast<unsigned char>(in[pos]))) {
      ++pos;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos >= in.size();
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos < in.size() && in[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  char Peek() {
    SkipSpace();
    return pos < in.size() ? in[pos] : '\0';
  }
};

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("malformed request: " + what);
}

// Appends `code` (a Unicode scalar from a \uXXXX escape) as UTF-8.
void AppendUtf8(uint32_t code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

Result<std::string> ParseJsonString(Scanner& s) {
  if (!s.Consume('"')) return Malformed("expected '\"'");
  std::string out;
  while (true) {
    if (s.pos >= s.in.size()) return Malformed("unterminated string");
    char c = s.in[s.pos++];
    if (c == '"') return out;
    if (c != '\\') {
      if (static_cast<unsigned char>(c) < 0x20) {
        return Malformed("unescaped control character in string");
      }
      out.push_back(c);
      continue;
    }
    if (s.pos >= s.in.size()) return Malformed("unterminated escape");
    char e = s.in[s.pos++];
    switch (e) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (s.pos + 4 > s.in.size()) return Malformed("truncated \\u");
        uint32_t code = 0;
        for (int i = 0; i < 4; ++i) {
          char h = s.in[s.pos++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<uint32_t>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<uint32_t>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<uint32_t>(h - 'A' + 10);
          } else {
            return Malformed("bad hex digit in \\u escape");
          }
        }
        // Surrogate pairs never appear in this protocol's payloads
        // (labels are ASCII); reject rather than mis-decode.
        if (code >= 0xD800 && code <= 0xDFFF) {
          return Malformed("surrogate \\u escape unsupported");
        }
        AppendUtf8(code, &out);
        break;
      }
      default:
        return Malformed("unknown escape");
    }
  }
}

Result<int64_t> ParseJsonInt(Scanner& s) {
  s.SkipSpace();
  size_t start = s.pos;
  if (s.pos < s.in.size() && s.in[s.pos] == '-') ++s.pos;
  while (s.pos < s.in.size() &&
         std::isdigit(static_cast<unsigned char>(s.in[s.pos]))) {
    ++s.pos;
  }
  if (s.pos == start || (s.in[start] == '-' && s.pos == start + 1)) {
    return Malformed("expected an integer value");
  }
  errno = 0;
  long long value =
      std::strtoll(std::string(s.in.substr(start, s.pos - start)).c_str(),
                   nullptr, 10);
  if (errno == ERANGE) return Malformed("integer out of range");
  return static_cast<int64_t>(value);
}

Status SetField(Request& req, const std::string& key, Scanner& s) {
  if (key == "verb" || key == "company" || key == "path") {
    TPIIN_ASSIGN_OR_RETURN(std::string value, ParseJsonString(s));
    (key == "verb" ? req.verb : key == "company" ? req.company : req.path) =
        std::move(value);
    return Status::OK();
  }
  int64_t* slot = nullptr;
  if (key == "sub") slot = &req.sub;
  else if (key == "id") slot = &req.id;
  else if (key == "deadline_ms") slot = &req.deadline_ms;
  else if (key == "sub_slice_ms") slot = &req.sub_slice_ms;
  else if (key == "max_sub_nodes") slot = &req.max_sub_nodes;
  else if (key == "max_sub_arcs") slot = &req.max_sub_arcs;
  if (slot == nullptr) return Malformed("unknown key \"" + key + "\"");
  TPIIN_ASSIGN_OR_RETURN(*slot, ParseJsonInt(s));
  return Status::OK();
}

Result<Request> ParseJsonRequest(std::string_view line) {
  Scanner s{line};
  if (!s.Consume('{')) return Malformed("expected '{'");
  Request req;
  if (!s.Consume('}')) {
    while (true) {
      TPIIN_ASSIGN_OR_RETURN(std::string key, ParseJsonString(s));
      if (!s.Consume(':')) return Malformed("expected ':'");
      TPIIN_RETURN_IF_ERROR(SetField(req, key, s));
      if (s.Consume(',')) continue;
      if (s.Consume('}')) break;
      return Malformed("expected ',' or '}'");
    }
  }
  if (!s.AtEnd()) return Malformed("trailing bytes after object");
  return req;
}

// The `verb?key=value&key=value` convenience form. Values are taken
// verbatim (no percent decoding), so labels containing '&' or '=' must
// use the JSON form.
Result<Request> ParseQueryRequest(std::string_view line) {
  Request req;
  size_t qmark = line.find('?');
  std::string_view verb =
      qmark == std::string_view::npos ? line : line.substr(0, qmark);
  req.verb = std::string(verb);
  if (req.verb.empty()) return Malformed("empty verb");
  if (qmark == std::string_view::npos) return req;
  std::string_view rest = line.substr(qmark + 1);
  while (!rest.empty()) {
    size_t amp = rest.find('&');
    std::string_view term =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    if (term.empty()) continue;
    size_t eq = term.find('=');
    if (eq == std::string_view::npos) {
      return Malformed("expected key=value in query");
    }
    std::string key(term.substr(0, eq));
    std::string value(term.substr(eq + 1));
    if (key == "company") {
      req.company = std::move(value);
      continue;
    }
    if (key == "path") {
      req.path = std::move(value);
      continue;
    }
    if (key == "verb") return Malformed("verb belongs before '?'");
    // Re-use the JSON field table for the integer keys.
    Scanner s{value};
    TPIIN_RETURN_IF_ERROR(SetField(req, key, s));
    if (!s.AtEnd()) return Malformed("bad integer for \"" + key + "\"");
  }
  return req;
}

}  // namespace

Result<Request> ParseRequestLine(std::string_view line) {
  while (!line.empty() &&
         std::isspace(static_cast<unsigned char>(line.back()))) {
    line.remove_suffix(1);
  }
  while (!line.empty() &&
         std::isspace(static_cast<unsigned char>(line.front()))) {
    line.remove_prefix(1);
  }
  if (line.empty()) return Status::InvalidArgument("empty request line");
  TPIIN_ASSIGN_OR_RETURN(
      Request req, line.front() == '{' ? ParseJsonRequest(line)
                                       : ParseQueryRequest(line));
  if (req.verb.empty()) {
    return Status::InvalidArgument("malformed request: missing verb");
  }
  return req;
}

std::string SerializeResponse(const Response& response) {
  std::string out = "{";
  if (response.id >= 0) {
    out += StringPrintf("\"id\":%lld,",
                        static_cast<long long>(response.id));
  }
  if (!response.request_id.empty()) {
    out += "\"req\":\"" + JsonEscape(response.request_id) + "\",";
  }
  if (!response.verb.empty()) {
    out += "\"verb\":\"" + JsonEscape(response.verb) + "\",";
  }
  out += "\"status\":\"" + JsonEscape(response.status) + "\"";
  if (response.status == "ok" || response.status == "degraded") {
    out += ",\"payload\":\"" + JsonEscape(response.payload) + "\"";
  }
  if (!response.error.empty()) {
    out += ",\"error\":\"" + JsonEscape(response.error) + "\"";
  }
  out += "}";
  return out;
}

Result<Response> ParseResponseLine(std::string_view line) {
  Scanner s{line};
  if (!s.Consume('{')) {
    return Status::InvalidArgument("malformed response: expected '{'");
  }
  Response resp;
  if (!s.Consume('}')) {
    while (true) {
      TPIIN_ASSIGN_OR_RETURN(std::string key, ParseJsonString(s));
      if (!s.Consume(':')) {
        return Status::InvalidArgument("malformed response: expected ':'");
      }
      if (key == "id") {
        TPIIN_ASSIGN_OR_RETURN(resp.id, ParseJsonInt(s));
      } else if (key == "req" || key == "verb" || key == "status" ||
                 key == "payload" || key == "error") {
        TPIIN_ASSIGN_OR_RETURN(std::string value, ParseJsonString(s));
        if (key == "req") resp.request_id = std::move(value);
        else if (key == "verb") resp.verb = std::move(value);
        else if (key == "status") resp.status = std::move(value);
        else if (key == "payload") resp.payload = std::move(value);
        else resp.error = std::move(value);
      } else {
        return Status::InvalidArgument("malformed response: unknown key \"" +
                                       key + "\"");
      }
      if (s.Consume(',')) continue;
      if (s.Consume('}')) break;
      return Status::InvalidArgument(
          "malformed response: expected ',' or '}'");
    }
  }
  if (!s.AtEnd()) {
    return Status::InvalidArgument(
        "malformed response: trailing bytes after object");
  }
  if (resp.status.empty()) {
    return Status::InvalidArgument("malformed response: missing status");
  }
  return resp;
}

}  // namespace tpiin
