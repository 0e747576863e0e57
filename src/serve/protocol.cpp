#include "serve/protocol.hpp"

#include <cctype>
#include <cstring>
#include <map>
#include <span>

#include "core/json.hpp"
#include "store/serialize.hpp"

namespace ecucsp::serve {

std::string_view to_string(ServeStatus s) {
  switch (s) {
    case ServeStatus::Passed:
      return "passed";
    case ServeStatus::Failed:
      return "FAILED";
    case ServeStatus::TimedOut:
      return "timed out";
    case ServeStatus::Cancelled:
      return "cancelled";
    case ServeStatus::StateLimit:
      return "state limit";
    case ServeStatus::Error:
      return "error";
    case ServeStatus::Overloaded:
      return "overloaded";
    case ServeStatus::ShuttingDown:
      return "shutting down";
    case ServeStatus::BadRequest:
      return "bad request";
  }
  return "?";
}

std::string CheckResponse::verdict_block() const {
  std::string out;
  out += "status: ";
  out += to_string(status);
  out += "\nvacuous: ";
  out += vacuous ? "true" : "false";
  out += "\nstates: " + std::to_string(states);
  out += "\ntransitions: " + std::to_string(transitions);
  out += "\ndigest: " + digest_hex;
  out += "\ncounterexample: " + counterexample;
  out += "\nerror: " + error;
  out += "\n";
  return out;
}

store::Digest request_digest(const CheckRequest& req) {
  store::Hasher h;
  h.str("ecucsp.serve.request");
  h.u32(kServeFormatVersion);
  h.u32(req.assertion_index);
  h.u64(req.max_states);
  h.u32(static_cast<std::uint32_t>(req.sources.size()));
  for (const std::string& s : req.sources) h.str(s);
  return h.finish();
}

// --- binary framing ----------------------------------------------------------

namespace {

std::vector<std::uint8_t> frame(MsgType type, store::ByteWriter payload) {
  std::vector<std::uint8_t> body = payload.take();
  std::vector<std::uint8_t> out;
  out.reserve(body.size() + 6);
  out.push_back(kFrameMagic);
  out.push_back(static_cast<std::uint8_t>(type));
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xFF));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void write_check_request(store::ByteWriter& w, const CheckRequest& req) {
  w.uv(req.id);
  w.uv(req.assertion_index);
  w.uv(req.max_states);
  w.uv(req.timeout_ms);
  w.uv(req.sources.size());
  for (const std::string& s : req.sources) w.str(s);
}

void write_check_response(store::ByteWriter& w, const CheckResponse& r) {
  w.uv(r.id);
  w.u8(static_cast<std::uint8_t>(r.status));
  w.u8(static_cast<std::uint8_t>((r.vacuous ? 1 : 0) |
                                 (r.from_cache ? 2 : 0) |
                                 (r.coalesced ? 4 : 0) |
                                 (r.memo_hit ? 8 : 0)));
  w.uv(r.retry_after_ms);
  w.uv(r.states);
  w.uv(r.transitions);
  w.uv(r.wall_ns);
  w.str(r.digest_hex);
  w.str(r.counterexample);
  w.str(r.error);
}

CheckRequest read_check_request(store::ByteReader& r) {
  CheckRequest req;
  req.id = r.uv();
  req.assertion_index = static_cast<std::uint32_t>(r.uv());
  req.max_states = r.uv();
  req.timeout_ms = static_cast<std::uint32_t>(r.uv());
  const std::uint64_t n = r.uv();
  if (n > 1024) throw ProtocolError("too many sources");
  req.sources.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) req.sources.push_back(r.str());
  return req;
}

CheckResponse read_check_response(store::ByteReader& r) {
  CheckResponse resp;
  resp.id = r.uv();
  resp.status = static_cast<ServeStatus>(r.u8());
  const std::uint8_t flags = r.u8();
  resp.vacuous = (flags & 1) != 0;
  resp.from_cache = (flags & 2) != 0;
  resp.coalesced = (flags & 4) != 0;
  resp.memo_hit = (flags & 8) != 0;
  resp.retry_after_ms = static_cast<std::uint32_t>(r.uv());
  resp.states = r.uv();
  resp.transitions = r.uv();
  resp.wall_ns = r.uv();
  resp.digest_hex = r.str();
  resp.counterexample = r.str();
  resp.error = r.str();
  return resp;
}

// --- JSON framing ------------------------------------------------------------

// A deliberately small, strict JSON reader: objects, arrays, strings
// (with \uXXXX), numbers, booleans, null. Enough for the fallback framing;
// anything it cannot parse is a ProtocolError and closes the connection.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  // Parses one value and requires only whitespace after it.
  void parse_line();

  // Extracted top-level object fields (nested values are kept raw).
  bool has(const std::string& k) const { return fields_.count(k) != 0; }
  std::string_view raw(const std::string& k) const {
    auto it = fields_.find(k);
    if (it == fields_.end()) throw ProtocolError("missing field '" + k + "'");
    return it->second;
  }
  std::string string_field(const std::string& k) const;
  std::uint64_t uint_field(const std::string& k) const;
  std::vector<std::string> string_array_field(const std::string& k) const;
  bool bool_field(const std::string& k) const;

 private:
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\r' || s_[i_] == '\n'))
      ++i_;
  }
  char peek() {
    if (i_ >= s_.size()) throw ProtocolError("truncated JSON");
    return s_[i_];
  }
  void expect(char c) {
    if (i_ >= s_.size() || s_[i_] != c) {
      throw ProtocolError(std::string("expected '") + c + "' in JSON");
    }
    ++i_;
  }
  /// Skips one value, returning its raw extent.
  std::string_view skip_value();
  std::string parse_string();

  std::string_view s_;
  std::size_t i_ = 0;
  std::map<std::string, std::string_view> fields_;
};

std::string JsonParser::parse_string() {
  expect('"');
  std::string out;
  while (true) {
    if (i_ >= s_.size()) throw ProtocolError("unterminated JSON string");
    const char c = s_[i_++];
    if (c == '"') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (i_ >= s_.size()) throw ProtocolError("truncated escape");
    const char e = s_[i_++];
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
        if (i_ + 4 > s_.size()) throw ProtocolError("truncated \\u escape");
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = s_[i_++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else throw ProtocolError("bad \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs unsupported —
        // the binary framing carries arbitrary bytes, JSON is the fallback).
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        throw ProtocolError("bad escape in JSON string");
    }
  }
}

std::string_view JsonParser::skip_value() {
  ws();
  const std::size_t start = i_;
  const char c = peek();
  if (c == '"') {
    parse_string();
  } else if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    ++i_;
    int depth = 1;
    while (depth > 0) {
      if (i_ >= s_.size()) throw ProtocolError("unbalanced JSON");
      const char d = s_[i_];
      if (d == '"') {
        parse_string();
        continue;
      }
      if (d == '{' || d == '[') ++depth;
      if (d == '}' || d == ']') --depth;
      ++i_;
    }
    (void)close;
  } else if (c == 't') {
    if (s_.substr(i_, 4) != "true") throw ProtocolError("bad JSON literal");
    i_ += 4;
  } else if (c == 'f') {
    if (s_.substr(i_, 5) != "false") throw ProtocolError("bad JSON literal");
    i_ += 5;
  } else if (c == 'n') {
    if (s_.substr(i_, 4) != "null") throw ProtocolError("bad JSON literal");
    i_ += 4;
  } else if (c == '-' || (c >= '0' && c <= '9')) {
    ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '.' ||
            s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' || s_[i_] == '-'))
      ++i_;
  } else {
    throw ProtocolError("unexpected character in JSON");
  }
  return s_.substr(start, i_ - start);
}

void JsonParser::parse_line() {
  ws();
  expect('{');
  ws();
  if (peek() == '}') {
    ++i_;
  } else {
    while (true) {
      ws();
      std::string key = parse_string();
      ws();
      expect(':');
      fields_[key] = skip_value();
      ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect('}');
      break;
    }
  }
  ws();
  if (i_ != s_.size()) throw ProtocolError("trailing bytes after JSON object");
}

std::string JsonParser::string_field(const std::string& k) const {
  JsonParser sub(raw(k));
  sub.ws();
  return sub.parse_string();
}

std::uint64_t JsonParser::uint_field(const std::string& k) const {
  const std::string_view v = raw(k);
  std::uint64_t out = 0;
  bool any = false;
  for (char c : v) {
    if (c < '0' || c > '9') throw ProtocolError("field '" + k + "' not a uint");
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
    any = true;
  }
  if (!any) throw ProtocolError("field '" + k + "' empty");
  return out;
}

bool JsonParser::bool_field(const std::string& k) const {
  const std::string_view v = raw(k);
  if (v == "true") return true;
  if (v == "false") return false;
  throw ProtocolError("field '" + k + "' not a bool");
}

std::vector<std::string> JsonParser::string_array_field(
    const std::string& k) const {
  JsonParser sub(raw(k));
  sub.ws();
  sub.expect('[');
  std::vector<std::string> out;
  sub.ws();
  if (sub.peek() == ']') return out;
  while (true) {
    sub.ws();
    out.push_back(sub.parse_string());
    sub.ws();
    if (sub.peek() == ',') {
      ++sub.i_;
      continue;
    }
    sub.expect(']');
    return out;
  }
}

ServeStatus status_from_string(std::string_view s) {
  for (std::uint8_t i = 0; i <= static_cast<std::uint8_t>(ServeStatus::BadRequest);
       ++i) {
    if (to_string(static_cast<ServeStatus>(i)) == s) {
      return static_cast<ServeStatus>(i);
    }
  }
  throw ProtocolError("unknown status '" + std::string(s) + "'");
}

std::vector<std::uint8_t> json_line(std::string line) {
  line.push_back('\n');
  return std::vector<std::uint8_t>(line.begin(), line.end());
}

Msg decode_json_line(std::string_view line) {
  JsonParser p(line);
  p.parse_line();
  if (!p.has("op")) throw ProtocolError("JSON message without \"op\"");
  const std::string op = p.string_field("op");
  Msg m;
  m.json = true;
  if (op == "check") {
    m.type = MsgType::CheckRequest;
    if (p.has("id")) m.check.id = p.uint_field("id");
    if (p.has("assertion"))
      m.check.assertion_index = static_cast<std::uint32_t>(p.uint_field("assertion"));
    if (p.has("max_states")) m.check.max_states = p.uint_field("max_states");
    if (p.has("timeout_ms"))
      m.check.timeout_ms = static_cast<std::uint32_t>(p.uint_field("timeout_ms"));
    m.check.sources = p.string_array_field("sources");
  } else if (op == "check_result") {
    m.type = MsgType::CheckResponse;
    CheckResponse& r = m.response;
    if (p.has("id")) r.id = p.uint_field("id");
    r.status = status_from_string(p.string_field("status"));
    if (p.has("vacuous")) r.vacuous = p.bool_field("vacuous");
    if (p.has("from_cache")) r.from_cache = p.bool_field("from_cache");
    if (p.has("coalesced")) r.coalesced = p.bool_field("coalesced");
    if (p.has("memo_hit")) r.memo_hit = p.bool_field("memo_hit");
    if (p.has("retry_after_ms"))
      r.retry_after_ms = static_cast<std::uint32_t>(p.uint_field("retry_after_ms"));
    if (p.has("states")) r.states = p.uint_field("states");
    if (p.has("transitions")) r.transitions = p.uint_field("transitions");
    if (p.has("wall_ns")) r.wall_ns = p.uint_field("wall_ns");
    if (p.has("digest")) r.digest_hex = p.string_field("digest");
    if (p.has("counterexample")) r.counterexample = p.string_field("counterexample");
    if (p.has("error")) r.error = p.string_field("error");
  } else if (op == "stats") {
    m.type = MsgType::StatsRequest;
  } else if (op == "stats_result") {
    m.type = MsgType::StatsResponse;
    m.stats_json = std::string(p.raw("stats"));
  } else if (op == "ping") {
    m.type = MsgType::Ping;
  } else if (op == "pong") {
    m.type = MsgType::Pong;
  } else {
    throw ProtocolError("unknown op '" + op + "'");
  }
  return m;
}

}  // namespace

std::vector<std::uint8_t> encode(const CheckRequest& req, bool json) {
  if (!json) {
    store::ByteWriter w;
    write_check_request(w, req);
    return frame(MsgType::CheckRequest, std::move(w));
  }
  std::string line = "{\"op\":\"check\",\"id\":" + std::to_string(req.id) +
                     ",\"assertion\":" + std::to_string(req.assertion_index) +
                     ",\"max_states\":" + std::to_string(req.max_states) +
                     ",\"timeout_ms\":" + std::to_string(req.timeout_ms) +
                     ",\"sources\":[";
  for (std::size_t i = 0; i < req.sources.size(); ++i) {
    if (i) line += ',';
    line += '"' + json_escape(req.sources[i]) + '"';
  }
  line += "]}";
  return json_line(std::move(line));
}

std::vector<std::uint8_t> encode(const CheckResponse& r, bool json) {
  if (!json) {
    store::ByteWriter w;
    write_check_response(w, r);
    return frame(MsgType::CheckResponse, std::move(w));
  }
  std::string line =
      "{\"op\":\"check_result\",\"id\":" + std::to_string(r.id) +
      ",\"status\":\"" + std::string(to_string(r.status)) + "\"" +
      ",\"vacuous\":" + (r.vacuous ? "true" : "false") +
      ",\"from_cache\":" + (r.from_cache ? "true" : "false") +
      ",\"coalesced\":" + (r.coalesced ? "true" : "false") +
      ",\"memo_hit\":" + (r.memo_hit ? "true" : "false") +
      ",\"retry_after_ms\":" + std::to_string(r.retry_after_ms) +
      ",\"states\":" + std::to_string(r.states) +
      ",\"transitions\":" + std::to_string(r.transitions) +
      ",\"wall_ns\":" + std::to_string(r.wall_ns) +
      ",\"digest\":\"" + json_escape(r.digest_hex) + "\"" +
      ",\"counterexample\":\"" + json_escape(r.counterexample) + "\"" +
      ",\"error\":\"" + json_escape(r.error) + "\"}";
  return json_line(std::move(line));
}

std::vector<std::uint8_t> encode_stats_request(bool json) {
  if (json) return json_line("{\"op\":\"stats\"}");
  return frame(MsgType::StatsRequest, store::ByteWriter{});
}

std::vector<std::uint8_t> encode_stats_response(const std::string& stats_json,
                                                bool json) {
  if (json) {
    return json_line("{\"op\":\"stats_result\",\"stats\":" + stats_json + "}");
  }
  store::ByteWriter w;
  w.str(stats_json);
  return frame(MsgType::StatsResponse, std::move(w));
}

std::vector<std::uint8_t> encode_ping(bool json) {
  if (json) return json_line("{\"op\":\"ping\"}");
  return frame(MsgType::Ping, store::ByteWriter{});
}

std::vector<std::uint8_t> encode_pong(bool json) {
  if (json) return json_line("{\"op\":\"pong\"}");
  return frame(MsgType::Pong, store::ByteWriter{});
}

void FrameBuffer::feed(const void* data, std::size_t n) {
  // Compact consumed bytes before growing; keeps the buffer proportional
  // to one frame, not the whole connection history.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > (64u << 10))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + n);
  if (buf_.size() - pos_ > max_frame_ + 6) {
    throw ProtocolError("frame exceeds maximum size");
  }
}

std::optional<Msg> FrameBuffer::next() {
  const std::size_t avail = buf_.size() - pos_;
  if (avail == 0) return std::nullopt;
  const std::uint8_t first = buf_[pos_];

  if (first == kFrameMagic) {
    if (avail < 6) return std::nullopt;
    const std::uint8_t type = buf_[pos_ + 1];
    const std::uint32_t len = static_cast<std::uint32_t>(buf_[pos_ + 2]) |
                              (static_cast<std::uint32_t>(buf_[pos_ + 3]) << 8) |
                              (static_cast<std::uint32_t>(buf_[pos_ + 4]) << 16) |
                              (static_cast<std::uint32_t>(buf_[pos_ + 5]) << 24);
    if (len > max_frame_) throw ProtocolError("frame exceeds maximum size");
    if (avail < 6u + len) return std::nullopt;
    const std::span<const std::uint8_t> payload(buf_.data() + pos_ + 6, len);
    pos_ += 6u + len;
    Msg m;
    m.json = false;
    store::ByteReader r(payload);
    try {
      switch (static_cast<MsgType>(type)) {
        case MsgType::CheckRequest:
          m.type = MsgType::CheckRequest;
          m.check = read_check_request(r);
          break;
        case MsgType::CheckResponse:
          m.type = MsgType::CheckResponse;
          m.response = read_check_response(r);
          break;
        case MsgType::StatsRequest:
          m.type = MsgType::StatsRequest;
          break;
        case MsgType::StatsResponse:
          m.type = MsgType::StatsResponse;
          m.stats_json = r.str();
          break;
        case MsgType::Ping:
          m.type = MsgType::Ping;
          break;
        case MsgType::Pong:
          m.type = MsgType::Pong;
          break;
        default:
          throw ProtocolError("unknown frame type " + std::to_string(type));
      }
    } catch (const store::SerializeError& e) {
      throw ProtocolError(e.what());
    }
    return m;
  }

  if (first == '{') {
    // JSON-lines: wait for the newline terminator.
    for (std::size_t i = pos_; i < buf_.size(); ++i) {
      if (buf_[i] == '\n') {
        const std::string_view line(
            reinterpret_cast<const char*>(buf_.data() + pos_), i - pos_);
        Msg m = decode_json_line(line);
        pos_ = i + 1;
        return m;
      }
    }
    return std::nullopt;
  }

  // Tolerate blank lines between JSON messages; anything else is garbage.
  if (first == '\n' || first == '\r' || first == ' ' || first == '\t') {
    ++pos_;
    return next();
  }
  throw ProtocolError("unrecognised framing byte");
}

namespace {

// strerror_r comes in two flavours — GNU returns char* (possibly a static
// string, ignoring the buffer), POSIX returns int and fills the buffer.
// Overload resolution picks the right reading without feature-test macros;
// the overload the C library does not pick is unused, hence maybe_unused.
[[maybe_unused]] const char* strerror_result(const char* returned,
                                             const char*) {
  return returned;
}
[[maybe_unused]] const char* strerror_result(int rc, const char* buf) {
  return rc == 0 ? buf : "unknown error";
}

}  // namespace

std::string errno_text(int err) {
  char buf[256] = {};
  return strerror_result(::strerror_r(err, buf, sizeof buf), buf);
}

}  // namespace ecucsp::serve
