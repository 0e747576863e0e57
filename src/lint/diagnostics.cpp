#include "lint/diagnostics.hpp"

#include <algorithm>
#include <sstream>

#include "core/json.hpp"

namespace ecucsp::lint {

std::string_view to_string(Severity s) {
  switch (s) {
    case Severity::Note:
      return "note";
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
  }
  return "?";
}

std::size_t DiagnosticSink::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == s) ++n;
  }
  return n;
}

void DiagnosticSink::finalize() {
  std::sort(diags_.begin(), diags_.end());
  diags_.erase(std::unique(diags_.begin(), diags_.end(),
                           [](const Diagnostic& a, const Diagnostic& b) {
                             return !(a < b) && !(b < a);
                           }),
               diags_.end());
}

namespace {

/// Line `line` (1-based) of `text`, without the trailing newline.
std::string_view source_line(std::string_view text, int line) {
  if (line <= 0) return {};
  std::size_t start = 0;
  for (int l = 1; l < line; ++l) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) return {};
    start = nl + 1;
  }
  const std::size_t end = text.find('\n', start);
  return text.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                          : end - start);
}

void append_caret_block(std::string& out, std::string_view src_line,
                        const Span& span) {
  const std::string lineno = std::to_string(span.line);
  out += "  " + lineno + " | ";
  out += src_line;
  out += "\n  ";
  out.append(lineno.size(), ' ');
  out += " | ";
  // Mirror the source prefix character-for-character, mapping every
  // non-tab character to a space and keeping tabs as tabs: the caret then
  // lands under the spanned text whatever tab width the terminal uses.
  const std::size_t col = span.column > 0 ? span.column - 1 : 0;
  for (std::size_t i = 0; i < col && i < src_line.size(); ++i) {
    out += src_line[i] == '\t' ? '\t' : ' ';
  }
  out += '^';
  for (int i = 1; i < span.length; ++i) out += '~';
  out += '\n';
}

}  // namespace

std::string render_text(const std::vector<Diagnostic>& diags,
                        const SourceMap& sources) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += d.file;
    if (d.span.line > 0) {
      out += ':' + std::to_string(d.span.line) + ':' +
             std::to_string(d.span.column);
    }
    out += ": ";
    out += to_string(d.severity);
    out += ": " + d.message + " [" + d.rule + "]\n";
    const auto source = sources.find(d.file);
    if (d.span.line > 0 && source != sources.end()) {
      const std::string_view line = source_line(source->second, d.span.line);
      if (!line.empty()) append_caret_block(out, line, d.span);
    }
    // Flow chain: one note per step, source first, each with its own caret.
    for (const ChainStep& step : d.chain) {
      out += d.file;
      if (step.span.line > 0) {
        out += ':' + std::to_string(step.span.line) + ':' +
               std::to_string(step.span.column);
      }
      out += ": note: " + step.note + "\n";
      if (step.span.line > 0 && source != sources.end()) {
        const std::string_view line =
            source_line(source->second, step.span.line);
        if (!line.empty()) append_caret_block(out, line, step.span);
      }
    }
  }
  return out;
}

std::string render_json(const std::vector<Diagnostic>& diags) {
  std::string out = "{\"lint_format\":2,\"diagnostics\":[";
  bool first = true;
  std::size_t errors = 0, warnings = 0, notes = 0;
  for (const Diagnostic& d : diags) {
    switch (d.severity) {
      case Severity::Error: ++errors; break;
      case Severity::Warning: ++warnings; break;
      case Severity::Note: ++notes; break;
    }
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":\"";
    json_escape(out, d.rule);
    out += "\",\"severity\":\"";
    out += to_string(d.severity);
    out += "\",\"file\":\"";
    json_escape(out, d.file);
    out += "\",\"line\":" + std::to_string(d.span.line) +
           ",\"column\":" + std::to_string(d.span.column) +
           ",\"length\":" + std::to_string(d.span.length) + ",\"message\":\"";
    json_escape(out, d.message);
    out += '"';
    if (!d.chain.empty()) {
      out += ",\"chain\":[";
      bool first_step = true;
      for (const ChainStep& step : d.chain) {
        if (!first_step) out += ',';
        first_step = false;
        out += "{\"line\":" + std::to_string(step.span.line) +
               ",\"column\":" + std::to_string(step.span.column) +
               ",\"length\":" + std::to_string(step.span.length) +
               ",\"note\":\"";
        json_escape(out, step.note);
        out += "\"}";
      }
      out += ']';
    }
    out += '}';
  }
  out += "],\"summary\":{\"errors\":" + std::to_string(errors) +
         ",\"warnings\":" + std::to_string(warnings) +
         ",\"notes\":" + std::to_string(notes) + "}}\n";
  return out;
}

std::string summary_line(const std::vector<Diagnostic>& diags) {
  std::size_t errors = 0, warnings = 0, notes = 0;
  for (const Diagnostic& d : diags) {
    switch (d.severity) {
      case Severity::Error: ++errors; break;
      case Severity::Warning: ++warnings; break;
      case Severity::Note: ++notes; break;
    }
  }
  std::ostringstream out;
  out << errors << " error(s), " << warnings << " warning(s)";
  if (notes) out << ", " << notes << " note(s)";
  return out.str();
}

}  // namespace ecucsp::lint
