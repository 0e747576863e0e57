// JSON string escaping shared by every JSON writer in the toolchain (lint,
// conform, replay, learn and the serve wire protocol). The renderers stay
// with their modules; only the string-literal encoding lives here, so every
// report escapes the same bytes the same way.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ecucsp {

/// Append `s` to `out` as the body of a JSON string literal (no quotes):
/// '"' and '\\' are backslash-escaped, \n \r \t use their short forms and
/// every other control byte becomes \u00XX. Other bytes pass through, so
/// UTF-8 input stays UTF-8.
void json_escape(std::string& out, std::string_view s);
std::string json_escape(std::string_view s);

/// ["a","b",...] with each element escaped as above.
std::string json_string_list(const std::vector<std::string>& xs);

}  // namespace ecucsp
