// JSON string escaping shared by every writer that emits JSON text: batch
// results, Chrome trace events, and lint reports.
#pragma once

#include <iosfwd>
#include <string_view>

namespace enb::util {

// Writes `text` as the body of a JSON string literal (no surrounding
// quotes): '"' and '\\' are backslash-escaped, newline and tab use their
// short forms, and every other byte below 0x20 becomes a four-digit
// \u00XX escape. Bytes >= 0x20 pass through unchanged.
void json_escape(std::ostream& out, std::string_view text);

}  // namespace enb::util
