#include "util/json.hpp"

#include <ostream>

namespace enb::util {

void json_escape(std::ostream& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (c == '\n') {
      out << "\\n";
    } else if (c == '\t') {
      out << "\\t";
    } else if (byte < 0x20) {
      out << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xF];
    } else {
      out << c;
    }
  }
}

}  // namespace enb::util
