#include "common/json.h"

#include <cstdarg>
#include <cstdio>

namespace pig {

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out += c;
        } else {
          AppendF(out, "\\u%04x", static_cast<unsigned>(c));
        }
    }
  }
  return out;
}

}  // namespace pig
