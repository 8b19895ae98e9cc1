// The library's one JSON string writer: printf-style appends plus string
// escaping. Scenario packs (harness/scenario_config.h) and sweep reports
// (harness/scenario.h) both serialize through it, so their output stays
// byte-identical and parseable by the scenario reader.
#pragma once

#include <string>

namespace pig {

/// Appends printf-formatted text (at most 255 bytes per call) to `out`.
void AppendF(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Escapes `s` for a JSON string body: quote, backslash, \n and \t get
/// their short forms, every other control character becomes \u00XX.
std::string JsonEscape(const std::string& s);

}  // namespace pig
