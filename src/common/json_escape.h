// JSON string escaping, shared by every JSON writer: core::Json and the
// trace writer (workload/trace_io.h).
#pragma once

#include <string>
#include <string_view>

namespace pe {

// `s` escaped for use between the quotes of a JSON string: quote and
// backslash, the controls \b \f \n \r \t by name, and the other control
// characters below 0x20 as \u00XX.  Other bytes pass through unchanged.
std::string JsonEscape(std::string_view s);

}  // namespace pe
