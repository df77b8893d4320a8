// Flag-value helpers shared by the memreal command-line tools.
//
// Every tool reports a bad invocation the same way: one stderr line
// prefixed with the tool's name, exit status 2, nothing on stdout.  The
// number parsers refuse anything that is not a complete, in-range, finite
// value, so a flag like `--eps nan` or an overflowing `--updates` is a
// usage error instead of reaching the library.
#pragma once

#include <cstdint>
#include <string>

namespace memreal::cli {

/// Names the running tool in usage errors; `hint` follows the message in
/// parentheses.  Call once at the top of main.
void set_tool(const char* name,
              const char* hint = "run with --help for usage");

/// Prints "<tool>: <what> (<hint>)" to stderr and exits with status 2.
[[noreturn]] void usage_error(const std::string& what);

/// A whole unsigned decimal; signs, trailing text and values beyond
/// 2^64-1 are usage errors naming `flag`.
[[nodiscard]] std::uint64_t parse_u64(const std::string& flag,
                                      const char* value);

/// A whole finite number; trailing text, NaN, infinities and values that
/// overflow a double are usage errors naming `flag`.
[[nodiscard]] double parse_double(const std::string& flag, const char* value);

/// Resolves an `--engine` value: "validated" and "release" name the cell
/// store, "arena" is an alias for `--arena` over the validated store.
/// Anything else is a usage error.
void parse_engine(const char* value, std::string& engine, bool& arena);

}  // namespace memreal::cli
