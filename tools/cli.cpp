#include "cli.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace memreal::cli {

namespace {

const char* g_tool = "memreal";
const char* g_hint = "run with --help for usage";

[[noreturn]] void bad_value(const std::string& flag, const char* value,
                            const char* why) {
  usage_error("bad value '" + std::string(value) + "' for " + flag + ": " +
              why);
}

}  // namespace

void set_tool(const char* name, const char* hint) {
  g_tool = name;
  g_hint = hint;
}

void usage_error(const std::string& what) {
  std::fprintf(stderr, "%s: %s (%s)\n", g_tool, what.c_str(), g_hint);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* value) {
  // strtoull would silently wrap negatives ("-1" -> 2^64-1); reject them.
  if (value[0] == '-' || value[0] == '+') {
    bad_value(flag, value, "not an unsigned integer");
  }
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    bad_value(flag, value, "not an unsigned integer");
  }
  if (errno == ERANGE) bad_value(flag, value, "out of range");
  return v;
}

double parse_double(const std::string& flag, const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') bad_value(flag, value, "not a number");
  // strtod accepts "nan" and "inf" and overflows to infinity; NaN would
  // slip through every range check a caller writes as a comparison.
  if (!std::isfinite(v)) bad_value(flag, value, "not a finite number");
  return v;
}

void parse_engine(const char* value, std::string& engine, bool& arena) {
  engine = value;
  if (engine == "arena") {
    engine = "validated";
    arena = true;
  } else if (engine != "validated" && engine != "release") {
    usage_error("--engine must be 'validated', 'release', or 'arena'");
  }
}

}  // namespace memreal::cli
