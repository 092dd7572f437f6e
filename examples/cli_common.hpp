// cli_common — argument-parsing helpers shared by the example programs
// (stabl_cli, regression_gate).
//
// Chain and fault names resolve through the registry
// (core::parse_chain_name / core::fault_from_name), so every program gets
// case-insensitive matching and error messages that list the valid names,
// and a newly linked chain plugin is accepted everywhere at once. Numeric
// arguments are as strict as the scenario JSON path: the whole token must
// parse and the value must be finite and in range, or the program exits 2
// naming the argument.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/fault.hpp"

namespace stabl::cli {

/// The examples' shared usage-error exit: message (and an optional hint
/// line) to stderr, exit code 2.
[[noreturn]] inline void fail(const char* argv0, const std::string& message,
                              const std::string& hint = {}) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  if (!hint.empty()) std::fprintf(stderr, "%s\n", hint.c_str());
  std::exit(2);
}

/// The examples' shared "where to find the docs" hint line.
inline std::string help_hint(const char* argv0) {
  return "run '" + std::string(argv0) + " --help' for the full flag list";
}

/// The examples' shared unknown-flag exit: every driver reports an unknown
/// flag the same way — the flag by name, the --help hint, exit code 2.
[[noreturn]] inline void fail_unknown_flag(const char* argv0,
                                           const std::string& flag) {
  fail(argv0, "unknown flag '" + flag + "'", help_hint(argv0));
}

/// The largest magnitude a scenario file accepts for an integer field, so a
/// flag never takes a value its --dump-scenario output could not replay.
inline constexpr std::int64_t kMaxInteger = 9'000'000'000'000'000;

/// The whole of `text` as a base-10 integer in [min, max]; exits 2 naming
/// the argument `name` otherwise ("30x", "abc", "" and "+1" are rejected).
inline std::int64_t parse_integer_or_exit(const std::string& text,
                                          const char* argv0,
                                          const std::string& name,
                                          std::int64_t min,
                                          std::int64_t max = kMaxInteger) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < min || value > max) {
    fail(argv0,
         name + " must be an integer >= " + std::to_string(min) +
             (max < kMaxInteger ? " and <= " + std::to_string(max) : "") +
             " (got '" + text + "')",
         help_hint(argv0));
  }
  return value;
}

/// The whole of `text` as a finite decimal number; exits 2 naming the
/// argument `name` otherwise ("on", "0.5s", "nan" and "1e999" are
/// rejected). Field ranges are checked where the value is used.
inline double parse_number_or_exit(const std::string& text, const char* argv0,
                                   const std::string& name) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    fail(argv0, name + " must be a finite number (got '" + text + "')",
         help_hint(argv0));
  }
  return value;
}

/// Registry-backed chain lookup, case-insensitive; exits 2 listing the
/// valid names when unknown.
inline core::ChainKind parse_chain_or_exit(const std::string& name,
                                           const char* argv0,
                                           const std::string& hint = {}) {
  try {
    return core::parse_chain_name(name);
  } catch (const std::invalid_argument& error) {
    fail(argv0, error.what(), hint);
  }
}

/// Fault-type lookup, case-insensitive; exits 2 listing the valid names
/// when unknown.
inline core::FaultType parse_fault_or_exit(const std::string& name,
                                           const char* argv0,
                                           const std::string& hint = {}) {
  try {
    return core::fault_from_name(name);
  } catch (const std::invalid_argument& error) {
    fail(argv0, error.what(), hint);
  }
}

/// Comma-separated node ids ("0,1"); exits 2 on an empty list or on a
/// token that is not a node id. `flag` names the flag in the error message.
inline std::vector<net::NodeId> parse_node_ids_or_exit(
    const std::string& list, const char* argv0, const std::string& flag,
    const std::string& hint = {}) {
  std::vector<net::NodeId> ids;
  for (std::size_t pos = 0; pos < list.size();) {
    const std::size_t comma = list.find(',', pos);
    const std::string token =
        list.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    ids.push_back(static_cast<net::NodeId>(parse_integer_or_exit(
        token, argv0, flag + " id", 0,
        std::numeric_limits<net::NodeId>::max())));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (ids.empty()) fail(argv0, flag + " needs at least one id", hint);
  return ids;
}

/// Writes `body` to `path`, exiting 1 on I/O failure. The harness's output
/// files are small (traces a few MB at most), so one buffered fwrite is
/// fine.
inline void write_file_or_die(const char* argv0, const std::string& path,
                              const std::string& body) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s for writing\n", argv0,
                 path.c_str());
    std::exit(1);
  }
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), out);
  if (std::fclose(out) != 0 || written != body.size()) {
    std::fprintf(stderr, "%s: short write to %s\n", argv0, path.c_str());
    std::exit(1);
  }
}

inline bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// Stable 64-bit FNV-1a — chaos repro file naming only (not a crypto
/// hash).
inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// File stem of a chaos trial's repro files under --out:
/// "chaos_<chain>_trial<K>_seed<S>_plan<H>" where H is the first 8 hex
/// digits of fnv1a over the (minimized) schedule JSON. One campaign can
/// produce several violations for the same chain, and reruns with
/// different root seeds land different schedules on the same trial index —
/// the seed and plan-hash suffixes keep every repro file distinct.
inline std::string chaos_repro_stem(const std::string& chain,
                                    std::size_t trial, std::uint64_t seed,
                                    const std::string& schedule_json) {
  char hash_hex[9];
  std::snprintf(hash_hex, sizeof(hash_hex), "%08x",
                static_cast<unsigned>(fnv1a(schedule_json) >> 32));
  return "chaos_" + chain + "_trial" + std::to_string(trial) + "_seed" +
         std::to_string(seed) + "_plan" + hash_hex;
}

}  // namespace stabl::cli
