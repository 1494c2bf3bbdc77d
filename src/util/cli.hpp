#pragma once
// Tiny command-line parser for the tools/ binaries: long options with values
// (--days 6), boolean flags (--no-atlas), positionals, and generated help.
// No dependencies, strict by default (unknown options are errors).

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cloudrtt::util {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Declare an option taking a value, e.g. add_option("days", "6", "...").
  void add_option(std::string name, std::string default_value, std::string help);
  /// Declare a boolean flag (false unless present).
  void add_flag(std::string name, std::string help);
  /// Declare a positional argument (required in declaration order unless a
  /// default is given).
  void add_positional(std::string name, std::string help,
                      std::optional<std::string> default_value = std::nullopt);

  /// Parse argv. Returns false (after printing a message) on error or when
  /// --help was requested.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] const std::string& get(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  /// The whole value as a base-10 integer; throws std::invalid_argument
  /// naming the option for anything else ("abc", "3x", "", out of range).
  [[nodiscard]] long get_int(std::string_view name) const;
  /// get_int() for a count stored as T: also rejects, the same way, a value
  /// below 0 or above `max` (T's maximum by default).
  template <std::unsigned_integral T = std::size_t>
  [[nodiscard]] T get_count(std::string_view name,
                            T max = std::numeric_limits<T>::max()) const {
    return static_cast<T>(count_up_to(name, max));
  }
  [[nodiscard]] bool get_flag(std::string_view name) const;

  [[nodiscard]] std::string help() const;
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  struct Option {
    std::string name;
    std::string value;
    std::string help;
    bool is_flag = false;
    bool flag_set = false;
  };
  struct Positional {
    std::string name;
    std::string help;
    std::optional<std::string> value;
    bool has_default = false;
  };

  [[nodiscard]] std::uint64_t count_up_to(std::string_view name,
                                          std::uint64_t max) const;
  Option* find(std::string_view name);
  [[nodiscard]] const Option* find(std::string_view name) const;

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<Positional> positionals_;
  std::string error_;
};

}  // namespace cloudrtt::util
