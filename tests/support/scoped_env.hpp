#pragma once

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace ityr::test {

/// Environment overrides for one scope. Every variable set or unset through
/// it gets its earlier state back when the scope ends, also when an
/// assertion fails or the test throws part-way, so no ITYR_* value leaks
/// into a later options::from_env() in the same gtest process.
class scoped_env {
public:
  scoped_env() = default;
  /// Sets `name` to `value` for the scope.
  scoped_env(const char* name, const char* value) { set(name, value); }
  ~scoped_env() {
    for (const saved_var& s : saved_) {
      if (s.value) {
        ::setenv(s.name.c_str(), s.value->c_str(), 1);
      } else {
        ::unsetenv(s.name.c_str());
      }
    }
  }
  scoped_env(const scoped_env&) = delete;
  scoped_env& operator=(const scoped_env&) = delete;

  /// Sets `name` until the scope ends; a null `value` unsets it.
  void set(const char* name, const char* value) {
    save(name);
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  void unset(const char* name) { set(name, nullptr); }

private:
  struct saved_var {
    std::string name;
    std::optional<std::string> value;  ///< empty: the variable was unset
  };

  /// Records the state to restore, on the first touch of `name` only.
  void save(const char* name) {
    for (const saved_var& s : saved_) {
      if (s.name == name) return;
    }
    const char* v = std::getenv(name);
    saved_.push_back({name, v != nullptr ? std::optional<std::string>(v) : std::nullopt});
  }

  std::vector<saved_var> saved_;
};

}  // namespace ityr::test
