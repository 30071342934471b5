// The ITYR_* knob table (common::for_each_env_knob): every row round-trips
// through options::from_env(), and the knob tables of README.md and
// docs/observability.md list exactly the table's variables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <set>
#include <string>
#include <type_traits>

#include "../support/scoped_env.hpp"
#include "itoyori/common/options.hpp"

namespace ic = ityr::common;
using ityr::test::scoped_env;

namespace {

/// `v` spelled as the environment spells it.
template <typename T>
std::string env_text(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return v;
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else if constexpr (std::is_same_v<T, ic::topology_spec>) {
    return v.str();
  } else if constexpr (std::is_enum_v<T>) {
    return ic::to_string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);  // exact: strtod reads it back bit for bit
    return buf;
  } else {
    return std::to_string(v);
  }
}

/// A value the parser of a `T` field must reject; null for a path, which
/// takes any text.
template <typename T>
const char* malformed_text() {
  if constexpr (std::is_same_v<T, std::string>) return nullptr;
  if constexpr (std::is_same_v<T, bool>) return "yes";
  return "banana";
}

/// The field that knob `name` sets in `o`, spelled as the environment
/// spells it.
std::string field_text(const ic::options& o, const std::string& name) {
  std::string text;
  ic::for_each_env_knob(o, [&](const char* n, const auto& field, const auto&) {
    if (name == n) text = env_text(field);
  });
  return text;
}

std::set<std::string> table_knobs() {
  std::set<std::string> names;
  const ic::options o;
  ic::for_each_env_knob(o, [&](const char* n, const auto&, const auto&) { names.insert(n); });
  return names;
}

/// The ITYR_* names in the first cell of every table row of `path`, a file
/// of the source tree.
std::set<std::string> documented_knobs(const std::string& path) {
  std::ifstream in(std::string(ITYR_SOURCE_DIR) + "/" + path);
  EXPECT_TRUE(in.is_open()) << path;
  std::set<std::string> names;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '|') continue;
    std::size_t end = 1;  // the cell ends at the first unescaped '|'
    while (end < line.size() && !(line[end] == '|' && line[end - 1] != '\\')) end++;
    const std::string cell = line.substr(1, end - 1);
    for (std::size_t at = cell.find("ITYR_"); at != std::string::npos; at = cell.find("ITYR_", at)) {
      const std::size_t stop =
          std::min(cell.find_first_not_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_", at), cell.size());
      names.insert(cell.substr(at, stop - at));
      at = stop;
    }
  }
  return names;
}

}  // namespace

TEST(Options, FromEnvOverrides) {
  // Per row: a non-default value round-trips, an empty value means the
  // default, and a malformed value is rejected naming the variable.
  const ic::options defaults;
  ic::for_each_env_knob(defaults, [](const char* name, const auto& field, const auto& sample) {
    using T = std::decay_t<decltype(field)>;
    SCOPED_TRACE(name);
    const std::string text = env_text(static_cast<T>(sample));
    ASSERT_NE(text, env_text(field)) << "the sample is the default";
    scoped_env env(name, text.c_str());
    EXPECT_EQ(field_text(ic::options::from_env(), name), text);
    env.set(name, "");
    EXPECT_EQ(field_text(ic::options::from_env(), name), env_text(field));
    if (const char* bad = malformed_text<T>()) {
      env.set(name, bad);
      try {
        (void)ic::options::from_env();
        ADD_FAILURE() << name << "=" << bad << " was accepted";
      } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
      }
    }
  });
}

TEST(Options, UnknownEnvNamesThrow) {
  // Deleted knobs and a typo are rejected naming the variable, whatever
  // their value; a name outside the ITYR_ prefix is not the runtime's.
  for (const char* name : {"ITYR_HIST_BUCKETS", "ITYR_STEAL_POLICY", "ITYR_COALESCE_RMA",
                           "ITYR_FRONT_TABLE_SIZE", "ITYR_PREFECH"}) {
    SCOPED_TRACE(name);
    scoped_env env(name, "1");
    try {
      (void)ic::options::from_env();
      ADD_FAILURE() << name << " was accepted";
    } catch (const ic::error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
  }
  scoped_env env("ITYRX_PREFETCH", "1");
  EXPECT_NO_THROW((void)ic::options::from_env());
}

TEST(Options, DocsKnobTablesMatchTheEnvTable) {
  const std::set<std::string> table = table_knobs();
  std::set<std::string> docs = documented_knobs("README.md");
  docs.merge(documented_knobs("docs/observability.md"));
  for (const std::string& n : table) {
    EXPECT_TRUE(docs.count(n) > 0) << n << " has no row in README.md or docs/observability.md";
  }
  for (const std::string& n : docs) {
    EXPECT_TRUE(table.count(n) > 0) << n << " has a docs row but no row in for_each_env_knob";
  }
}
