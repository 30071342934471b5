#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace ityr::test {

/// One mapping of /proc/self/smaps: its address range, its name (a file,
/// "/memfd:<name> (deleted)", or empty) and its resident bytes.
struct smaps_mapping {
  std::uintptr_t lo;
  std::uintptr_t hi;
  std::string name;
  std::size_t rss;
};

inline std::vector<smaps_mapping> read_smaps() {
  std::ifstream smaps("/proc/self/smaps");
  std::vector<smaps_mapping> ms;
  std::string line;
  while (std::getline(smaps, line)) {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    int name_at = 0;
    // A mapping's header line: "lo-hi perms offset dev inode [name]".
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %*s %*s %*s %*s %n", &lo, &hi,
                    &name_at) == 2) {
      ms.push_back({lo, hi, name_at > 0 ? line.substr(static_cast<std::size_t>(name_at)) : "", 0});
    } else if (!ms.empty() && line.rfind("Rss:", 0) == 0) {
      ms.back().rss = std::stoul(line.substr(4)) * 1024;  // "Rss:   4 kB"
    }
  }
  return ms;
}

/// The mapping of /proc/self/smaps that holds address `a` (empty if none).
inline smaps_mapping mapping_at(std::uintptr_t a) {
  for (const auto& m : read_smaps()) {
    if (m.lo <= a && a < m.hi) return m;
  }
  return {0, 0, "", 0};
}

}  // namespace ityr::test
