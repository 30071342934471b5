/// stats_diff: compare two ITYR_STATS_JSON metric dumps (schema
/// itoyori.metrics.v3, and v2 files from older runs; docs/observability.md).
///
/// The JSON tree is flattened into "path -> number" pairs: object members
/// join with '.', array elements key by their "name" member when they have
/// one (so `metrics` and `histograms` entries address as
/// `metrics.cache.checkouts.total`, and v3 per-job rows as
/// `jobs.job3:cilksort.latency_s`) and by index otherwise. Version-neutral:
/// v2 and v3 files flatten to the same paths for the sections both have, so
/// cross-version diffs and checks just work.
///
/// Diff mode — print every differing or one-sided key, exit 0:
///
///   ./build/tools/stats_diff old.json new.json
///
/// Check mode — regression guard for CI (exit 1 on violation):
///
///   ./build/tools/stats_diff --check base.json new.json --key span_s --tolerance 0.10
///
/// Every base key whose path contains any --key substring (all numeric keys
/// when no --key is given) must exist in new.json and deviate relatively by
/// at most --tolerance (default 0.10), and every --key must match some base
/// key. The bench/critical_path perf-guard CI job drives this against
/// bench/baseline_critpath.json.
///
/// bench/paper's records flatten the same way: `points.<point name>.virtual_s`
/// and `points.<point name>.stats.metrics.<series>.total`.
///
/// `--self-check` exercises the parser/flattener/comparator on built-in
/// documents (registered as the `stats_diff` ctest).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

/// Minimal recursive-descent JSON reader that only keeps numeric leaves.
/// Anything structurally invalid throws std::runtime_error with an offset.
class flattener {
public:
  explicit flattener(const std::string& text) : s_(text) {}

  std::map<std::string, double> run() {
    skip_ws();
    value("");
    skip_ws();
    if (pos_ != s_.size()) fail("trailing content");
    return std::move(out_);
  }

private:
  [[noreturn]] void fail(const char* msg) const {
    throw std::runtime_error(std::string(msg) + " at offset " + std::to_string(pos_));
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  char get() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_++];
  }
  void expect(char c) {
    if (get() != c) fail("unexpected character");
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) pos_++;
  }

  std::string string_lit() {
    expect('"');
    std::string out;
    while (true) {
      char c = get();
      if (c == '"') return out;
      if (c == '\\') {
        c = get();
        switch (c) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u':
            for (int i = 0; i < 4; i++) get();
            out += '?';
            break;
          default: out += c; break;
        }
      } else {
        out += c;
      }
    }
  }

  void value(const std::string& path) {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      object(path);
    } else if (c == '[') {
      array(path);
    } else if (c == '"') {
      string_lit();  // string leaf: not numeric, dropped
    } else if (std::strncmp(s_.c_str() + pos_, "true", 4) == 0) {
      pos_ += 4;
    } else if (std::strncmp(s_.c_str() + pos_, "false", 5) == 0) {
      pos_ += 5;
    } else if (std::strncmp(s_.c_str() + pos_, "null", 4) == 0) {
      pos_ += 4;
    } else {
      number(path);
    }
  }

  void number(const std::string& path) {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) fail("expected a value");
    pos_ += static_cast<std::size_t>(end - start);
    if (!path.empty()) out_[path] = v;
  }

  void object(const std::string& path) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      get();
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = string_lit();
      skip_ws();
      expect(':');
      value(path.empty() ? key : path + "." + key);
      skip_ws();
      const char c = get();
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  void array(const std::string& path) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      get();
      return;
    }
    std::size_t idx = 0;
    while (true) {
      skip_ws();
      // Elements that are objects with a "name" member key by that name —
      // this is what makes metrics entries stable under reordering.
      std::string sub = path + "." + std::to_string(idx);
      if (peek() == '{') {
        const std::string name = peek_name();
        if (!name.empty()) sub = path + "." + name;
      }
      value(sub);
      idx++;
      skip_ws();
      const char c = get();
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  /// Look ahead into an object for its "name" member (no state change).
  std::string peek_name() {
    const std::size_t saved = pos_;
    std::string found;
    expect('{');
    skip_ws();
    if (peek() != '}') {
      while (true) {
        skip_ws();
        const std::string key = string_lit();
        skip_ws();
        expect(':');
        skip_ws();
        if (key == "name" && peek() == '"') {
          found = string_lit();
          break;
        }
        skip_value();
        skip_ws();
        const char c = get();
        if (c == '}') break;
        if (c != ',') fail("expected ',' or '}'");
      }
    }
    pos_ = saved;
    return found;
  }

  /// Skip one value without recording anything.
  void skip_value() {
    skip_ws();
    const char c = peek();
    if (c == '"') {
      string_lit();
      return;
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      int depth = 0;
      bool in_str = false;
      while (true) {
        const char d = get();
        if (in_str) {
          if (d == '\\') {
            get();
          } else if (d == '"') {
            in_str = false;
          }
          continue;
        }
        if (d == '"') in_str = true;
        if (d == '{' || d == '[') depth++;
        if (d == '}' || d == ']') {
          depth--;
          if (depth == 0) {
            if (d != close) fail("mismatched bracket");
            return;
          }
        }
      }
    }
    // scalar
    while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}' && s_[pos_] != ']' &&
           !std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      pos_++;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::map<std::string, double> out_;
};

bool load(const char* path, std::map<std::string, double>& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "stats_diff: cannot open '%s'\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  try {
    out = flattener(ss.str()).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stats_diff: %s: %s\n", path, e.what());
    return false;
  }
  return true;
}

/// Relative deviation with an absolute floor for values near zero.
double deviation(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  if (scale < 1.0e-12) return 0.0;
  return std::fabs(a - b) / scale;
}

int diff_mode(const char* path_a, const char* path_b) {
  std::map<std::string, double> a, b;
  if (!load(path_a, a) || !load(path_b, b)) return 2;
  std::size_t n_diff = 0;
  for (const auto& [key, va] : a) {
    const auto it = b.find(key);
    if (it == b.end()) {
      std::printf("- %s = %.9g (only in %s)\n", key.c_str(), va, path_a);
      n_diff++;
    } else if (deviation(va, it->second) > 0) {
      std::printf("~ %s: %.9g -> %.9g\n", key.c_str(), va, it->second);
      n_diff++;
    }
  }
  for (const auto& [key, vb] : b) {
    if (a.find(key) == a.end()) {
      std::printf("+ %s = %.9g (only in %s)\n", key.c_str(), vb, path_b);
      n_diff++;
    }
  }
  std::printf("stats_diff: %zu differing keys (of %zu/%zu)\n", n_diff, a.size(), b.size());
  return 0;
}

/// The --key filters that no key of `base` contains. Check mode fails on
/// each: a misspelt key, or one that a regenerated baseline lost, would
/// otherwise never be checked.
std::vector<std::string> unmatched_filters(const std::map<std::string, double>& base,
                                           const std::vector<std::string>& key_filters) {
  std::vector<std::string> unmatched;
  for (const std::string& f : key_filters) {
    if (std::none_of(base.begin(), base.end(),
                     [&](const auto& kv) { return kv.first.find(f) != std::string::npos; })) {
      unmatched.push_back(f);
    }
  }
  return unmatched;
}

int check_mode(const char* path_base, const char* path_new,
               const std::vector<std::string>& key_filters, double tolerance) {
  std::map<std::string, double> base, cur;
  if (!load(path_base, base) || !load(path_new, cur)) return 2;

  const std::vector<std::string> unmatched = unmatched_filters(base, key_filters);
  for (const std::string& f : unmatched) {
    std::fprintf(stderr, "stats_diff: FAIL --key %s: matches no key of %s\n", f.c_str(),
                 path_base);
  }

  const auto selected = [&](const std::string& key) {
    if (key_filters.empty()) return true;
    for (const std::string& f : key_filters) {
      if (key.find(f) != std::string::npos) return true;
    }
    return false;
  };

  std::size_t n_checked = 0, n_bad = 0;
  for (const auto& [key, vb] : base) {
    if (!selected(key)) continue;
    n_checked++;
    const auto it = cur.find(key);
    if (it == cur.end()) {
      std::fprintf(stderr, "stats_diff: FAIL %s: missing from %s\n", key.c_str(), path_new);
      n_bad++;
      continue;
    }
    const double dev = deviation(vb, it->second);
    if (dev > tolerance) {
      std::fprintf(stderr, "stats_diff: FAIL %s: %.9g -> %.9g (deviation %.1f%% > %.1f%%)\n",
                   key.c_str(), vb, it->second, dev * 100.0, tolerance * 100.0);
      n_bad++;
    }
  }
  if (n_checked == 0) {
    std::fprintf(stderr, "stats_diff: no baseline key matched the --key filters\n");
    return 1;
  }
  std::printf("stats_diff: %zu/%zu checked keys within %.1f%% of baseline\n",
              n_checked - n_bad, n_checked, tolerance * 100.0);
  return n_bad == 0 && unmatched.empty() ? 0 : 1;
}

int self_check() {
  const std::string doc_a =
      "{\"schema\": \"itoyori.metrics.v2\", \"schema_version\": 2, \"n_ranks\": 2,\n"
      "\"metrics\": [ {\"name\": \"a.count\", \"total\": 10, \"per_rank\": [4, 6]},\n"
      "              {\"name\": \"b.time_s\", \"total\": 1.5, \"per_rank\": [0.5, 1.0]} ],\n"
      "\"histograms\": [ {\"name\": \"hist.x\", \"count\": 3, \"p50\": 2.0,\n"
      "                   \"buckets\": [[1, 2], [3, 1]]} ]}";
  const std::string doc_b =
      "{\"schema_version\": 2, \"n_ranks\": 2,\n"
      "\"metrics\": [ {\"name\": \"b.time_s\", \"total\": 1.6, \"per_rank\": [0.6, 1.0]},\n"
      "              {\"name\": \"a.count\", \"total\": 10, \"per_rank\": [4, 6]} ],\n"
      "\"histograms\": []}";
  // A v3 document: same sections as v2 plus the per-job rows (name-keyed,
  // with non-numeric members mixed in). Cross-version compatibility means
  // doc_a's keys resolve here too wherever both documents have them.
  const std::string doc_c =
      "{\"schema\": \"itoyori.metrics.v3\", \"schema_version\": 3, \"n_ranks\": 2,\n"
      "\"metrics\": [ {\"name\": \"a.count\", \"total\": 10, \"per_rank\": [4, 6]},\n"
      "              {\"name\": \"b.time_s\", \"total\": 1.5, \"per_rank\": [0.5, 1.0]} ],\n"
      "\"histograms\": [ {\"name\": \"hist.x\", \"count\": 3, \"p50\": 2.0,\n"
      "                   \"buckets\": [[1, 2], [3, 1]]} ],\n"
      "\"jobs\": [ {\"name\": \"job2:uts\", \"id\": 2, \"done\": true,\n"
      "             \"latency_s\": 0.25, \"fetched_bytes\": 4096},\n"
      "            {\"name\": \"job1:cilksort\", \"id\": 1, \"done\": true,\n"
      "             \"latency_s\": 0.5, \"fetched_bytes\": 8192} ]}";
  // A bench/paper records file: a name-keyed `points` array whose records
  // each hold a stats document. Point names carry '/' and ':' but no '.',
  // which is the path separator.
  const std::string doc_d =
      "{\"points\": [\n"
      " {\"name\": \"fig7/cutoff:64/policy:none\", \"figure\": \"fig7\", \"cutoff\": 64,\n"
      "  \"virtual_s\": 0.15, \"ok\": true,\n"
      "  \"stats\": {\"schema_version\": 3, \"n_ranks\": 2, \"histograms\": [],\n"
      "    \"metrics\": [ {\"name\": \"cache.checkouts\", \"total\": 12,\n"
      "                  \"per_rank\": [5, 7]} ]}},\n"
      " {\"name\": \"fig8/serial/n:1048576\", \"virtual_s\": 0.05, \"ok\": true,\n"
      "  \"stats\": {\"schema_version\": 3, \"n_ranks\": 0, \"metrics\": [], \"histograms\": []}}\n"
      "]}";
  std::map<std::string, double> a, b, c, d;
  try {
    a = flattener(doc_a).run();
    b = flattener(doc_b).run();
    c = flattener(doc_c).run();
    d = flattener(doc_d).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stats_diff self-check: parse failed: %s\n", e.what());
    return 1;
  }
  const auto expect = [&](bool cond, const char* what) {
    if (!cond) std::fprintf(stderr, "stats_diff self-check: FAIL: %s\n", what);
    return cond;
  };
  bool ok = true;
  ok &= expect(a.at("schema_version") == 2, "schema_version flattened");
  ok &= expect(a.at("metrics.a.count.total") == 10, "metric keyed by name");
  ok &= expect(a.at("metrics.a.count.per_rank.1") == 6, "per-rank element by index");
  ok &= expect(a.at("histograms.hist.x.p50") == 2.0, "histogram keyed by name");
  ok &= expect(a.at("histograms.hist.x.buckets.0.1") == 2, "sparse bucket pair");
  // Name-keyed paths must be order-independent: b lists the metrics swapped.
  ok &= expect(b.at("metrics.a.count.total") == 10, "reordered metric resolves");
  ok &= expect(deviation(a.at("metrics.b.time_s.total"), b.at("metrics.b.time_s.total")) <
                   0.10,
               "7% drift within 10% tolerance");
  ok &= expect(deviation(1.0, 2.0) > 0.10, "gross drift detected");
  ok &= expect(deviation(0.0, 0.0) == 0.0, "zero vs zero is clean");
  // v2 -> v3 compatibility: the sections both versions have flatten to the
  // same paths, and the v3-only jobs rows address by their unique name.
  ok &= expect(c.at("schema_version") == 3, "v3 schema_version flattened");
  ok &= expect(c.at("metrics.a.count.total") == a.at("metrics.a.count.total"),
               "v2 metric path resolves identically in v3");
  ok &= expect(c.at("histograms.hist.x.p50") == a.at("histograms.hist.x.p50"),
               "v2 histogram path resolves identically in v3");
  ok &= expect(c.at("jobs.job1:cilksort.latency_s") == 0.5, "job row keyed by name");
  ok &= expect(c.at("jobs.job2:uts.fetched_bytes") == 4096,
               "reordered job row resolves by name");
  ok &= expect(c.find("jobs.job1:cilksort.name") == c.end() &&
                   c.find("jobs.job1:cilksort.done") == c.end(),
               "non-numeric job members dropped");
  // Cross-version check mode must compare shared keys without tripping on
  // v3-only sections: every v2 key of doc_a except schema_version (2 -> 3)
  // exists in doc_c with the same value.
  std::size_t shared_bad = 0;
  for (const auto& [key, va] : a) {
    if (key == "schema_version") continue;
    const auto it = c.find(key);
    if (it == c.end() || deviation(va, it->second) > 0) shared_bad++;
  }
  ok &= expect(shared_bad == 0, "every v2 key survives into v3 unchanged");
  ok &= expect(d.at("points.fig7/cutoff:64/policy:none.stats.metrics.cache.checkouts.total") == 12,
               "a point's stats series resolves under its name");
  ok &= expect(d.at("points.fig7/cutoff:64/policy:none.cutoff") == 64 &&
                   d.at("points.fig8/serial/n:1048576.virtual_s") == 0.05,
               "point values keyed by a name with '/' and ':'");
  ok &= expect(d.find("points.fig7/cutoff:64/policy:none.ok") == d.end() &&
                   d.find("points.fig7/cutoff:64/policy:none.figure") == d.end(),
               "non-numeric point members dropped");
  // Check mode fails on a --key that no baseline key contains, even when
  // another --key matches.
  ok &= expect(unmatched_filters(a, {"a.count", "time_s"}).empty(), "every --key matches");
  ok &= expect(unmatched_filters(a, {"a.count", "a.cuont"}) == std::vector<std::string>{"a.cuont"},
               "a misspelt --key is reported");
  if (ok) {
    std::printf("stats_diff self-check: OK (%zu + %zu + %zu + %zu keys)\n", a.size(), b.size(),
                c.size(), d.size());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  double tolerance = 0.10;
  std::vector<std::string> key_filters;
  std::vector<const char*> files;

  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--self-check") == 0) return self_check();
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--key") == 0 && i + 1 < argc) {
      key_filters.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::strtod(argv[++i], nullptr);
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: stats_diff [--check] <base.json> <new.json>"
                 " [--key SUBSTR]... [--tolerance F]\n"
                 "       stats_diff --self-check\n");
    return 2;
  }
  return check ? check_mode(files[0], files[1], key_filters, tolerance)
               : diff_mode(files[0], files[1]);
}
