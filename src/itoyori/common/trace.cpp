#include "itoyori/common/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <utility>

namespace ityr::common {

void tracer::configure(int n_ranks, int ranks_per_node, std::size_t cap_per_rank) {
  ranks_per_node_ = ranks_per_node > 0 ? ranks_per_node : 1;
  cap_ = std::min(std::max(cap_per_rank, min_cap), max_cap);
  rings_.assign(static_cast<std::size_t>(n_ranks), {});
  next_sample_.assign(static_cast<std::size_t>(n_ranks), 0.0);
  flow_id_ = 0;
}

std::size_t tracer::total_events() const {
  std::size_t n = 0;
  for (const ring& r : rings_) n += r.n;
  return n;
}

std::uint64_t tracer::total_dropped() const {
  std::uint64_t n = 0;
  for (const ring& r : rings_) n += r.dropped;
  return n;
}

void tracer::clear() {
  for (ring& r : rings_) r = {};
  next_sample_.assign(next_sample_.size(), 0.0);
  flow_id_ = 0;
}

namespace {

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; s++) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string tracer::to_json() const {
  // Flow arrows span two rank rings; ring eviction can orphan one half.
  // Pre-scan so only fully-paired flows are emitted.
  std::map<std::uint64_t, std::pair<bool, bool>> flow_halves;
  for (const ring& r : rings_) {
    for (std::size_t i = 0; i < r.n; i++) {
      const event& e = r.buf[(r.head + i) % cap_];
      if (e.k == event_kind::flow_start) {
        flow_halves[e.id].first = true;
      } else if (e.k == event_kind::flow_finish) {
        flow_halves[e.id].second = true;
      }
    }
  }
  const auto flow_paired = [&](std::uint64_t id) {
    const auto it = flow_halves.find(id);
    return it != flow_halves.end() && it->second.first && it->second.second;
  };

  std::string out;
  out.reserve(256 + total_events() * 96);
  out += "{\n\"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // Metadata: one trace process per simulated node, one thread per rank.
  const int n = n_ranks();
  const int n_nodes = n > 0 ? (n + ranks_per_node_ - 1) / ranks_per_node_ : 0;
  for (int node = 0; node < n_nodes; node++) {
    sep();
    append_fmt(out,
               "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
               "\"args\":{\"name\":\"node %d\"}}",
               node, node);
  }
  for (int rank = 0; rank < n; rank++) {
    sep();
    append_fmt(out,
               "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"rank %d\"}}",
               rank / ranks_per_node_, rank, rank);
  }

  for (int rank = 0; rank < n; rank++) {
    const ring& r = rings_[static_cast<std::size_t>(rank)];
    const int pid = rank / ranks_per_node_;

    // Reconstruct chronological order. Pushes are time-ordered per rank
    // except flow_finish events recorded by a remote issuer with a future
    // completion timestamp; a stable sort restores per-rank monotonicity
    // while preserving begin-before-end for equal timestamps.
    std::vector<event> evs;
    evs.reserve(r.n);
    for (std::size_t i = 0; i < r.n; i++) evs.push_back(r.buf[(r.head + i) % cap_]);
    std::stable_sort(evs.begin(), evs.end(),
                     [](const event& a, const event& b) { return a.t < b.t; });

    // Repair ring eviction damage so every track has balanced B/E pairs:
    // drop end events whose begin was evicted, auto-close still-open spans
    // at the rank's last timestamp.
    std::vector<const char*> stack;
    double last_t = evs.empty() ? 0.0 : evs.back().t;
    for (const event& e : evs) {
      const double ts = e.t * 1e6;  // virtual seconds -> microseconds
      switch (e.k) {
        case event_kind::begin:
          stack.push_back(e.name);
          sep();
          append_fmt(out, "{\"ph\":\"B\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid, rank,
                     ts);
          append_escaped(out, e.name);
          out += "\"}";
          break;
        case event_kind::end:
          if (stack.empty() || std::strcmp(stack.back(), e.name) != 0) break;  // orphan end
          stack.pop_back();
          sep();
          append_fmt(out, "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid, rank,
                     ts);
          append_escaped(out, e.name);
          out += "\"}";
          break;
        case event_kind::instant:
          sep();
          append_fmt(out,
                     "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid,
                     rank, ts);
          append_escaped(out, e.name);
          out += '"';
          // Job annotation (serving mode); unannotated instants stay
          // byte-identical to the historic form.
          if (e.job != no_job) append_fmt(out, ",\"args\":{\"job\":%u}", e.job);
          out += '}';
          break;
        case event_kind::flow_start:
          if (!flow_paired(e.id)) break;
          sep();
          append_fmt(out,
                     "{\"ph\":\"s\",\"cat\":\"ityr\",\"id\":%llu,\"pid\":%d,\"tid\":%d,"
                     "\"ts\":%.4f,\"name\":\"",
                     static_cast<unsigned long long>(e.id), pid, rank, ts);
          append_escaped(out, e.name);
          out += '"';
          if (e.job != no_job) append_fmt(out, ",\"args\":{\"job\":%u}", e.job);
          out += '}';
          break;
        case event_kind::flow_finish:
          if (!flow_paired(e.id)) break;
          sep();
          append_fmt(out,
                     "{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"ityr\",\"id\":%llu,\"pid\":%d,"
                     "\"tid\":%d,\"ts\":%.4f,\"name\":\"",
                     static_cast<unsigned long long>(e.id), pid, rank, ts);
          append_escaped(out, e.name);
          out += '"';
          if (e.job != no_job) append_fmt(out, ",\"args\":{\"job\":%u}", e.job);
          out += '}';
          break;
        case event_kind::counter:
          // Rank-suffixed counter name: each rank gets its own counter
          // track instead of the ranks overwriting one shared series.
          sep();
          append_fmt(out, "{\"ph\":\"C\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid, rank,
                     ts);
          append_escaped(out, e.name);
          append_fmt(out, " (r%d)\",\"args\":{\"value\":%.3f}}", rank, e.value);
          break;
      }
    }
    while (!stack.empty()) {
      const char* name = stack.back();
      stack.pop_back();
      sep();
      append_fmt(out, "{\"ph\":\"E\",\"pid\":%d,\"tid\":%d,\"ts\":%.4f,\"name\":\"", pid, rank,
                 last_t * 1e6);
      append_escaped(out, name);
      out += "\"}";
    }
  }

  out += "\n],\n";
  append_fmt(out, "\"dropped_events\": %llu\n}\n",
             static_cast<unsigned long long>(total_dropped()));
  return out;
}

bool tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ityr: cannot open trace output '%s'\n", path.c_str());
    return false;
  }
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "ityr: short write on trace output '%s'\n", path.c_str());
  return ok;
}

// ---------------------------------------------------------------------------
// Minimal JSON DOM + trace checker (no external dependencies).
// ---------------------------------------------------------------------------

namespace {

struct jvalue {
  enum class type : std::uint8_t { null, boolean, number, string, array, object };
  type t = type::null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<jvalue> arr;
  std::vector<std::pair<std::string, jvalue>> obj;

  const jvalue* find(const char* key) const {
    for (const auto& kv : obj) {
      if (kv.first == key) return &kv.second;
    }
    return nullptr;
  }
};

struct jparser {
  const char* p;
  const char* end;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) error = msg;
    return false;
  }
  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) p++;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      p++;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        p++;
        if (p >= end) return fail("bad escape");
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end - p < 5) return fail("bad \\u escape");
            // Validity only; decoded as '?' (names here are ASCII anyway).
            for (int i = 1; i <= 4; i++) {
              if (std::isxdigit(static_cast<unsigned char>(p[i])) == 0) {
                return fail("bad \\u escape");
              }
            }
            p += 4;
            out += '?';
            break;
          }
          default: return fail("bad escape");
        }
        p++;
      } else {
        out += *p++;
      }
    }
    if (p >= end) return fail("unterminated string");
    p++;  // closing quote
    return true;
  }

  bool parse_value(jvalue& v) {
    skip_ws();
    if (p >= end) return fail("unexpected end of input");
    const char c = *p;
    if (c == '{') {
      p++;
      v.t = jvalue::type::object;
      skip_ws();
      if (p < end && *p == '}') {
        p++;
        return true;
      }
      while (true) {
        std::string key;
        if (!parse_string(key)) return false;
        if (!consume(':')) return false;
        jvalue child;
        if (!parse_value(child)) return false;
        v.obj.emplace_back(std::move(key), std::move(child));
        skip_ws();
        if (p < end && *p == ',') {
          p++;
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      p++;
      v.t = jvalue::type::array;
      skip_ws();
      if (p < end && *p == ']') {
        p++;
        return true;
      }
      while (true) {
        jvalue child;
        if (!parse_value(child)) return false;
        v.arr.push_back(std::move(child));
        skip_ws();
        if (p < end && *p == ',') {
          p++;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      v.t = jvalue::type::string;
      return parse_string(v.str);
    }
    if (c == 't') {
      if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
        p += 4;
        v.t = jvalue::type::boolean;
        v.b = true;
        return true;
      }
      return fail("bad literal");
    }
    if (c == 'f') {
      if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
        p += 5;
        v.t = jvalue::type::boolean;
        return true;
      }
      return fail("bad literal");
    }
    if (c == 'n') {
      if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
        p += 4;
        v.t = jvalue::type::null;
        return true;
      }
      return fail("bad literal");
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      char* num_end = nullptr;
      v.t = jvalue::type::number;
      v.num = std::strtod(p, &num_end);
      if (num_end == p || num_end > end) return fail("bad number");
      p = num_end;
      return true;
    }
    return fail(std::string("unexpected character '") + c + "'");
  }
};

double jnum(const jvalue* v, double dflt = 0) {
  return (v != nullptr && v->t == jvalue::type::number) ? v->num : dflt;
}

std::string jstr(const jvalue* v) {
  return (v != nullptr && v->t == jvalue::type::string) ? v->str : std::string();
}

}  // namespace

trace_check_result validate_trace_json(const std::string& json_text) {
  trace_check_result res;

  jvalue root;
  jparser parser{json_text.data(), json_text.data() + json_text.size(), {}};
  if (!parser.parse_value(root)) {
    res.error = "JSON parse error: " + parser.error;
    return res;
  }
  parser.skip_ws();
  if (parser.p != parser.end) {
    res.error = "trailing garbage after JSON document";
    return res;
  }
  if (root.t != jvalue::type::object) {
    res.error = "top-level value is not an object";
    return res;
  }
  const jvalue* events = root.find("traceEvents");
  if (events == nullptr || events->t != jvalue::type::array) {
    res.error = "missing traceEvents array";
    return res;
  }
  res.n_events = events->arr.size();
  res.dropped_events =
      static_cast<std::uint64_t>(jnum(root.find("dropped_events"), 0));

  using track_key = std::pair<long long, long long>;
  std::map<track_key, std::vector<std::string>> stacks;
  std::map<track_key, double> last_ts;
  struct flow_state {
    bool has_s = false, has_f = false;
    double ts_s = 0, ts_f = 0;
  };
  std::map<std::string, flow_state> flows;

  // Job lifecycle windows (serving mode): every job-annotated event must
  // nest inside its job's admit -> complete window. Events interleave
  // across ranks in file order, so windows are collected during the main
  // pass and the nesting check runs afterwards.
  struct job_window {
    bool has_admit = false, has_start = false, has_complete = false;
    double t_admit = 0, t_start = 0, t_complete = 0;
  };
  std::map<long long, job_window> job_windows;
  struct job_event_ref {
    long long job;
    double ts;
    std::size_t idx;
  };
  std::vector<job_event_ref> job_events;

  for (std::size_t i = 0; i < events->arr.size(); i++) {
    const jvalue& e = events->arr[i];
    if (e.t != jvalue::type::object) {
      res.error = "traceEvents[" + std::to_string(i) + "] is not an object";
      return res;
    }
    const std::string ph = jstr(e.find("ph"));
    if (ph == "M") continue;  // metadata carries no timestamp
    if (ph.empty()) {
      res.error = "traceEvents[" + std::to_string(i) + "] has no ph";
      return res;
    }

    const track_key key{static_cast<long long>(jnum(e.find("pid"))),
                        static_cast<long long>(jnum(e.find("tid")))};
    const jvalue* ts_v = e.find("ts");
    if (ts_v == nullptr || ts_v->t != jvalue::type::number) {
      res.error = "traceEvents[" + std::to_string(i) + "] (ph=" + ph + ") has no numeric ts";
      return res;
    }
    const double ts = ts_v->num;
    auto it = last_ts.find(key);
    if (it != last_ts.end() && ts < it->second) {
      res.error = "non-monotonic ts on pid=" + std::to_string(key.first) +
                  " tid=" + std::to_string(key.second) + " at traceEvents[" + std::to_string(i) +
                  "]";
      return res;
    }
    last_ts[key] = ts;

    const std::string name = jstr(e.find("name"));

    const jvalue* args_v = e.find("args");
    const jvalue* job_v = args_v != nullptr ? args_v->find("job") : nullptr;
    if (job_v != nullptr) {
      if (job_v->t != jvalue::type::number || job_v->num < 1) {
        res.error = "malformed job annotation at traceEvents[" + std::to_string(i) +
                    "] (job must be a number >= 1)";
        return res;
      }
      const long long job = static_cast<long long>(job_v->num);
      res.n_job_annotated++;
      job_events.push_back({job, ts, i});
      if (ph == "i" && name == "job admit") {
        job_window& w = job_windows[job];
        if (w.has_admit) {
          res.error = "duplicate 'job admit' for job " + std::to_string(job) +
                      " at traceEvents[" + std::to_string(i) + "]";
          return res;
        }
        w.has_admit = true;
        w.t_admit = ts;
        res.n_job_admits++;
      } else if (ph == "i" && name == "job start") {
        job_window& w = job_windows[job];
        w.has_start = true;
        w.t_start = ts;
        res.n_job_starts++;
      } else if (ph == "i" && name == "job complete") {
        job_window& w = job_windows[job];
        if (w.has_complete) {
          res.error = "duplicate 'job complete' for job " + std::to_string(job) +
                      " at traceEvents[" + std::to_string(i) + "]";
          return res;
        }
        w.has_complete = true;
        w.t_complete = ts;
        res.n_job_completes++;
      }
    } else if (ph == "i" &&
               (name == "job admit" || name == "job start" || name == "job complete")) {
      res.error = "job lifecycle instant '" + name + "' without a job annotation at traceEvents[" +
                  std::to_string(i) + "]";
      return res;
    }

    if (ph == "B") {
      stacks[key].push_back(name);
    } else if (ph == "E") {
      auto& st = stacks[key];
      if (st.empty()) {
        res.error = "unmatched E event '" + name + "' at traceEvents[" + std::to_string(i) + "]";
        return res;
      }
      if (st.back() != name) {
        res.error = "E event '" + name + "' does not match open B '" + st.back() +
                    "' at traceEvents[" + std::to_string(i) + "]";
        return res;
      }
      st.pop_back();
      res.n_spans++;
      if (name == "Write Back (async)") res.n_wb_async_spans++;
    } else if (ph == "s" || ph == "f") {
      const jvalue* id_v = e.find("id");
      std::string id;
      if (id_v != nullptr && id_v->t == jvalue::type::number) {
        id = std::to_string(static_cast<long long>(id_v->num));
      } else {
        id = jstr(id_v);
      }
      if (id.empty()) {
        res.error = "flow event without id at traceEvents[" + std::to_string(i) + "]";
        return res;
      }
      auto& halves = flows[id];
      if (ph == "s") {
        halves.has_s = true;
        halves.ts_s = ts;
      } else {
        halves.has_f = true;
        halves.ts_f = ts;
      }
      if (ph == "s" && name == "prefetch") res.n_prefetch_flows++;
      if (ph == "s" && name == "writeback") res.n_writeback_flows++;
      if (ph == "s" && name == "wb acquire") res.n_wb_acquire_flows++;
      if (ph == "s" && name == "steal") res.n_steal_flows++;
    } else if (ph == "C") {
      res.n_counters++;
    } else if (ph == "i") {
      if (name == "prefetch consume") {
        res.n_prefetch_consumes++;
      } else if (name == "prefetch evict") {
        res.n_prefetch_evicts++;
      }
    } else {
      res.error = "unknown ph '" + ph + "' at traceEvents[" + std::to_string(i) + "]";
      return res;
    }
  }

  for (const auto& kv : stacks) {
    if (!kv.second.empty()) {
      res.error = "unclosed B event '" + kv.second.back() +
                  "' on pid=" + std::to_string(kv.first.first) +
                  " tid=" + std::to_string(kv.first.second);
      return res;
    }
  }
  for (const auto& kv : flows) {
    if (!kv.second.has_s || !kv.second.has_f) {
      res.error = "flow id " + kv.first + " is missing its " +
                  (kv.second.has_s ? std::string("finish (f)") : std::string("start (s)")) +
                  " half";
      return res;
    }
    // Causality: an arrow cannot land before it was launched. For "wb
    // acquire" flows this is exactly the async-release safety property (no
    // acquire completes before the releaser's round was visible).
    if (kv.second.ts_f < kv.second.ts_s) {
      res.error = "flow id " + kv.first + " finishes before it starts";
      return res;
    }
    res.n_flows++;
  }

  // Job-window nesting: lifecycle order within each job, then every
  // job-annotated event inside its job's admit -> complete window. The
  // missing-admit case is relaxed when the ring dropped events (the admit
  // may simply have been overwritten); ordering against a *present* admit
  // or complete is enforced unconditionally.
  for (const auto& kv : job_windows) {
    const job_window& w = kv.second;
    if (w.has_admit && w.has_start && w.t_start < w.t_admit) {
      res.error = "job " + std::to_string(kv.first) + " starts before it is admitted";
      return res;
    }
    if (w.has_start && w.has_complete && w.t_complete < w.t_start) {
      res.error = "job " + std::to_string(kv.first) + " completes before it starts";
      return res;
    }
  }
  for (const auto& je : job_events) {
    auto wit = job_windows.find(je.job);
    if (wit == job_windows.end() || !wit->second.has_admit) {
      if (res.dropped_events == 0) {
        res.error = "job-annotated event at traceEvents[" + std::to_string(je.idx) + "] for job " +
                    std::to_string(je.job) + " with no 'job admit'";
        return res;
      }
      continue;
    }
    const job_window& w = wit->second;
    if (je.ts < w.t_admit) {
      res.error = "job-annotated event at traceEvents[" + std::to_string(je.idx) +
                  "] precedes job " + std::to_string(je.job) + "'s admit";
      return res;
    }
    if (w.has_complete && je.ts > w.t_complete) {
      res.error = "job-annotated event at traceEvents[" + std::to_string(je.idx) +
                  "] follows job " + std::to_string(je.job) + "'s complete";
      return res;
    }
  }

  res.ok = true;
  return res;
}

// ---------------------------------------------------------------------------
// phase_timeline aggregates
// ---------------------------------------------------------------------------

double phase_timeline::total_busy() const {
  double s = 0;
  for (const per_rank& r : ranks_) s += r.busy;
  return s;
}

double phase_timeline::total_steal() const {
  double s = 0;
  for (const per_rank& r : ranks_) s += r.steal;
  return s;
}

double phase_timeline::total_idle() const {
  double s = 0;
  for (const per_rank& r : ranks_) s += r.idle;
  return s;
}

double phase_timeline::makespan() const {
  if (ranks_.empty()) return 0;
  double lo = ranks_[0].start;
  double hi = ranks_[0].end;
  for (const per_rank& r : ranks_) {
    lo = std::min(lo, r.start);
    hi = std::max(hi, r.end);
  }
  return std::max(0.0, hi - lo);
}

double phase_timeline::idleness() const {
  const double span = makespan();
  if (ranks_.empty() || span <= 0) return 0;
  return 1.0 - total_busy() / (static_cast<double>(ranks_.size()) * span);
}

}  // namespace ityr::common
