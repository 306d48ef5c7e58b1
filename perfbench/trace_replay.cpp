// Per-layer replay tool for the end-to-end benchmark (perfbench/run.py).
//
// Re-runs the work of one benchmark request in-process through the
// library's public entry points, single-threaded, and times every call into
// a layer with a span (name, start, end, parent, request id).  Spans live in
// memory and are written to --spans once the replay ends; the layer metrics
// derived from them go to stdout as one JSON object.  Nothing here changes
// what the program computes: the replay's evaluation counts are checked
// against the CLI's own output by run.py.  With --no-spans the tracer is a
// no-op; with --request-only only the request's wall time is reported.
// run.py alternates the two to measure what the spans cost.
//
//   perfbench_trace replay --wstores 4096,8192 --precisions INT8,FP16
//       [--seed S] [--population P] [--generations G] [--cache-file F]
//       [--layout] [--rtl-knees] [--pool-threads T] [--spans OUT]
//       [--no-spans] [--request-only]
//   perfbench_trace serve-inprocess
//
// serve-inprocess runs the requests a serve daemon runs, in this process,
// through run_cli_hooked, with a resident technology and shared per-config
// cost caches built the way the daemon builds them.  Fed the daemon's
// request sequence, each request finds the caches in the state the
// daemon's copy found them.  It reads one JSON argv array per stdin line
// and answers each with one line {"ms": wall ms, "out": stdout}.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "arch/space.h"
#include "compiler/cli.h"
#include "compiler/compiler.h"
#include "cost/batch_coalescer.h"
#include "cost/cost_cache.h"
#include "cost/cost_model.h"
#include "cost/rtl_cost_model.h"
#include "dse/nsga2.h"
#include "layout/floorplan.h"
#include "layout/wirelength.h"
#include "rtl/harness.h"
#include "rtl/macro_builder.h"
#include "rtl/sta.h"
#include "util/json.h"
#include "util/threadpool.h"

namespace {

using Clock = std::chrono::steady_clock;

double now_us(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}

// ----------------------------------------------------------------- tracing

struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index into Tracer::spans, -1 for a root
  int request = 0;
};

// A replay is one request; its spans carry request id 0.  A disabled
// tracer records nothing: the untraced side of the overhead measurement.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int open(const std::string& name, int parent) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(SpanRecord{name, now_us(origin_), 0.0, parent, 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_us = now_us(origin_);
  }

  // Total duration of every span named @p name, in ms.
  double total_ms(const std::string& name) const {
    double us = 0.0;
    for (const auto& s : spans_) {
      if (s.name == name) us += s.end_us - s.start_us;
    }
    return us / 1000.0;
  }
  // Self time of all spans named @p name: their duration minus the part
  // their direct children cover (children never overlap: one thread).
  double self_ms(const std::string& name) const {
    double us = 0.0;
    for (const auto& s : spans_) {
      if (s.name == name) us += s.end_us - s.start_us;
      if (s.parent >= 0 &&
          spans_[static_cast<std::size_t>(s.parent)].name == name) {
        us -= s.end_us - s.start_us;
      }
    }
    return us / 1000.0;
  }
  // Total duration of the root spans: everything the replay timed.
  double roots_ms() const {
    double us = 0.0;
    for (const auto& s : spans_) {
      if (s.parent < 0) us += s.end_us - s.start_us;
    }
    return us / 1000.0;
  }
  std::size_t count() const { return spans_.size(); }

  void write(const std::string& path) const {
    sega::Json all = sega::Json::array();
    for (const auto& s : spans_) {
      sega::Json j = sega::Json::object();
      j["name"] = s.name;
      j["start_us"] = s.start_us;
      j["end_us"] = s.end_us;
      j["parent"] = s.parent;
      j["request"] = s.request;
      all.push_back(std::move(j));
    }
    std::ofstream(path) << all.dump() << '\n';
  }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// RAII span: open on construction, close on scope exit.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, int parent)
      : t_(t), id_(t.open(name, parent)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// ------------------------------------------------------------------ helpers

[[noreturn]] void die(const std::string& msg) {
  std::cerr << "perfbench_trace: " << msg << '\n';
  std::exit(2);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string point_key(const sega::DesignPoint& dp) {
  sega::Json j = sega::Json::array();
  for (const std::int64_t v :
       {static_cast<std::int64_t>(dp.arch), dp.n, dp.h, dp.l, dp.k,
        static_cast<std::int64_t>(dp.signed_weights),
        static_cast<std::int64_t>(dp.pipelined_tree)}) {
    j.push_back(v);
  }
  return dp.precision.name + j.dump();
}

struct Cell {
  std::int64_t wstore;
  sega::Precision precision;
};

struct ReplayOptions {
  std::vector<Cell> cells;
  sega::Nsga2Options dse;
  std::string cache_file;
  bool layout = false;
  bool rtl_knees = false;
  int pool_threads = 0;
  std::string spans_path;
  bool spans = true;
  bool request_only = false;
};

// The explorer's batch objective: metrics through @p model, as objectives.
void evaluate_objectives(const sega::CostModel& model,
                         sega::Span<const sega::DesignPoint> pts,
                         sega::Span<sega::Objectives> out) {
  std::vector<sega::MacroMetrics> m(pts.size());
  model.evaluate_batch(pts, sega::Span<sega::MacroMetrics>(m));
  for (std::size_t k = 0; k < pts.size(); ++k) {
    const auto arr = m[k].objectives();
    out[k] = sega::Objectives(arr.begin(), arr.end());
  }
}

// Wall time of the whole grid's DSE on a pool of @p threads, every cell
// sharing one fresh cache — the sweep engine's parallel shape.
double grid_wall_ms(const ReplayOptions& o, const sega::CostModel& model,
                    int threads) {
  sega::CostCache cache(model);
  sega::ThreadPool pool(threads);
  const auto start = Clock::now();
  pool.parallel_for(o.cells.size(), [&](std::size_t i) {
    sega::DesignSpace space(o.cells[i].wstore, o.cells[i].precision);
    sega::Nsga2Options opts = o.dse;
    opts.threads = 1;
    const sega::BatchObjectiveFn objective =
        [&cache](sega::Span<const sega::DesignPoint> pts,
                 sega::Span<sega::Objectives> out) {
          evaluate_objectives(cache, pts, out);
        };
    sega::nsga2_optimize(space, objective, opts);
  });
  return elapsed_ms(start);
}

// Per-line JSON costs over a memo file's lines (header included).
void json_line_metrics(const std::string& path, sega::Json* metrics) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) die("memo '" + path + "' has no lines");
  std::vector<sega::Json> parsed;
  parsed.reserve(lines.size());
  auto start = Clock::now();
  for (const auto& line : lines) {
    auto j = sega::Json::parse(line);
    if (!j) die("memo line does not parse");
    parsed.push_back(std::move(*j));
  }
  const double parse_ms = elapsed_ms(start);
  std::size_t bytes = 0;
  start = Clock::now();
  for (const auto& j : parsed) bytes += j.dump().size();
  const double dump_ms = elapsed_ms(start);
  std::uint64_t sum = 0;
  start = Clock::now();
  for (const auto& j : parsed) {
    if (j.is_object()) sum += sega::json_line_checksum(j);
  }
  const double checksum_ms = elapsed_ms(start);
  if (bytes == 0 || sum == 0) die("memo lines are empty");
  const double n = static_cast<double>(lines.size());
  (*metrics)["util.json_parse_us_per_line"] = parse_ms * 1000.0 / n;
  (*metrics)["util.json_dump_us_per_line"] = dump_ms * 1000.0 / n;
  (*metrics)["util.json_checksum_us_per_line"] = checksum_ms * 1000.0 / n;
}

int replay(const ReplayOptions& o) {
  const sega::Technology tech = sega::Technology::tsmc28();
  const sega::EvalConditions cond;
  const sega::AnalyticCostModel model(tech, cond, nullptr, o.layout);
  sega::CostCache cache(model);
  Tracer tracer(o.spans);
  sega::Json metrics = sega::Json::object();

  // validate's knees: each cell's knee as the compiler selects it.  Chosen
  // before the replay (the replayed DSE below finds the same ones) so only
  // their measurement is inside the request.
  std::vector<sega::DesignPoint> knees;
  if (o.rtl_knees) {
    const sega::Compiler compiler(tech);
    for (const Cell& cell : o.cells) {
      sega::CompilerSpec cs;
      cs.wstore = cell.wstore;
      cs.precision = cell.precision;
      cs.dse = o.dse;
      cs.dse.threads = 1;
      cs.layout = o.layout;
      cs.generate_rtl = cs.generate_layout = cs.generate_def = false;
      sega::CostCache knee_cache(model);
      const sega::CompilerResult run = compiler.run(cs, &knee_cache);
      if (run.selected.empty()) die("no knee for a validate cell");
      knees.push_back(run.selected.front().design.point);
    }
  }
  sega::RtlCostModelOptions rtl_options;
  rtl_options.threads = 1;
  rtl_options.layout = o.layout;
  const sega::RtlCostModel rtl(tech, cond, rtl_options);

  std::vector<sega::DesignPoint> evaluated;  // every point the DSE asked for
  std::int64_t evaluations = 0;
  std::size_t entries_before = 0;
  const auto request_start = Clock::now();
  {
    Scope request(tracer, "request", -1);
    if (!o.cache_file.empty()) {
      Scope s(tracer, "cost.memo_load", request.id());
      std::string error;
      if (!cache.load(o.cache_file, &error)) die(error);
      entries_before = cache.size();
    }
    for (const Cell& cell : o.cells) {
      Scope c(tracer, "cell", request.id());
      sega::DesignSpace space(cell.wstore, cell.precision);
      sega::Nsga2Options opts = o.dse;
      opts.threads = 1;  // serial, so child spans nest and sum to wall
      sega::Nsga2Stats stats;
      Scope dse(tracer, "dse.nsga2", c.id());
      const sega::BatchObjectiveFn objective =
          [&](sega::Span<const sega::DesignPoint> pts,
              sega::Span<sega::Objectives> out) {
            Scope s(tracer, "cost.evaluate_batch", dse.id());
            evaluate_objectives(cache, pts, out);
            evaluated.insert(evaluated.end(), pts.begin(), pts.end());
          };
      sega::nsga2_optimize(space, objective, opts, &stats);
      evaluations += stats.evaluations;
    }
    for (const auto& knee : knees) {
      Scope s(tracer, "rtl.knee_eval", request.id());
      if (!(rtl.evaluate(knee).area_mm2 > 0.0)) die("rtl replay: zero area");
    }
    if (!o.cache_file.empty()) {
      Scope s(tracer, "cost.memo_save", request.id());
      std::string error;
      if (!cache.save(o.cache_file, &error)) die(error);
    }
  }
  metrics["replay.request_ms"] = elapsed_ms(request_start);
  if (o.request_only) {
    metrics["trace.spans"] = static_cast<double>(tracer.count());
    if (!o.spans_path.empty()) tracer.write(o.spans_path);
    std::cout << metrics.dump() << '\n';
    return 0;
  }
  const double nsga2_ms = tracer.total_ms("dse.nsga2");
  metrics["dse.nsga2_ms"] = nsga2_ms;
  metrics["dse.self_ms"] = tracer.self_ms("dse.nsga2");
  metrics["dse.evaluations"] = evaluations;
  metrics["dse.evals_per_s"] =
      static_cast<double>(evaluations) / (nsga2_ms / 1000.0);
  const double lookups =
      static_cast<double>(cache.hits() + cache.misses());
  metrics["cost.cache_lookups"] = lookups;
  metrics["cost.cache_hit_ratio"] =
      static_cast<double>(cache.hits()) / lookups;

  // Distinct evaluated points, in first-seen order.
  std::vector<sega::DesignPoint> distinct;
  {
    std::map<std::string, bool> seen;
    for (const auto& dp : evaluated) {
      if (seen.emplace(point_key(dp), true).second) distinct.push_back(dp);
    }
  }
  if (distinct.empty()) die("the replayed DSE evaluated no point");

  // Analytic per-point cost, uncached and layout-free, repeated until the
  // timed window is long enough to read.
  {
    const sega::AnalyticCostModel plain(tech, cond);
    std::vector<sega::MacroMetrics> out(distinct.size());
    std::size_t points = 0;
    const auto start = Clock::now();
    do {
      plain.evaluate_batch(sega::Span<const sega::DesignPoint>(distinct),
                           sega::Span<sega::MacroMetrics>(out));
      points += distinct.size();
    } while (elapsed_ms(start) < 50.0);
    metrics["cost.analytic_us_per_point"] =
        elapsed_ms(start) * 1000.0 / static_cast<double>(points);
  }

  if (!o.cache_file.empty()) {
    const double entries = static_cast<double>(cache.size());
    const double load_ms = tracer.total_ms("cost.memo_load");
    const double save_ms = tracer.total_ms("cost.memo_save");
    metrics["cost.memo_load_ms"] = load_ms;
    metrics["cost.memo_save_ms"] = save_ms;
    metrics["cost.memo_load_us_per_entry"] =
        load_ms * 1000.0 / static_cast<double>(entries_before);
    metrics["cost.memo_save_us_per_entry"] = save_ms * 1000.0 / entries;
    metrics["cost.memo_entries"] = entries;
    metrics["cost.memo_bytes"] =
        static_cast<double>(std::filesystem::file_size(o.cache_file));
    metrics["cost.memo_saves_without_growth"] =
        cache.size() == entries_before ? 1 : 0;
    json_line_metrics(o.cache_file, &metrics);
  }

  if (o.layout) {
    // The layout stage the analytic model ran per point, split by call.
    double build_ms = 0.0, floorplan_ms = 0.0, wire_ms = 0.0;
    for (const auto& dp : distinct) {
      auto start = Clock::now();
      const sega::DcimMacro macro = sega::build_dcim_macro(dp);
      build_ms += elapsed_ms(start);
      start = Clock::now();
      const sega::MacroLayout layout = sega::floorplan_macro(tech, macro);
      floorplan_ms += elapsed_ms(start);
      start = Clock::now();
      const auto report = sega::estimate_wirelength(layout, macro.netlist);
      wire_ms += elapsed_ms(start);
      if (!(report.total_um > 0.0)) die("layout replay: zero wirelength");
    }
    const double n = static_cast<double>(distinct.size());
    metrics["layout.points"] = n;
    metrics["layout.macro_build_ms"] = build_ms;
    metrics["layout.floorplan_ms"] = floorplan_ms;
    metrics["layout.wirelength_ms"] = wire_ms;
    metrics["cost.layout_ms_per_point"] =
        (build_ms + floorplan_ms + wire_ms) / n;
  }

  if (o.rtl_knees) {
    // The knees' elaboration, STA and (with --layout) floorplan +
    // wirelength, timed on their own outside the request.
    double elab_ms = 0.0, sta_ms = 0.0, knee_layout_ms = 0.0;
    for (const auto& knee : knees) {
      auto start = Clock::now();
      sega::DcimHarness harness(knee);
      elab_ms += elapsed_ms(start);
      start = Clock::now();
      const sega::StaResult sta = sega::run_sta(harness.macro().netlist, tech);
      sta_ms += elapsed_ms(start);
      if (!(sta.critical_delay() > 0.0)) die("rtl replay: zero delay");
      if (o.layout) {
        start = Clock::now();
        const sega::MacroLayout layout =
            sega::floorplan_macro(tech, harness.macro());
        sega::estimate_wirelength(layout, harness.macro().netlist);
        knee_layout_ms += elapsed_ms(start);
      }
    }
    const double knee_ms = tracer.total_ms("rtl.knee_eval");
    metrics["rtl.knee_eval_ms"] = knee_ms;
    metrics["rtl.elaborate_ms"] = elab_ms;
    metrics["rtl.sta_ms"] = sta_ms;
    // Gate simulation (the energy trace) is internal to the model: it is
    // the knee evaluation minus the parts timed on their own above.
    metrics["rtl.sim_ms"] =
        std::max(0.0, knee_ms - elab_ms - sta_ms - knee_layout_ms);
    metrics["rtl.knee_layout_ms"] = knee_layout_ms;
    metrics["rtl.elaborations"] = static_cast<double>(rtl.elaborations());
  }

  if (o.pool_threads > 1) {
    const double serial_ms = grid_wall_ms(o, model, 1);
    const double pooled_ms = grid_wall_ms(o, model, o.pool_threads);
    metrics["util.pool_speedup"] = serial_ms / pooled_ms;
  }

  metrics["replay.layers_ms"] = tracer.roots_ms();
  metrics["trace.spans"] = static_cast<double>(tracer.count());
  if (!o.spans_path.empty()) tracer.write(o.spans_path);
  std::cout << metrics.dump() << '\n';
  return 0;
}

// A serve daemon's requests, run in-process with the daemon's hooks (see
// the file comment).  Calibrated requests are not supported.
int serve_inprocess() {
  const sega::Technology tech = sega::Technology::tsmc28();
  using Key = std::tuple<int, double, double, double, bool>;
  std::map<Key, std::unique_ptr<sega::CostCache>> caches;
  sega::CliHooks hooks;
  hooks.tech = &tech;
  hooks.cache_for = [&](sega::CostModelKind kind,
                        const sega::EvalConditions& cond,
                        const std::string& calibration_file,
                        bool layout) -> sega::CostCache* {
    if (!calibration_file.empty()) return nullptr;
    auto& slot = caches[Key{static_cast<int>(kind), cond.supply_v,
                            cond.input_sparsity, cond.activity, layout}];
    if (!slot) {
      slot = std::make_unique<sega::CostCache>(
          std::make_unique<sega::BatchCoalescer>(
              sega::make_cost_model(kind, tech, cond, nullptr, layout)));
    }
    return slot.get();
  };
  for (std::string line; std::getline(std::cin, line);) {
    const auto request = sega::Json::parse(line);
    if (!request || !request->is_array()) die("malformed request line");
    std::vector<std::string> argv;
    for (const auto& a : request->elements()) argv.push_back(a.as_string());
    std::ostringstream out, err;
    const auto start = Clock::now();
    const int rc = sega::run_cli_hooked(argv, out, err, hooks);
    const double ms = elapsed_ms(start);
    if (rc != 0) die("run_cli_hooked failed: " + err.str());
    sega::Json result = sega::Json::object();
    result["ms"] = ms;
    result["out"] = out.str();
    std::cout << result.dump() << std::endl;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_trace replay|serve-inprocess ...");
  const std::string mode = argv[1];
  if (mode == "serve-inprocess") return serve_inprocess();
  if (mode != "replay") die("unknown mode " + mode);

  ReplayOptions o;
  std::vector<std::string> wstores, precisions;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--wstores") wstores = split_csv(value());
    else if (flag == "--precisions") precisions = split_csv(value());
    else if (flag == "--seed") o.dse.seed = std::stoull(value());
    else if (flag == "--population") o.dse.population = std::stoi(value());
    else if (flag == "--generations") o.dse.generations = std::stoi(value());
    else if (flag == "--cache-file") o.cache_file = value();
    else if (flag == "--layout") o.layout = true;
    else if (flag == "--rtl-knees") o.rtl_knees = true;
    else if (flag == "--pool-threads") o.pool_threads = std::stoi(value());
    else if (flag == "--spans") o.spans_path = value();
    else if (flag == "--no-spans") o.spans = false;
    else if (flag == "--request-only") o.request_only = true;
    else die("unknown flag " + flag);
  }
  if (wstores.empty() || precisions.empty()) {
    die("replay needs --wstores and --precisions");
  }
  for (const auto& w : wstores) {
    for (const auto& p : precisions) {
      const auto prec = sega::precision_from_name(p);
      if (!prec) die("unknown precision " + p);
      o.cells.push_back(Cell{std::stoll(w), *prec});
    }
  }
  return replay(o);
}
