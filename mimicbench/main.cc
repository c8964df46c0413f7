// mimicbench: the MIMIC II demo benchmark of the BigDAWG polystore.
//
//   mimicbench --workload W --seed N --seconds S --trace 0|1
//   mimicbench --selfcheck          tiny data; every oracle must catch a
//                                   perturbed expected answer
//   mimicbench --stale-repro        reproduces the stale cross-model read
//
// With --trace 0 the last stdout line is a JSON object with the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "mimicbench.h"

extern char** environ;

namespace mimicbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 2015;
  double seconds = 10;
  bool trace = false;
  bool selfcheck = false;
  bool stale_repro = false;
};

bool Parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--selfcheck") {
      a->selfcheck = true;
    } else if (arg == "--stale-repro") {
      a->stale_repro = true;
    } else if (next != nullptr && arg == "--workload") {
      a->workload = argv[++i];
    } else if (next != nullptr && arg == "--seed") {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (next != nullptr && arg == "--seconds") {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (next != nullptr && arg == "--trace") {
      a->trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (a->selfcheck || a->stale_repro) return true;
  if (!KnownWorkload(a->workload) || a->seconds <= 0) {
    std::fprintf(stderr, "need --workload {clinic_read|cast_analytics|ward_write|"
                         "icu_stream} and --seconds > 0\n");
    return false;
  }
  return true;
}

/// Each BIGDAWG_* variable silently changes what is measured (cast cache
/// size, tracing, profiler, adaptive placement, shards, slow-query log,
/// logging), so the benchmark measures only the shipped defaults.
bool EnvironmentIsDefault() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "BIGDAWG_", 8) == 0) {
      std::fprintf(stderr, "refusing to run with %s set: it changes the measured "
                           "configuration\n", *e);
      clean = false;
    }
  }
  return clean;
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// Page faults and context switches of the whole process: a slow run with
/// many more minor faults than its peers paid for the kernel handing the
/// allocator fresh pages.
void PrintRusage() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  std::printf("# rusage minflt=%ld majflt=%ld nvcsw=%ld nivcsw=%ld user_s=%.2f sys_s=%.2f\n",
              u.ru_minflt, u.ru_majflt, u.ru_nvcsw, u.ru_nivcsw,
              static_cast<double>(u.ru_utime.tv_sec) + u.ru_utime.tv_usec / 1e6,
              static_cast<double>(u.ru_stime.tv_sec) + u.ru_stime.tv_usec / 1e6);
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::string json = "{\"correct\": ";
  json += tally.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.first);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintClasses(const Tally& tally) {
  std::printf("%-14s %8s %10s %10s\n", "class", "samples", "p50_ms", "p95_ms");
  for (const auto& [cls, v] : tally.latency_ms) {
    std::printf("%-14s %8zu %10.3f %10.3f\n", cls.c_str(), v.size(), Median(v),
                Percentile(v, 0.95));
  }
  for (const std::string& e : tally.errors) {
    std::fprintf(stderr, "wrong: %s\n", e.c_str());
  }
}

struct SetupSummary {
  std::unique_ptr<Env> env;
  double setup_s = 0, generate_s = 0, load_s = 0;
};

/// Sets the polystore up `reps` times (keeping the last) and reports the
/// median of each set-up time.
SetupSummary SetUp(const Args& a, const Scale& scale, int reps, bool cast_cache_off) {
  SetupSummary s;
  std::vector<double> total, gen, load;
  for (int i = 0; i < reps; ++i) {
    s.env.reset();
    SetupTimes t;
    s.env = Setup(a.workload, a.seed, scale, cast_cache_off, &t);
    if (s.env == nullptr) return s;
    total.push_back(t.total_s);
    gen.push_back(t.generate_s);
    load.push_back(t.load_s);
  }
  s.setup_s = Median(total);
  s.generate_s = Median(gen);
  s.load_s = Median(load);
  return s;
}

double Rate(const PhaseResult& r) { return r.work_s > 0 ? r.work / r.work_s : 0; }

/// Share of each session's time spent waiting for the other at the round
/// barrier: how far the mix's fixed per-round counts hold a session back.
void PrintBarrierIdle(const PhaseResult& r) {
  if (r.idle_s.empty()) return;
  std::printf("# barrier_idle_pct");
  for (size_t i = 0; i < r.idle_s.size(); ++i) {
    std::printf(" session%zu=%.1f", i, 100.0 * r.idle_s[i] / r.elapsed_s);
  }
  std::printf("\n");
}

int RunBenchmark(const Args& a) {
  SetupSummary s = SetUp(a, Scale{}, 3, false);
  if (s.env == nullptr) return 1;
  const double heap_mb = HeapInUseMb();
  std::unique_ptr<Workload> workload = MakeWorkload(a.workload, s.env.get());
  std::printf("# benchmark_own_heap_mb oracle=%.1f workload_model=%.1f\n",
              s.env->oracle_mb, HeapInUseMb() - heap_mb);
  Metrics metrics;
  Tally tally;
  if (!a.trace) {
    PhaseResult r = workload->Run(a.seconds);
    tally = r.tally;
    auto p50 = [&](const std::string& cls) { return Median(tally.latency_ms[cls]); };
    const std::vector<double>& point = tally.latency_ms["point"];
    if (point.size() < 200 || tally.latency_ms[r.primary].empty() ||
        tally.latency_ms[r.secondary].empty()) {
      tally.Wrong("too few samples for the latency metrics");
    }
    PrintClasses(tally);
    metrics = {{"setup_s", {s.setup_s, "s"}},
               {"ops_per_s", {Rate(r), "1/s"}},
               {"peak_rss_mb", {PeakRssMb(), "MB"}},
               {"point_p50_ms", {Median(point), "ms"}},
               {"point_p95_ms", {Percentile(point, 0.95), "ms"}},
               {"primary_p50_ms", {p50(r.primary), "ms"}},
               {"secondary_p50_ms", {p50(r.secondary), "ms"}}};
    std::printf("# primary=%s secondary=%s rounds_elapsed_s=%.3f\n", r.primary.c_str(),
                r.secondary.c_str(), r.elapsed_s);
    PrintBarrierIdle(r);
  } else {
    // An untraced quarter, the traced half, an untraced quarter: the
    // untraced throughput over the traced one is the tracing overhead,
    // and the split keeps drift within the run off one side. Cache
    // figures come from the traced half; span figures from it and the
    // probes that follow. Spans are folded only after both.
    PhaseResult untraced = workload->Run(a.seconds / 4);
    const bigdawg::core::CastCacheStats c0 = s.env->dawg->cast_cache().Stats();
    s.env->dawg->tracer().Enable();
    PhaseResult traced = workload->Run(a.seconds / 2);
    s.env->dawg->tracer().Disable();
    const bigdawg::core::CastCacheStats c1 = s.env->dawg->cast_cache().Stats();
    PhaseResult untraced_after = workload->Run(a.seconds / 4);
    untraced.work += untraced_after.work;
    untraced.work_s += untraced_after.work_s;
    Metrics layers = ProbeLayers(s.env.get());
    tally = untraced.tally;
    tally.Merge(traced.tally);
    tally.Merge(untraced_after.tally);
    PrintClasses(tally);
    PrintBarrierIdle(traced);

    SpanStats sp;
    for (const bigdawg::obs::TraceSpan& root : s.env->traces) sp.Fold(root);
    auto mean = [](const std::vector<double>& v) {
      double sum = 0;
      for (double x : v) sum += x;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double lookups = hits + static_cast<double>(c1.misses - c0.misses);
    metrics = {{"mimic.generate_s", {s.generate_s, "s"}},
               {"mimic.load_s", {s.load_s, "s"}}};
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    metrics.push_back({"exec.lock_wait_ms", {mean(sp.lock_ms), "ms"}});
    metrics.push_back(
        {"exec.read_lock_wait_share",
         {sp.reads > 0 ? static_cast<double>(sp.read_lock_waits) / sp.reads : 0, "ratio"}});
    metrics.push_back({"core.scope_self_ms", {Median(sp.scope_self_ms), "ms"}});
    metrics.push_back({"core.cast_self_ms", {Median(sp.cast_self_ms), "ms"}});
    metrics.push_back({"core.cast_bytes", {mean(sp.cast_bytes), "bytes"}});
    metrics.push_back({"core.cast_hit_ratio",
                       {lookups > 0 ? hits / lookups : 0, "ratio"}});
    metrics.push_back({"core.cast_evictions",
                       {static_cast<double>(c1.evictions - c0.evictions), "count"}});
    metrics.push_back({"obs.trace_overhead_pct",
                       {(Rate(untraced) / Rate(traced) - 1.0) * 100.0, "%"}});
  }
  PrintRusage();
  PrintResult(tally, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Self-check and the stale-read reproducer.
// ---------------------------------------------------------------------------

/// Runs `workload` on tiny data for a short phase with `perturb` set.
PhaseResult TinyRun(const std::string& workload, const std::string& perturb,
                    bool cast_cache_off) {
  Args a;
  a.workload = workload;
  g_perturb = perturb;
  SetupSummary s = SetUp(a, Scale::Tiny(), 1, cast_cache_off);
  PhaseResult r;
  if (s.env == nullptr) {
    r.tally.Wrong("setup failed");
  } else {
    r = MakeWorkload(workload, s.env.get())->Run(0.5);
  }
  g_perturb.clear();
  return r;
}

int SelfCheck() {
  int bad = 0;
  auto report = [&bad](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    bad += ok ? 0 : 1;
  };
  for (const std::string& w : WorkloadNames()) {
    PhaseResult r = TinyRun(w, "", false);
    for (const std::string& e : r.tally.errors) {
      std::fprintf(stderr, "wrong: %s\n", e.c_str());
    }
    report(r.tally.wrong == 0 && r.tally.attempted > 0,
           w + ": every answer checks (" + std::to_string(r.tally.attempted) + " ops)");
    if (w == "ward_write") {
      report(r.tally.failed > 0, w + ": stale D4M reads are reported as failed (" +
                                     std::to_string(r.tally.failed) + ")");
    }
  }
  // A D4M answer counts as failed only when it is exactly the pre-write
  // labs: with that expected snapshot perturbed, the stale answer is wrong.
  PhaseResult stale = TinyRun("ward_write", "d4m_stale", false);
  report(stale.tally.wrong > 0 && stale.tally.failed == 0,
         "ward_write: a stale D4M answer that is not the pre-write labs is wrong");
  // With the cast cache off, the D4M read-back is fresh and must pass;
  // perturbed, it is wrong.
  PhaseResult fresh = TinyRun("ward_write", "", true);
  report(fresh.tally.failed == 0 && fresh.tally.wrong == 0,
         "ward_write without the cast cache: D4M read-backs pass");
  PhaseResult d4m = TinyRun("ward_write", "d4m", true);
  report(d4m.tally.wrong > 0,
         "ward_write without the cast cache: perturbed D4M answer is wrong");

  const std::vector<std::pair<std::string, std::string>> perturbations = {
      {"clinic_read", "point"},         {"clinic_read", "agg"},
      {"clinic_read", "tile"},          {"clinic_read", "text"},
      {"cast_analytics", "cast_hit"},   {"cast_analytics", "cast_convert"},
      {"ward_write", "agg"},            {"ward_write", "point"},
      {"icu_stream", "live"},           {"icu_stream", "archive"},
      {"icu_stream", "stream"},         {"icu_stream", "alerts"},
      {"icu_stream", "point"}};
  for (const auto& [w, cls] : perturbations) {
    PhaseResult r = TinyRun(w, cls, false);
    report(r.tally.wrong > 0, w + ": perturbed '" + cls + "' answer is caught");
  }
  std::printf("%s\n", bad == 0 ? "selfcheck passed" : "selfcheck FAILED");
  return bad == 0 ? 0 : 1;
}

/// D4M(ROWSUM labs) before and after a relational INSERT into labs: with
/// the fault present the second read returns the cached pre-insert view.
int StaleRepro(uint64_t seed) {
  Args a;
  a.workload = "ward_write";
  a.seed = seed;
  SetupSummary s = SetUp(a, Scale::Tiny(), 1, false);
  if (s.env == nullptr) return 2;
  bigdawg::exec::QueryService& svc = *s.env->service;
  const int64_t next_id = s.env->oracle->labs().rbegin()->first + 1;
  auto rows = [&svc]() -> int64_t {
    auto t = svc.ExecuteSync("D4M(ROWSUM labs)");
    return t.ok() ? static_cast<int64_t>(t->num_rows()) : -1;
  };
  const int64_t before = rows();
  auto ins = svc.ExecuteSync("POSTGRES(INSERT INTO labs VALUES (" +
                             std::to_string(next_id) + ", 0, 'lactate', 1.0))");
  if (!ins.ok()) return 2;
  const int64_t after = rows();
  std::printf("D4M(ROWSUM labs): %lld rows before the INSERT, %lld after, want %lld\n",
              static_cast<long long>(before), static_cast<long long>(after),
              static_cast<long long>(before + 1));
  if (after != before + 1) {
    std::printf("STALE: relational DML does not bump the catalog version, so the cast "
                "cache serves the pre-write associative view\n");
    return 1;
  }
  std::printf("fresh: the cross-model read sees the write\n");
  return 0;
}

}  // namespace
}  // namespace mimicbench

int main(int argc, char** argv) {
  using namespace mimicbench;
  Args a;
  if (!Parse(argc, argv, &a)) return 2;
  if (!EnvironmentIsDefault()) return 2;
  std::printf("# mimicbench git=%s build=%s nproc=%u\n", MIMICBENCH_GIT_SHA,
              MIMICBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  std::fflush(stdout);
  if (a.selfcheck) return SelfCheck();
  if (a.stale_repro) return StaleRepro(a.seed);
  const Scale scale;
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d patients=%lld "
              "waveform_cells=%lld\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, static_cast<long long>(scale.patients),
              static_cast<long long>(scale.patients * scale.waveform_hz));
  return RunBenchmark(a);
}
