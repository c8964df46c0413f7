// Per-layer probes of the traced run. Each layer's public functions are
// called and timed from here, on the polystore the workload just used;
// no instrumentation is added inside the program.
#include <cstdio>
#include <thread>

#include "common/rng.h"
#include "core/stream_ageout.h"
#include "exec/query_analysis.h"
#include "mimicbench.h"

namespace mimicbench {

namespace {

/// Median wall time of `n` calls of `fn`, in ms.
double TimeMedian(int n, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    const SteadyClock::time_point t0 = SteadyClock::now();
    fn();
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

void Require(const bigdawg::Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "probe %s: %s\n", what, st.ToString().c_str());
    std::abort();
  }
}

}  // namespace

std::vector<std::pair<std::string, std::pair<double, std::string>>> ProbeLayers(
    Env* env) {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> out;
  auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, {value, unit}});
  };
  bigdawg::core::BigDawg& dawg = *env->dawg;
  const Oracle& o = *env->oracle;
  bigdawg::Rng rng(env->seed + 77);
  const int n = 15;
  auto point_sql = [&] {
    return "SELECT * FROM patients WHERE patient_id = " +
           std::to_string(rng.NextInt(0, o.patients() - 1));
  };
  const std::string cast_hit =
      "RELATIONAL(SELECT COUNT(*) FROM CAST(waveforms, relation) WHERE "
      "patient_id >= 0 AND patient_id < 8 AND mv > 1.0)";
  const std::string cast_convert =
      "RELATIONAL(SELECT p.patient_id, w.avg_mv FROM patients p JOIN "
      "CAST(ARRAY(aggregate(waveforms, avg, mv, patient_id)), relation) w "
      "ON p.patient_id = w.patient_id WHERE p.age = 50)";

  // Timed probes run untraced; only the CAST queries below are traced.
  dawg.tracer().Disable();

  // exec: the service's fixed cost over a direct BigDawg::Execute of the
  // same query on an idle service, and the lock-set analysis. The query
  // reads an 8-row table, so the engine's own work does not drown that
  // cost. Both run from one thread that did none of the loading (the
  // service's workers did none either), alternating which goes first.
  bigdawg::relational::Database& pg = dawg.postgres();
  Require(pg.CreateTable("mimicbench_probe",
                         bigdawg::Schema({bigdawg::Field("k", bigdawg::DataType::kInt64),
                                          bigdawg::Field("v", bigdawg::DataType::kDouble)})),
          "probe table");
  for (int64_t k = 0; k < 8; ++k) {
    Require(pg.Insert("mimicbench_probe", {Value(k), Value(0.5 * k)}), "probe row");
  }
  Require(dawg.RegisterObject("mimicbench_probe", bigdawg::core::kEnginePostgres,
                              "mimicbench_probe"),
          "probe object");
  std::vector<double> via_service, direct;
  std::thread([&] {
    const std::string q = "RELATIONAL(SELECT * FROM mimicbench_probe WHERE k = 3)";
    for (int i = 0; i < 401; ++i) {
      for (int side = 0; side < 2; ++side) {
        const bool service = (i + side) % 2 == 0;
        const SteadyClock::time_point t0 = SteadyClock::now();
        auto t = service ? env->service->ExecuteSync(q) : dawg.Execute(q);
        (service ? via_service : direct).push_back(MsSince(t0));
        Require(t.status(), "overhead query");
        if (t->num_rows() != 1) Require(bigdawg::Status::Internal("rows"), "overhead query");
      }
    }
  }).join();
  add("exec.overhead_ms", Median(via_service) - Median(direct), "ms");
  add("exec.analyze_ms", TimeMedian(n, [&] {
        (void)bigdawg::exec::AnalyzeQuery(dawg, cast_convert);
      }), "ms");

  // core: cast planning and the cross-model fetches the casts read.
  add("core.plan_casts_ms", TimeMedian(n, [&] {
        Require(dawg.PlanCasts(cast_convert).status(), "plan");
      }), "ms");
  add("core.cast_fetch_ms",
      TimeMedian(n, [&] { Require(dawg.FetchAsTable("waveforms").status(), "fetch"); }) +
          TimeMedian(n, [&] { Require(dawg.FetchAsAssoc("labs").status(), "fetch"); }),
      "ms");
  // A few CAST queries through the traced service, so every workload's
  // span metrics include the cast span.
  dawg.tracer().Enable();
  for (int i = 0; i < 3; ++i) {
    Require(env->service->ExecuteSync(cast_hit).status(), "cast");
    Require(env->service->ExecuteSync(cast_convert).status(), "cast");
  }
  env->KeepTraces();
  dawg.tracer().Disable();

  // relational: the engine's SQL entry point on the workloads' statements.
  add("relational.point_ms",
      TimeMedian(n, [&] { Require(pg.ExecuteSql(point_sql()).status(), "sql"); }), "ms");
  add("relational.agg_ms", TimeMedian(n, [&] {
        Require(pg.ExecuteSql("SELECT SUM(value) FROM labs WHERE test = 'lactate'")
                    .status(),
                "sql");
      }), "ms");
  add("relational.dml_ms", TimeMedian(n, [&] {
        Require(pg.ExecuteSql("UPDATE labs SET value = 1.5 WHERE lab_id = " +
                              std::to_string(rng.NextInt(0, 999)))
                    .status(),
                "sql");
      }), "ms");

  // array: a tile and the per-patient aggregate the analytics cast reads.
  bigdawg::array::ArrayEngine& scidb = dawg.scidb();
  add("array.tile_ms", TimeMedian(n, [&] {
        const int64_t p = rng.NextInt(0, o.patients() - 8);
        Require(scidb.Query("subarray(waveforms, " + std::to_string(p) + ", 0, " +
                            std::to_string(p + 7) + ", 7)")
                    .status(),
                "tile");
      }), "ms");
  add("array.aggregate_ms", TimeMedian(5, [&] {
        Require(scidb.Query("aggregate(waveforms, avg, mv, patient_id)").status(), "agg");
      }), "ms");

  // kvstore: the text index's conjunctive search.
  add("kvstore.search_ms", TimeMedian(n, [&] {
        (void)dawg.accumulo().SearchAllTerms({"heparin", "critical"});
      }), "ms");

  // d4m: row sums of the associative view of labs.
  bigdawg::Result<bigdawg::d4m::AssocArray> labs = dawg.FetchAsAssoc("labs");
  Require(labs.status(), "assoc");
  add("d4m.rowsums_ms", TimeMedian(n, [&] { (void)labs->RowSums(); }), "ms");

  // stream + age-out: a burst of vitals events through Ingest, drained and
  // flushed into the array engine.
  bigdawg::stream::StreamEngine& engine = dawg.sstore();
  bigdawg::core::StreamAgeOut& ageout = *dawg.stream_ageout();
  const bigdawg::core::StreamAgeOutStats before = ageout.GetStats();
  std::vector<double> ingest_us;
  const SteadyClock::time_point t0 = SteadyClock::now();
  env->IngestEvents(env->scale.stream_probe_events, &ingest_us);
  const SteadyClock::time_point t1 = SteadyClock::now();
  engine.WaitForDrain();
  const double drain_ms = MsSince(t1);
  const SteadyClock::time_point t2 = SteadyClock::now();
  Require(ageout.FlushAll(), "flush");
  const double flush_ms = MsSince(t2);
  const double burst_s = MsSince(t0) / 1e3;
  const bigdawg::core::StreamAgeOutStats after = ageout.GetStats();
  env->CollectAlerts();
  const bigdawg::stream::StreamEngineStats stats = engine.GetStats();
  add("stream.ingest_us", Median(ingest_us), "us");
  add("stream.drain_ms", drain_ms, "ms");
  add("stream.backpressured", static_cast<double>(stats.backpressured), "count");
  add("stream.ingest_lag_p50_ms", stats.ingest_lag_p50_ms, "ms");
  add("stream.command_log_records",
      static_cast<double>(engine.SnapshotCommandLog().size()), "count");
  add("stream.alerts", static_cast<double>(env->alerts_total), "count");
  add("core.ageout_flush_ms", flush_ms, "ms");
  add("core.ageout_flushes", static_cast<double>(after.flushes - before.flushes),
      "count");
  add("core.ageout_rows_per_s",
      static_cast<double>(after.flushed_rows - before.flushed_rows) / burst_s, "1/s");
  return out;
}

}  // namespace mimicbench
