// Set-up: generate the MIMIC data from the seed, load it into the
// polystore, define the ICU monitoring pipeline and warm up a workload.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/macros.h"
#include "core/stream_ageout.h"
#include "mimicbench.h"
#include "stream/alerting.h"

namespace mimicbench {

namespace core = bigdawg::core;
namespace mimic = bigdawg::mimic;
namespace stream = bigdawg::stream;
using bigdawg::DataType;
using bigdawg::Field;
using bigdawg::Schema;
using bigdawg::Status;

Env::~Env() {
  service.reset();
  if (dawg != nullptr) dawg->sstore().Stop();
}

std::pair<int64_t, double> Env::IcuEvent(int64_t i) const {
  const int64_t beds = static_cast<int64_t>(icu_signal.size());
  const std::vector<double>& signal = icu_signal[static_cast<size_t>(i % beds)];
  const int64_t k = i / beds;
  return {icu_first_bed + i % beds,
          signal[static_cast<size_t>(k % static_cast<int64_t>(signal.size()))]};
}

int64_t Env::IngestEvents(int64_t n, std::vector<double>* ingest_us) {
  stream::StreamEngine& engine = dawg->sstore();
  int64_t refused = 0;
  for (int64_t i = 0; i < n; ++i, ++icu_next_event) {
    const auto [patient, mv] = IcuEvent(icu_next_event);
    const SteadyClock::time_point t0 = SteadyClock::now();
    for (;;) {
      Status st = engine.Ingest(kIcuStream, {Value(patient), Value(mv)});
      if (st.ok()) break;
      if (st.code() != bigdawg::StatusCode::kResourceExhausted) {
        std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
        std::abort();
      }
      ++refused;
      std::this_thread::yield();
    }
    if (ingest_us != nullptr) ingest_us->push_back(MsSince(t0) * 1e3);
  }
  return refused;
}

void Env::KeepTraces() {
  if (!dawg->tracer().enabled()) return;
  for (bigdawg::obs::TraceSpan& root : dawg->tracer().DrainFinished()) {
    traces.push_back(std::move(root));
  }
}

void Env::CollectAlerts() {
  std::vector<Row> alerts = dawg->sstore().TakeAlerts();
  for (const Row& a : alerts) {
    if (!a.empty() && a[0].ToString() == "threshold") {
      ++icu_alerted[a[1].int64_unchecked()];
    }
  }
  alerts_total += static_cast<int64_t>(alerts.size());
}

namespace {

/// Picks the monitored beds and which of them the feed drives into
/// tachycardia, and derives each bed's live signal and reference bounds
/// from the generated waveforms.
Status DefineIcuPipeline(const mimic::MimicData& data, Env* env, bigdawg::Rng* rng) {
  const Scale& s = env->scale;
  const int64_t samples = s.waveform_hz;
  env->icu_first_bed = rng->NextInt(0, s.patients - s.icu_beds);
  // A fixed tenth of the beds (at least one) is driven into tachycardia,
  // so every seed gives the alerting procedures the same amount of work.
  env->icu_flipped.assign(static_cast<size_t>(s.icu_beds), false);
  for (int64_t flipped = 0; flipped < std::max<int64_t>(1, s.icu_beds / 10);) {
    const uint64_t b = rng->NextBelow(static_cast<uint64_t>(s.icu_beds));
    std::vector<bool>::reference bed = env->icu_flipped[static_cast<size_t>(b)];
    if (!bed) {
      bed = true;
      ++flipped;
    }
  }

  stream::StreamEngine& engine = env->dawg->sstore();
  BIGDAWG_RETURN_NOT_OK(engine.CreateStream(
      kIcuStream,
      Schema({Field("patient_id", DataType::kInt64), Field("mv", DataType::kDouble)}),
      static_cast<size_t>(kIcuRetention)));
  BIGDAWG_RETURN_NOT_OK(
      env->dawg->RegisterObject(kIcuStream, core::kEngineSStore, kIcuStream));
  BIGDAWG_RETURN_NOT_OK(engine.CreateWindow(kIcuWindow, kIcuStream, kIcuWindowSize,
                                            kIcuWindowSlide));
  BIGDAWG_RETURN_NOT_OK(engine.CreateTable(
      kIcuReference,
      Schema({Field("patient_id", DataType::kInt64), Field("low", DataType::kDouble),
              Field("high", DataType::kDouble), Field("mean", DataType::kDouble)})));

  std::vector<Row> reference;
  env->icu_signal.clear();
  for (int64_t b = 0; b < s.icu_beds; ++b) {
    const int64_t p = env->icu_first_bed + b;
    std::vector<double> history(static_cast<size_t>(samples));
    for (int64_t t = 0; t < samples; ++t) {
      history[static_cast<size_t>(t)] = (*data.waveforms.Get({p, t}))[0];
    }
    const auto [lo, hi] = std::minmax_element(history.begin(), history.end());
    double mean = 0;
    for (double v : history) mean += v;
    mean /= static_cast<double>(samples);
    reference.push_back({Value(p), Value(*lo - 0.25), Value(*hi + 0.25), Value(mean)});
    if (env->icu_flipped[static_cast<size_t>(b)]) {
      // Tachycardia: the rate more than doubles and the QRS amplitude
      // grows, which carries the signal past the reference high bound.
      std::vector<double> live = mimic::SynthesizeEcg(
          data.resting_hr[static_cast<size_t>(p)] * 2.2, 256,
          static_cast<double>(s.waveform_hz), true, rng);
      for (double& v : live) v *= 1.8;
      env->icu_signal.push_back(std::move(live));
    } else {
      // A stable patient replays its recorded rhythm.
      env->icu_signal.push_back(std::move(history));
    }
  }
  env->icu_min_value = env->icu_max_value = env->icu_signal[0][0];
  for (const auto& sig : env->icu_signal) {
    for (double v : sig) {
      env->icu_min_value = std::min(env->icu_min_value, v);
      env->icu_max_value = std::max(env->icu_max_value, v);
    }
  }
  BIGDAWG_RETURN_NOT_OK(engine.RegisterProcedure(
      "icu_load_reference", [reference](stream::ProcContext* ctx) {
        for (const Row& row : reference) {
          BIGDAWG_RETURN_NOT_OK(ctx->Put(kIcuReference, row));
        }
        return Status::OK();
      }));
  BIGDAWG_RETURN_NOT_OK(engine.ExecuteProcedure("icu_load_reference", {}));

  stream::WaveformAlertConfig alert;
  alert.stream = kIcuStream;
  alert.window = kIcuWindow;
  alert.reference = kIcuReference;
  alert.key_field = 0;
  alert.value_field = 1;
  alert.window_key = Value(env->icu_first_bed);
  BIGDAWG_RETURN_NOT_OK(stream::InstallWaveformAlert(&engine, alert));

  core::StreamAgeOutConfig ageout;
  ageout.max_history_rows = static_cast<size_t>(s.icu_history_cap);
  BIGDAWG_RETURN_NOT_OK(env->dawg->EnableStreamAgeOut(ageout));
  engine.Start();
  return Status::OK();
}

/// Queries run once before timing so lazy set-up (first cast conversions,
/// the cast cache, the profiler's classes) is done; each must succeed.
Status WarmUp(const std::string& workload, Env* env) {
  std::vector<std::string> queries = {
      "RELATIONAL(SELECT * FROM patients WHERE patient_id = 1)",
      "RELATIONAL(SELECT COUNT(*) FROM admissions WHERE severity >= 2)"};
  if (workload == "clinic_read") {
    queries.push_back("ARRAY(subarray(waveforms, 0, 0, 7, 7))");
    queries.push_back("TEXT(SEARCH heparin sick)");
  } else if (workload == "cast_analytics") {
    queries.push_back(
        "RELATIONAL(SELECT COUNT(*) FROM CAST(waveforms, relation) WHERE "
        "patient_id >= 0 AND patient_id < 8 AND mv > 1.0)");
    queries.push_back(
        "RELATIONAL(SELECT p.patient_id, w.avg_mv FROM patients p JOIN "
        "CAST(ARRAY(aggregate(waveforms, avg, mv, patient_id)), relation) w "
        "ON p.patient_id = w.patient_id WHERE p.age = 50)");
  } else if (workload == "ward_write") {
    // Fills the cast cache with the pre-write associative view of labs.
    queries.push_back("D4M(ROWSUM labs)");
  } else if (workload == "icu_stream") {
    env->IngestEvents(env->scale.icu_warmup_events, nullptr);
    env->dawg->sstore().WaitForDrain();
    BIGDAWG_RETURN_NOT_OK(env->dawg->stream_ageout()->FlushAll());
    queries.push_back(std::string("STREAM(AGGREGATE ") + kIcuWindow + ")");
    queries.push_back(std::string("ARRAY(aggregate(") + kIcuHistory + ", count, mv))");
  }
  for (const std::string& q : queries) {
    BIGDAWG_RETURN_NOT_OK(env->service->ExecuteSync(q).status());
  }
  return Status::OK();
}

}  // namespace

std::unique_ptr<Env> Setup(const std::string& workload, uint64_t seed,
                           const Scale& scale, bool cast_cache_off,
                           SetupTimes* times) {
  auto env = std::make_unique<Env>();
  env->scale = scale;
  env->seed = seed;
  const SteadyClock::time_point t0 = SteadyClock::now();

  mimic::MimicConfig config;
  config.num_patients = scale.patients;
  config.waveform_seconds = 1;
  config.waveform_hz = scale.waveform_hz;
  config.seed = seed;
  bigdawg::Result<mimic::MimicData> data = mimic::Generate(config);
  if (!data.ok()) {
    std::fprintf(stderr, "generate: %s\n", data.status().ToString().c_str());
    return nullptr;
  }
  times->generate_s = MsSince(t0) / 1e3;

  const SteadyClock::time_point t1 = SteadyClock::now();
  env->dawg = std::make_unique<core::BigDawg>();
  Status st = mimic::LoadIntoBigDawg(*data, env->dawg.get());
  times->load_s = MsSince(t1) / 1e3;

  bigdawg::Rng rng(seed ^ 0x1c0ull);
  if (st.ok()) st = DefineIcuPipeline(*data, env.get(), &rng);
  if (st.ok()) {
    bigdawg::exec::QueryServiceConfig service_config;
    if (cast_cache_off) service_config.cast_cache_bytes = 0;
    env->service = std::make_unique<bigdawg::exec::QueryService>(env->dawg.get(),
                                                                 service_config);
    st = WarmUp(workload, env.get());
  }
  if (!st.ok()) {
    std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
    return nullptr;
  }
  times->total_s = MsSince(t0) / 1e3;

  // The oracle is the benchmark's own work, outside the set-up time.
  const double heap_mb = HeapInUseMb();
  env->oracle = std::make_unique<Oracle>(*data, scale.waveform_hz);
  env->oracle_mb = HeapInUseMb() - heap_mb;
  return env;
}

}  // namespace mimicbench
