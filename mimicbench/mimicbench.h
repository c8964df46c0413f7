// The MIMIC demo benchmark: shared types for the main program, the workloads,
// the answer oracle and the per-layer probes.
//
// Every operation goes through the polystore's public surface
// (exec::QueryService for queries, StreamEngine::Ingest for events), and
// every answer is checked against values computed here from the generated
// MimicData with plain loops.
#ifndef MIMICBENCH_MIMICBENCH_H_
#define MIMICBENCH_MIMICBENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "core/bigdawg.h"
#include "exec/query_service.h"
#include "mimic/mimic.h"
#include "obs/trace.h"
#include "relational/table.h"

namespace mimicbench {

using bigdawg::Row;
using bigdawg::Value;
using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point t0);
double Median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q);

/// Data sizes. The defaults are what the benchmark measures; the tiny
/// scale runs every workload in about a second for the self-check.
struct Scale {
  int64_t patients = 20000;
  int64_t waveform_hz = 32;           // one second of waveform per patient
  int64_t icu_beds = 64;              // contiguous block of monitored patients
  int64_t icu_round_events = 40000;   // events per producer round
  int64_t icu_history_cap = 32768;    // age-out archive bound (rows)
  int64_t icu_warmup_events = 4096;
  int64_t stream_probe_events = 20000;
  static Scale Tiny();
};

/// Names of the stream objects every setup defines (the ICU monitoring
/// pipeline of the demo): a vitals feed keyed by patient, a sliding
/// window, a reference table for the alerting procedures and the age-out
/// archive in the array engine.
inline constexpr char kIcuStream[] = "icu_vitals";
inline constexpr char kIcuWindow[] = "icu_window";
inline constexpr char kIcuReference[] = "icu_reference";
inline constexpr char kIcuHistory[] = "icu_vitals__history";
inline constexpr int64_t kIcuRetention = 512;
inline constexpr int64_t kIcuWindowSize = 256;
inline constexpr int64_t kIcuWindowSlide = 64;

/// Oracle classes whose expected answer the self-check can perturb.
/// Set once before any workload runs; empty means no perturbation.
extern std::string g_perturb;
inline bool Perturbed(const char* cls) { return g_perturb == cls; }

// ---------------------------------------------------------------------------
// Oracle: expected answers computed from the generated inputs.
// ---------------------------------------------------------------------------

struct LabRow {
  int64_t patient = 0;
  std::string test;
  double value = 0;
};
struct RxRow {
  int64_t patient = 0;
  std::string drug;
  double dose = 0;
};

class Oracle {
 public:
  Oracle(const bigdawg::mimic::MimicData& data, int64_t samples);

  int64_t patients() const { return static_cast<int64_t>(patient_rows_.size()); }
  int64_t samples() const { return samples_; }
  const Row& Patient(int64_t id) const { return patient_rows_[static_cast<size_t>(id)]; }
  int64_t PatientAge(int64_t id) const;
  double Wave(int64_t patient, int64_t t) const {
    return wave_[static_cast<size_t>(patient * samples_ + t)];
  }
  /// Admissions with severity >= s.
  int64_t CountSeverityAtLeast(int64_t s) const;
  /// diagnosis -> admissions with severity == s.
  std::map<std::string, int64_t> DiagnosisCounts(int64_t s) const;
  /// Sum of the generated lab values of one test.
  double LabSum(const std::string& test) const;
  /// Waveform cells of patients [lo, hi) with mv > x.
  int64_t CountWaveAbove(int64_t lo, int64_t hi, double x) const;
  /// Mean of a patient's waveform samples.
  double WaveMean(int64_t patient) const;
  /// Notes containing every term: doc_id -> (owner, summed term frequency).
  std::map<std::string, std::pair<std::string, int64_t>> Search(
      const std::vector<std::string>& terms) const;

  const std::map<int64_t, LabRow>& labs() const { return labs_; }
  const std::map<int64_t, RxRow>& prescriptions() const { return rx_; }

 private:
  struct Posting {
    size_t note = 0;  // index into note_ids_/note_owners_
    int64_t tf = 0;
  };
  int64_t samples_;
  std::vector<Row> patient_rows_;
  std::vector<std::pair<std::string, int64_t>> admissions_;  // diagnosis, severity
  std::vector<double> wave_;
  std::vector<std::string> note_ids_;
  std::vector<std::string> note_owners_;
  /// term -> notes containing it, in note order.
  std::map<std::string, std::vector<Posting>> postings_;
  std::map<int64_t, LabRow> labs_;
  std::map<std::string, double> lab_sums_;
  std::map<int64_t, RxRow> rx_;
};

// ---------------------------------------------------------------------------
// Per-session bookkeeping.
// ---------------------------------------------------------------------------

/// Latency samples per operation class, plus attempted/failed/wrong counts.
/// `failed` is reserved for the one fault the benchmark attributes (stale
/// cross-model reads after relational DML); any other wrong answer or
/// error is `wrong` and makes the run incorrect.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  std::map<std::string, std::vector<double>> latency_ms;
  std::vector<std::string> errors;  // first few wrong answers, for stderr

  void Merge(const Tally& other);
  void Wrong(const std::string& what);
};

/// Span statistics of the traced phase, folded after it from the spans
/// the program already records (locks, scope, cast).
struct SpanStats {
  std::vector<double> lock_ms;
  std::vector<double> scope_self_ms;
  std::vector<double> cast_self_ms;
  std::vector<double> cast_bytes;
  /// RELATIONAL queries without a CAST, and those of them whose `locks`
  /// span shows a wait of more than kLockWaitMs.
  int64_t reads = 0;
  int64_t read_lock_waits = 0;
  static constexpr double kLockWaitMs = 0.5;
  void Fold(const bigdawg::obs::TraceSpan& root);
};

/// A check returns "" when the answer is right, else what was wrong.
using Check = std::function<std::string(const bigdawg::relational::Table&)>;

/// One client session of the query service.
class Client {
 public:
  explicit Client(bigdawg::exec::QueryService* service);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Runs `query`, checks the answer and records its latency under `cls`.
  /// An answer `check` rejects counts as failed when `attributed` accepts
  /// it (it is exactly the answer the one named fault gives: the stale
  /// cross-model read), as wrong otherwise.
  std::optional<bigdawg::relational::Table> Run(const char* cls,
                                                const std::string& query,
                                                const Check& check,
                                                const Check& attributed = nullptr);
  Tally& tally() { return tally_; }

 private:
  bigdawg::exec::QueryService* service_;
  int64_t session_;
  Tally tally_;
};

// ---------------------------------------------------------------------------
// The loaded polystore and the workloads.
// ---------------------------------------------------------------------------

struct Env {
  Scale scale;
  uint64_t seed = 0;
  std::unique_ptr<bigdawg::core::BigDawg> dawg;
  std::unique_ptr<bigdawg::exec::QueryService> service;
  std::unique_ptr<Oracle> oracle;
  // ICU monitoring inputs, derived from the seed and the generated data.
  int64_t icu_first_bed = 0;             // patient id of bed 0
  std::vector<bool> icu_flipped;         // per bed: driven into tachycardia
  std::vector<std::vector<double>> icu_signal;  // per bed: live samples, cycled
  int64_t icu_next_event = 0;            // global event index
  double icu_min_value = 0, icu_max_value = 0;
  /// Patient ids that raised a threshold alert so far.
  std::map<int64_t, int64_t> icu_alerted;
  int64_t alerts_total = 0;
  /// Span trees of the traced phase, kept unfolded until it ends.
  std::vector<bigdawg::obs::TraceSpan> traces;
  /// Heap the oracle holds (the benchmark's own memory, inside peak RSS).
  double oracle_mb = 0;

  ~Env();

  /// Moves the tracer's finished traces into `traces` when tracing is on.
  /// Called between operations, never inside a timed one; the tracer keeps
  /// only its last 128 traces.
  void KeepTraces();

  /// Value of event `i` of the live vitals feed: (patient, mv).
  std::pair<int64_t, double> IcuEvent(int64_t i) const;
  /// Ingests events [icu_next_event, icu_next_event + n), retrying every
  /// refused Ingest; returns the refusals. `ingest_us`, when given,
  /// receives each event's time from first attempt to acceptance.
  int64_t IngestEvents(int64_t n, std::vector<double>* ingest_us);
  /// Takes the stream engine's alerts and records threshold alerts per
  /// patient.
  void CollectAlerts();
};

struct SetupTimes {
  double generate_s = 0;
  double load_s = 0;
  double total_s = 0;
};

/// Generates the MIMIC data from the seed, loads it, defines the ICU
/// stream pipeline and warms up `workload`.
std::unique_ptr<Env> Setup(const std::string& workload, uint64_t seed,
                           const Scale& scale, bool cast_cache_off,
                           SetupTimes* times);

/// Result of one timed phase of a workload.
struct PhaseResult {
  Tally tally;
  double elapsed_s = 0;
  /// Completed operations (for icu_stream: events ingested, drained and
  /// flushed) and the seconds they took.
  double work = 0;
  double work_s = 0;
  /// Which classes the primary/secondary latency metrics read.
  std::string primary, secondary;
  /// Per session: seconds spent waiting at the round barrier for the
  /// other session.
  std::vector<double> idle_s;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs whole rounds until `seconds` have passed.
  virtual PhaseResult Run(double seconds) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Env* env);
bool KnownWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

/// Bytes the heap holds in use (all malloc arenas and mmapped blocks).
double HeapInUseMb();

/// Per-layer probes for the traced run: times calls into each layer's
/// public functions from here. Returns metric name -> (value, unit).
std::vector<std::pair<std::string, std::pair<double, std::string>>> ProbeLayers(
    Env* env);

}  // namespace mimicbench

#endif  // MIMICBENCH_MIMICBENCH_H_
