// The four workloads of the MIMIC demo: browsing/exploration/text reads,
// complex analytics across islands, ward writes beside reads, and ICU
// real-time monitoring. Each client is a closed loop over its own query
// service session; every answer is checked against the oracle.
#include <atomic>
#include <barrier>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.h"
#include "core/stream_ageout.h"
#include "mimicbench.h"

namespace mimicbench {

using bigdawg::Rng;
using bigdawg::relational::Table;

namespace {

const char* const kDrugs[] = {"heparin", "aspirin", "statin",
                              "insulin", "vancomycin", "furosemide"};
const char* const kTests[] = {"lactate", "creatinine", "hemoglobin", "wbc"};
const char* const kDiagnoses[] = {"sepsis", "cardiac", "trauma", "respiratory",
                                  "renal"};
const char* const kNoteWords[] = {"patient", "sick",    "critical", "stable",
                                  "recovering", "monitor", "rhythm", "family",
                                  "overnight",  "fatigued"};

template <size_t N>
const char* Pick(const char* const (&words)[N], Rng& rng) {
  return words[rng.NextBelow(N)];
}

std::string Int(int64_t v) { return std::to_string(v); }

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

/// A number in [lo, hi) with three decimals, as SQL text and as the value
/// the engine parses from it.
std::pair<std::string, double> Decimal(Rng& rng, int64_t lo, int64_t hi) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(rng.NextInt(lo * 1000, hi * 1000 - 1)) / 1000.0);
  return {buf, std::strtod(buf, nullptr)};
}

std::string ExpectRows(const Table& t, size_t n) {
  return t.num_rows() == n ? "" : "rows=" + std::to_string(t.num_rows()) +
                                      " want " + std::to_string(n);
}

/// A round's operations run in a fresh random order each round, so two
/// sessions' fixed sequences do not lock into one alignment for a run.
template <class T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.NextBelow(i)]);
}

/// Runs every session body in its own thread, round after round, until
/// `seconds` have passed. Sessions meet at a barrier after each round, so
/// a run is a whole number of rounds of every session and the share of
/// each operation in the mix is the same in every run. `at_barrier` runs
/// once per round while every session waits. Returns the elapsed seconds;
/// `idle_s` receives, per session, the seconds it waited at the barrier.
double RunRounds(double seconds, const std::vector<std::function<void()>>& sessions,
                 const std::function<void()>& at_barrier, std::vector<double>* idle_s) {
  const SteadyClock::time_point t0 = SteadyClock::now();
  bool stop = false;
  auto on_round = [&]() noexcept {
    at_barrier();
    stop = MsSince(t0) >= seconds * 1e3;
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(sessions.size()), on_round);
  idle_s->assign(sessions.size(), 0.0);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < sessions.size(); ++i) {
    threads.emplace_back([&, i] {
      for (;;) {
        sessions[i]();
        const SteadyClock::time_point w0 = SteadyClock::now();
        sync.arrive_and_wait();
        (*idle_s)[i] += MsSince(w0) / 1e3;
        if (stop) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return MsSince(t0) / 1e3;
}

// ---------------------------------------------------------------------------
// Operations shared by several workloads.
// ---------------------------------------------------------------------------

void PointLookup(Env& env, Client& c, Rng& rng, int64_t lo, int64_t hi) {
  const int64_t k = rng.NextInt(lo, hi);
  c.Run("point", "RELATIONAL(SELECT * FROM patients WHERE patient_id = " + Int(k) + ")",
        [&env, k](const Table& t) -> std::string {
          Row want = env.oracle->Patient(k);
          if (Perturbed("point")) want[2] = Value(want[2].int64_unchecked() + 1);
          if (std::string e = ExpectRows(t, 1); !e.empty()) return e;
          return t.rows()[0] == want ? "" : "row differs";
        });
}

void PointLookup(Env& env, Client& c, Rng& rng) {
  PointLookup(env, c, rng, 0, env.oracle->patients() - 1);
}

/// COUNT, filtered SUM and GROUP BY over tables no workload writes to.
void Aggregate(Env& env, Client& c, Rng& rng, int kind) {
  const Oracle& o = *env.oracle;
  const int64_t bump = Perturbed("agg") ? 1 : 0;
  if (kind == 0) {
    const int64_t s = rng.NextInt(1, 4);
    c.Run("agg",
          "RELATIONAL(SELECT COUNT(*) FROM admissions WHERE severity >= " + Int(s) + ")",
          [&o, s, bump](const Table& t) -> std::string {
            if (std::string e = ExpectRows(t, 1); !e.empty()) return e;
            return t.rows()[0][0].int64_unchecked() == o.CountSeverityAtLeast(s) + bump
                       ? ""
                       : "count differs";
          });
  } else if (kind == 1) {
    const std::string test = Pick(kTests, rng);
    c.Run("agg",
          "RELATIONAL(SELECT SUM(value) FROM labs WHERE test = '" + test + "')",
          [&o, test, bump](const Table& t) -> std::string {
            const double want = o.LabSum(test) + static_cast<double>(bump);
            if (std::string e = ExpectRows(t, 1); !e.empty()) return e;
            return Near(t.rows()[0][0].double_unchecked(), want) ? "" : "sum differs";
          });
  } else {
    const int64_t s = rng.NextInt(1, 4);
    c.Run("agg",
          "RELATIONAL(SELECT diagnosis, COUNT(*) FROM admissions WHERE severity = " +
              Int(s) + " GROUP BY diagnosis)",
          [&o, s, bump](const Table& t) -> std::string {
            std::map<std::string, int64_t> want = o.DiagnosisCounts(s);
            if (bump != 0) want[kDiagnoses[0]] += bump;
            std::map<std::string, int64_t> got;
            for (const Row& r : t.rows()) got[r[0].ToString()] = r[1].int64_unchecked();
            return got == want ? "" : "groups differ";
          });
  }
}

void Tile(Env& env, Client& c, Rng& rng) {
  const Oracle& o = *env.oracle;
  const int64_t p0 = rng.NextInt(0, o.patients() - 8);
  const int64_t t0 = rng.NextInt(0, o.samples() - 8);
  c.Run("tile",
        "ARRAY(subarray(waveforms, " + Int(p0) + ", " + Int(t0) + ", " + Int(p0 + 7) +
            ", " + Int(t0 + 7) + "))",
        [&o, p0, t0](const Table& t) -> std::string {
          if (std::string e = ExpectRows(t, 64); !e.empty()) return e;
          std::set<std::pair<int64_t, int64_t>> seen;
          for (const Row& r : t.rows()) {
            const int64_t p = r[0].int64_unchecked(), s = r[1].int64_unchecked();
            if (p < p0 || p > p0 + 7 || s < t0 || s > t0 + 7) return "cell outside tile";
            double want = o.Wave(p, s);
            if (Perturbed("tile") && p == p0 && s == t0) want += 1.0;
            if (r[2].double_unchecked() != want) return "cell value differs";
            seen.insert({p, s});
          }
          return seen.size() == 64 ? "" : "duplicate cells";
        });
}

void TextSearch(Env& env, Client& c, Rng& rng) {
  const std::vector<std::string> terms = {Pick(kDrugs, rng), Pick(kNoteWords, rng)};
  c.Run("text", "TEXT(SEARCH " + terms[0] + " " + terms[1] + ")",
        [&env, terms](const Table& t) -> std::string {
          auto want = env.oracle->Search(terms);
          if (Perturbed("text")) want["note_missing"] = {"0", 1};
          if (std::string e = ExpectRows(t, want.size()); !e.empty()) return e;
          for (const Row& r : t.rows()) {
            auto it = want.find(r[0].ToString());
            if (it == want.end()) return "note without every term: " + r[0].ToString();
            if (it->second != std::make_pair(r[1].ToString(), r[2].int64_unchecked())) {
              return "owner or score differs";
            }
          }
          return "";
        });
}

/// Relational filter over CAST(waveforms, relation): the cast source is
/// converted once and then served from the cast cache.
void CastHit(Env& env, Client& c, Rng& rng) {
  const Oracle& o = *env.oracle;
  const int64_t width = std::min<int64_t>(256, o.patients());
  const int64_t lo = rng.NextInt(0, o.patients() - width);
  const double x = 0.5 * static_cast<double>(rng.NextInt(1, 3));
  char xs[16];
  std::snprintf(xs, sizeof(xs), "%.1f", x);
  c.Run("cast_hit",
        "RELATIONAL(SELECT COUNT(*) FROM CAST(waveforms, relation) WHERE patient_id >= " +
            Int(lo) + " AND patient_id < " + Int(lo + width) + " AND mv > " + xs + ")",
        [&o, lo, width, x](const Table& t) -> std::string {
          int64_t want = o.CountWaveAbove(lo, lo + width, x);
          if (Perturbed("cast_hit")) ++want;
          if (std::string e = ExpectRows(t, 1); !e.empty()) return e;
          return t.rows()[0][0].int64_unchecked() == want ? "" : "count differs";
        });
}

/// Join of patients with the CAST of an array aggregate: the cast source
/// is a subquery, converted on every execution.
void CastConvert(Env& env, Client& c, Rng& rng) {
  const Oracle& o = *env.oracle;
  const int64_t age = rng.NextInt(18, 95);
  c.Run("cast_convert",
        "RELATIONAL(SELECT p.patient_id, w.avg_mv FROM patients p JOIN "
        "CAST(ARRAY(aggregate(waveforms, avg, mv, patient_id)), relation) w "
        "ON p.patient_id = w.patient_id WHERE p.age = " + Int(age) + ")",
        [&o, age](const Table& t) -> std::string {
          std::map<int64_t, double> want;
          for (int64_t p = 0; p < o.patients(); ++p) {
            if (o.PatientAge(p) == age) want[p] = o.WaveMean(p);
          }
          if (Perturbed("cast_convert")) want[-1] = 0;
          if (std::string e = ExpectRows(t, want.size()); !e.empty()) return e;
          for (const Row& r : t.rows()) {
            auto it = want.find(r[0].int64_unchecked());
            if (it == want.end()) return "patient of another age";
            if (!Near(r[1].double_unchecked(), it->second)) return "mean differs";
          }
          return "";
        });
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Per-session random streams, distinct per phase so a traced phase does
/// not replay the untraced one.
Rng SessionRng(const Env& env, int phase, int session) {
  return Rng(env.seed * 1000003ull + static_cast<uint64_t>(phase) * 101 +
             static_cast<uint64_t>(session));
}

/// Runs the sessions' rounds and folds their tallies. Traces are kept at
/// the round barriers, outside every timed operation.
PhaseResult RunPhase(Env* env, double seconds,
                     std::vector<std::unique_ptr<Client>>& clients,
                     const std::vector<std::function<void()>>& bodies) {
  PhaseResult r;
  r.elapsed_s = RunRounds(seconds, bodies, [env] { env->KeepTraces(); }, &r.idle_s);
  for (auto& c : clients) r.tally.Merge(c->tally());
  r.work = static_cast<double>(r.tally.attempted - r.tally.failed - r.tally.wrong);
  r.work_s = r.elapsed_s;
  return r;
}

class ClinicRead : public Workload {
 public:
  explicit ClinicRead(Env* env) : env_(env) {}

  PhaseResult Run(double seconds) override {
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<Rng> rngs;
    std::vector<std::function<void()>> bodies;
    for (int s = 0; s < 2; ++s) {
      clients.push_back(std::make_unique<Client>(env_->service.get()));
      rngs.push_back(SessionRng(*env_, phase_, s));
    }
    for (int s = 0; s < 2; ++s) {
      bodies.push_back([this, c = clients[s].get(), rng = &rngs[s]] {
        // One round: 8 point lookups, 3 aggregates (one of each kind),
        // 2 tiles and 1 search, interleaved so every class sees the same
        // background.
        enum Op { kPoint, kCount, kSum, kGroupBy, kTile, kText };
        std::vector<Op> ops(8, kPoint);
        ops.insert(ops.end(), {kCount, kSum, kGroupBy, kTile, kTile, kText});
        Shuffle(ops, *rng);
        for (Op op : ops) {
          switch (op) {
            case kPoint: PointLookup(*env_, *c, *rng); break;
            case kCount: Aggregate(*env_, *c, *rng, 0); break;
            case kSum: Aggregate(*env_, *c, *rng, 1); break;
            case kGroupBy: Aggregate(*env_, *c, *rng, 2); break;
            case kTile: Tile(*env_, *c, *rng); break;
            case kText: TextSearch(*env_, *c, *rng); break;
          }
        }
      });
    }
    ++phase_;
    PhaseResult r = RunPhase(env_, seconds, clients, bodies);
    r.primary = "tile";
    r.secondary = "agg";
    return r;
  }

 private:
  Env* env_;
  int phase_ = 0;
};

class CastAnalytics : public Workload {
 public:
  explicit CastAnalytics(Env* env) : env_(env) {}

  PhaseResult Run(double seconds) override {
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<Rng> rngs;
    for (int s = 0; s < 2; ++s) {
      clients.push_back(std::make_unique<Client>(env_->service.get()));
      rngs.push_back(SessionRng(*env_, phase_, s));
    }
    std::vector<std::function<void()>> bodies = {
        [this, c = clients[0].get(), rng = &rngs[0]] {
          if (rng->NextBool(0.5)) {
            CastHit(*env_, *c, *rng);
            CastConvert(*env_, *c, *rng);
          } else {
            CastConvert(*env_, *c, *rng);
            CastHit(*env_, *c, *rng);
          }
        },
        [this, c = clients[1].get(), rng = &rngs[1]] {
          for (int i = 0; i < 16; ++i) PointLookup(*env_, *c, *rng);
        }};
    ++phase_;
    PhaseResult r = RunPhase(env_, seconds, clients, bodies);
    r.primary = "cast_hit";
    r.secondary = "cast_convert";
    return r;
  }

 private:
  Env* env_;
  int phase_ = 0;
};

/// The writer's model of labs and prescriptions, and the aggregate values
/// the reader may observe after each write.
class WardModel {
 public:
  struct Aggs {
    std::map<std::string, int64_t> lab_count;
    std::map<std::string, double> lab_sum;
    std::map<std::string, double> rx_dose;
  };

  explicit WardModel(const Oracle& o) : labs_(o.labs()), rx_(o.prescriptions()) {
    for (const auto& [id, l] : labs_) Count(l, +1);
    for (const auto& [id, r] : rx_) Count(r, +1);
    versions_.push_back(current_);
  }

  const std::map<int64_t, LabRow>& labs() const { return labs_; }
  const std::map<int64_t, RxRow>& rx() const { return rx_; }

  // Changes to the model; each keeps the running aggregates in step.
  void PutLab(int64_t id, const LabRow& row) {
    EraseLab(id);
    Count(row, +1);
    labs_[id] = row;
  }
  int64_t EraseLab(int64_t id) {
    auto it = labs_.find(id);
    if (it == labs_.end()) return 0;
    Count(it->second, -1);
    labs_.erase(it);
    return 1;
  }
  void PutRx(int64_t id, const RxRow& row) {
    EraseRx(id);
    Count(row, +1);
    rx_[id] = row;
  }
  int64_t EraseRx(int64_t id) {
    auto it = rx_.find(id);
    if (it == rx_.end()) return 0;
    Count(it->second, -1);
    rx_.erase(it);
    return 1;
  }

  /// Publishes the state after the next write, before it is submitted.
  void Publish() {
    std::lock_guard<std::mutex> lock(mu_);
    versions_.push_back(current_);
    published_.store(static_cast<int64_t>(versions_.size()) - 1);
  }
  /// The write published last has completed.
  void Commit() { committed_.store(published_.load()); }

  int64_t committed() const { return committed_.load(); }
  int64_t published() const { return published_.load(); }
  /// True when some version in [lo, hi] satisfies `match`.
  bool AnyVersion(int64_t lo, int64_t hi, const std::function<bool(const Aggs&)>& match) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t v = lo; v <= hi; ++v) {
      if (match(versions_[static_cast<size_t>(v)])) return true;
    }
    return false;
  }

 private:
  void Count(const LabRow& l, int sign) {
    current_.lab_count[l.test] += sign;
    current_.lab_sum[l.test] += sign * l.value;
  }
  void Count(const RxRow& r, int sign) { current_.rx_dose[r.drug] += sign * r.dose; }

  std::map<int64_t, LabRow> labs_;  // writer thread only
  std::map<int64_t, RxRow> rx_;
  Aggs current_;
  std::mutex mu_;
  std::vector<Aggs> versions_;
  std::atomic<int64_t> committed_{0};
  std::atomic<int64_t> published_{0};
};

class WardWrite : public Workload {
 public:
  explicit WardWrite(Env* env)
      : env_(env), model_(*env->oracle),
        first_lab_(model_.labs().rbegin()->first + 1),
        first_rx_(model_.rx().rbegin()->first + 1),
        next_lab_(first_lab_),
        next_rx_(first_rx_),
        prewrite_sums_(RowSumsOf(env->oracle->labs())) {}

  PhaseResult Run(double seconds) override {
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<Rng> rngs;
    for (int s = 0; s < 2; ++s) {
      clients.push_back(std::make_unique<Client>(env_->service.get()));
      rngs.push_back(SessionRng(*env_, phase_, s));
    }
    std::vector<std::function<void()>> bodies = {
        [this, c = clients[0].get(), rng = &rngs[0]] { WriterRound(*c, *rng); },
        [this, c = clients[1].get(), rng = &rngs[1]] {
          // 6 aggregates (two of each kind) and 12 point lookups.
          std::vector<int> ops = {0, 1, 2, 0, 1, 2};
          ops.resize(18, -1);
          Shuffle(ops, *rng);
          for (int op : ops) {
            if (op < 0) {
              PointLookup(*env_, *c, *rng);
            } else {
              ReaderAggregate(*c, *rng, op);
            }
          }
        }};
    ++phase_;
    PhaseResult r = RunPhase(env_, seconds, clients, bodies);
    r.primary = "write";
    r.secondary = "agg";
    return r;
  }

 private:
  /// Submits one DML statement after publishing the state it leads to.
  void Write(Client& c, const std::string& sql, int64_t affected) {
    model_.Publish();
    c.Run("write", "POSTGRES(" + sql + ")", [affected](const Table& t) -> std::string {
      if (std::string e = ExpectRows(t, 1); !e.empty()) return e;
      return t.rows()[0][0].int64_unchecked() == affected ? "" : "rows_affected differs";
    });
    model_.Commit();
  }

  void ReadLab(Client& c, int64_t id) {
    c.Run("readback",
          "RELATIONAL(SELECT * FROM labs WHERE lab_id = " + Int(id) + ")",
          [this, id](const Table& t) -> std::string {
            auto it = model_.labs().find(id);
            if (it == model_.labs().end()) return ExpectRows(t, 0);
            if (std::string e = ExpectRows(t, 1); !e.empty()) return e;
            const LabRow& l = it->second;
            Row want = {Value(id), Value(l.patient), Value(l.test), Value(l.value)};
            return t.rows()[0] == want ? "" : "lab row differs";
          });
  }

  void ReadRx(Client& c, int64_t id) {
    c.Run("readback",
          "RELATIONAL(SELECT * FROM prescriptions WHERE rx_id = " + Int(id) + ")",
          [this, id](const Table& t) -> std::string {
            auto it = model_.rx().find(id);
            if (it == model_.rx().end()) return ExpectRows(t, 0);
            if (std::string e = ExpectRows(t, 1); !e.empty()) return e;
            const RxRow& r = it->second;
            Row want = {Value(id), Value(r.patient), Value(r.drug), Value(r.dose)};
            return t.rows()[0] == want ? "" : "prescription row differs";
          });
  }

  /// One writer round: insert, update and delete on both tables, each
  /// read back relationally, in random order, then one cross-model read
  /// of labs.
  void WriterRound(Client& c, Rng& rng) {
    const int64_t patients = env_->oracle->patients();
    const int64_t lab = next_lab_++, rx = next_rx_++;
    std::vector<std::function<void()>> steps = {
        [&] {
          const std::string test = Pick(kTests, rng);
          const int64_t patient = rng.NextInt(0, patients - 1);
          const auto [v, vs] = Decimal(rng, 1, 12);
          model_.PutLab(lab, {patient, test, vs});
          Write(c, "INSERT INTO labs VALUES (" + Int(lab) + ", " + Int(patient) + ", '" +
                       test + "', " + v + ")", 1);
          ReadLab(c, lab);
        },
        [&] {
          const int64_t id = rng.NextInt(0, first_lab_ - 1);
          const auto [v, vs] = Decimal(rng, 1, 12);
          LabRow row = model_.labs().at(id);
          row.value = vs;
          model_.PutLab(id, row);
          Write(c, "UPDATE labs SET value = " + v + " WHERE lab_id = " + Int(id), 1);
          ReadLab(c, id);
        },
        [&] {
          const std::string drug = Pick(kDrugs, rng);
          const int64_t patient = rng.NextInt(0, patients - 1);
          const auto [d, ds] = Decimal(rng, 1, 10);
          model_.PutRx(rx, {patient, drug, ds});
          Write(c, "INSERT INTO prescriptions VALUES (" + Int(rx) + ", " + Int(patient) +
                       ", '" + drug + "', " + d + ")", 1);
          ReadRx(c, rx);
        },
        [&] {
          const int64_t id = rng.NextInt(0, first_rx_ - 1);
          const auto [d, ds] = Decimal(rng, 1, 10);
          RxRow row = model_.rx().at(id);
          row.dose = ds;
          model_.PutRx(id, row);
          Write(c, "UPDATE prescriptions SET dose = " + d + " WHERE rx_id = " + Int(id),
                1);
          ReadRx(c, id);
        },
        // Delete the previous round's inserts; the first round deletes an
        // id that never existed, so every round issues the same statements.
        [&] {
          const int64_t id = lab > first_lab_ ? lab - 1 : -1;
          const int64_t gone = model_.EraseLab(id);
          Write(c, "DELETE FROM labs WHERE lab_id = " + Int(id), gone);
          ReadLab(c, id);
        },
        [&] {
          const int64_t id = rx > first_rx_ ? rx - 1 : -1;
          const int64_t gone = model_.EraseRx(id);
          Write(c, "DELETE FROM prescriptions WHERE rx_id = " + Int(id), gone);
          ReadRx(c, id);
        }};
    Shuffle(steps, rng);
    for (const auto& step : steps) step();

    // The writer reads its own writes back through the D4M island. The
    // cast cache serves the associative view converted at warm-up, before
    // the first write (relational DML never bumps the catalog version).
    // An answer equal to that pre-write labs is counted as failed,
    // attributed to the fault; any other answer that is not the model's
    // is wrong.
    c.Run(
        "d4m", "D4M(ROWSUM labs)",
        [this](const Table& t) {
          // A stale answer's row count differs; only a matching count
          // pays for the row-by-row comparison.
          const size_t want = model_.labs().size() + (Perturbed("d4m") ? 1 : 0);
          if (t.num_rows() != want) return ExpectRows(t, want);
          return CheckRowSums(RowSumsOf(model_.labs()), Perturbed("d4m"), t);
        },
        [this](const Table& t) {
          return CheckRowSums(prewrite_sums_, Perturbed("d4m_stale"), t);
        });
  }

  /// Expected D4M(ROWSUM labs) of one state of labs: the row count and, by
  /// lab id, the row's patient_id + value (NaN where no lab has the id).
  struct RowSums {
    size_t rows = 0;
    std::vector<double> by_id;
  };

  static RowSums RowSumsOf(const std::map<int64_t, LabRow>& labs) {
    RowSums out;
    out.rows = labs.size();
    out.by_id.assign(labs.empty() ? 0 : static_cast<size_t>(labs.rbegin()->first) + 1,
                     std::nan(""));
    for (const auto& [id, l] : labs) {
      out.by_id[static_cast<size_t>(id)] = static_cast<double>(l.patient) + l.value;
    }
    return out;
  }

  /// A row per lab, each with its sum; `perturb` expects one extra row.
  static std::string CheckRowSums(const RowSums& want, bool perturb, const Table& t) {
    if (std::string e = ExpectRows(t, want.rows + (perturb ? 1 : 0)); !e.empty()) return e;
    std::vector<bool> seen(want.by_id.size());
    for (const Row& r : t.rows()) {
      const std::string& key = r[0].string_unchecked();
      size_t id = 0;
      const auto [end, ec] = std::from_chars(key.data(), key.data() + key.size(), id);
      if (ec != std::errc() || end != key.data() + key.size() || id >= seen.size() ||
          seen[id] || std::isnan(want.by_id[id])) {
        return "lab " + key + " unexpected";
      }
      seen[id] = true;
      if (!Near(r[1].double_unchecked(), want.by_id[id])) return "row sum of lab " + key;
    }
    return "";
  }

  /// Aggregates over the tables the writer changes. A concurrent read may
  /// see any state between the last write completed before it started and
  /// the last write submitted before it finished.
  void ReaderAggregate(Client& c, Rng& rng, int kind) {
    const int64_t lo = model_.committed();
    const double bump = Perturbed("agg") ? 1 : 0;
    std::string sql;
    std::function<bool(const WardModel::Aggs&, const Table&)> match;
    if (kind == 0) {
      const std::string test = Pick(kTests, rng);
      sql = "SELECT COUNT(*) FROM labs WHERE test = '" + test + "'";
      match = [test, bump](const WardModel::Aggs& a, const Table& t) {
        auto it = a.lab_count.find(test);
        const double want = (it == a.lab_count.end() ? 0 : it->second) + bump;
        return static_cast<double>(t.rows()[0][0].int64_unchecked()) == want;
      };
    } else if (kind == 1) {
      const std::string test = Pick(kTests, rng);
      sql = "SELECT SUM(value) FROM labs WHERE test = '" + test + "'";
      match = [test, bump](const WardModel::Aggs& a, const Table& t) {
        auto it = a.lab_sum.find(test);
        return Near(t.rows()[0][0].double_unchecked(),
                    (it == a.lab_sum.end() ? 0 : it->second) + bump);
      };
    } else {
      const std::string drug = Pick(kDrugs, rng);
      sql = "SELECT SUM(dose) FROM prescriptions WHERE drug = '" + drug + "'";
      match = [drug, bump](const WardModel::Aggs& a, const Table& t) {
        auto it = a.rx_dose.find(drug);
        return Near(t.rows()[0][0].double_unchecked(),
                    (it == a.rx_dose.end() ? 0 : it->second) + bump);
      };
    }
    c.Run("agg", "RELATIONAL(" + sql + ")",
          [this, lo, match](const Table& t) -> std::string {
            const int64_t hi = model_.published();
            if (std::string e = ExpectRows(t, 1); !e.empty()) return e;
            auto seen = [&](const WardModel::Aggs& a) { return match(a, t); };
            return model_.AnyVersion(lo, hi, seen)
                       ? ""
                       : "matches no state between the writes around it";
          });
  }

  Env* env_;
  WardModel model_;
  const int64_t first_lab_;  // ids from here on are the writer's inserts
  const int64_t first_rx_;
  int64_t next_lab_;
  int64_t next_rx_;
  /// D4M(ROWSUM labs) before any write: what warm-up put in the cast cache.
  const RowSums prewrite_sums_;
  int phase_ = 0;
};

class IcuStream : public Workload {
 public:
  explicit IcuStream(Env* env) : env_(env) {}

  PhaseResult Run(double seconds) override {
    Client dashboard(env_->service.get());
    Rng rng = SessionRng(*env_, phase_++, 1);
    Tally producer;
    double events = 0, events_s = 0;
    std::atomic<bool> done{false};
    const SteadyClock::time_point t0 = SteadyClock::now();

    std::thread dash([&] {
      while (!done.load()) {
        const SteadyClock::time_point r0 = SteadyClock::now();
        if (Refresh(dashboard, rng)) {
          dashboard.tally().latency_ms["refresh"].push_back(MsSince(r0));
        }
        env_->KeepTraces();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    // Producer rounds: a fixed count of events, as fast as backpressure
    // allows, then drain and flush the age-out into the array engine.
    while (MsSince(t0) < seconds * 1e3) {
      const int64_t n = env_->scale.icu_round_events;
      const SteadyClock::time_point r0 = SteadyClock::now();
      env_->IngestEvents(n, nullptr);
      env_->dawg->sstore().WaitForDrain();
      if (bigdawg::Status st = env_->dawg->stream_ageout()->FlushAll(); !st.ok()) {
        producer.Wrong("flush: " + st.ToString());
      }
      events_s += MsSince(r0) / 1e3;
      events += static_cast<double>(n);
      producer.attempted += n;
      env_->CollectAlerts();
      if (std::string e = VerifyStream(); !e.empty()) producer.Wrong("stream: " + e);
    }
    done.store(true);
    dash.join();
    if (std::string e = VerifyAlerts(); !e.empty()) producer.Wrong("alerts: " + e);

    PhaseResult r;
    r.tally = producer;
    r.tally.Merge(dashboard.tally());
    r.elapsed_s = MsSince(t0) / 1e3;
    r.work = events;
    r.work_s = events_s;
    r.primary = "archive";
    r.secondary = "refresh";
    return r;
  }

 private:
  /// Archive rows stored so far: every aged-out row, bounded by the cap.
  int64_t ArchiveRows() const {
    const int64_t flushed = env_->dawg->stream_ageout()->GetStats().flushed_rows;
    return std::min(flushed, env_->scale.icu_history_cap);
  }

  /// One dashboard refresh: the live window's aggregates, the archive's
  /// size, and four monitored patients' records. True when every panel
  /// answered correctly; the refresh is then one sample of its own class.
  bool Refresh(Client& c, Rng& rng) {
    const Env& env = *env_;
    const int64_t wrong = c.tally().wrong;
    c.Run("live", std::string("STREAM(AGGREGATE ") + kIcuWindow + ")",
          [&env](const Table& t) -> std::string {
            const int64_t want = kIcuWindowSize + (Perturbed("live") ? 1 : 0);
            for (const Row& r : t.rows()) {
              const int64_t n = r[1].int64_unchecked();
              const double sum = r[2].double_unchecked(), lo = r[3].double_unchecked(),
                           hi = r[4].double_unchecked(), avg = r[5].double_unchecked();
              if (n != want) return "window count " + std::to_string(n);
              const double drift = std::fabs(sum - avg * static_cast<double>(n));
              if (lo > avg + 1e-9 || avg > hi + 1e-9 ||
                  drift > 1e-6 * std::max(1.0, std::fabs(sum))) {
                return "inconsistent aggregate";
              }
              const std::string col = r[0].ToString();
              const double min_ok = col == "mv" ? env.icu_min_value
                                                : static_cast<double>(env.icu_first_bed);
              const int64_t last_bed = env.icu_first_bed + env.scale.icu_beds - 1;
              const double max_ok =
                  col == "mv" ? env.icu_max_value : static_cast<double>(last_bed);
              if (lo < min_ok || hi > max_ok) return "value outside the feed: " + col;
            }
            return t.num_rows() == 2 ? "" : "columns=" + std::to_string(t.num_rows());
          });
    const int64_t lo = ArchiveRows();
    c.Run("archive", std::string("ARRAY(aggregate(") + kIcuHistory + ", count, mv))",
          [this, lo](const Table& t) -> std::string {
            const int64_t hi = ArchiveRows();
            if (std::string e = ExpectRows(t, 1); !e.empty()) return e;
            const double n = t.rows()[0][0].double_unchecked();
            const double want_lo =
                static_cast<double>(lo) + (Perturbed("archive") ? 1e9 : 0);
            return n >= want_lo && n <= static_cast<double>(hi)
                       ? ""
                       : "archive size out of range";
          });
    for (int i = 0; i < 4; ++i) {
      PointLookup(*env_, c, rng, env.icu_first_bed,
                  env.icu_first_bed + env.scale.icu_beds - 1);
    }
    return c.tally().wrong == wrong;
  }

  /// No event lost, duplicated or reordered: the stream holds the last
  /// `retention` events, every older event was aged out and flushed
  /// exactly once, and the archive holds the newest flushed rows in
  /// age-out order.
  std::string VerifyStream() {
    const int64_t ingested = env_->icu_next_event;
    const int64_t aged = ingested - kIcuRetention;
    const bigdawg::core::StreamAgeOutStats st = env_->dawg->stream_ageout()->GetStats();
    if (st.pending_rows != 0) return "rows pending after flush";
    if (st.flushed_rows != aged) {
      return "flushed " + std::to_string(st.flushed_rows) + " of " + std::to_string(aged);
    }
    auto live = env_->dawg->sstore().StreamContents(kIcuStream);
    if (!live.ok() || static_cast<int64_t>(live->size()) != kIcuRetention) {
      return "live rows";
    }
    for (int64_t i = 0; i < kIcuRetention; ++i) {
      auto [patient, mv] = env_->IcuEvent(aged + i);
      if (Perturbed("stream") && i == 0) mv += 1;
      const Row& r = (*live)[static_cast<size_t>(i)];
      if (r[0].int64_unchecked() != patient || r[1].double_unchecked() != mv) {
        return "live row " + std::to_string(aged + i) + " differs";
      }
    }
    auto loc = env_->dawg->catalog().Lookup(kIcuHistory);
    if (!loc.ok()) return "no archive";
    auto archive = env_->dawg->scidb().GetArray(loc->native_name);
    if (!archive.ok()) return "archive unreadable";
    const int64_t rows = std::min(aged, env_->scale.icu_history_cap);
    int64_t cells = 0;
    std::string problem;
    archive->Scan([&](const bigdawg::array::Coordinates& at,
                      const std::vector<double>& v) {
      ++cells;
      const int64_t seq = at[0];
      const auto [patient, mv] = env_->IcuEvent(seq);
      if (seq < aged - rows || seq >= aged || at[1] != patient || v[0] != mv) {
        problem = "archive row " + std::to_string(seq) + " differs";
        return false;
      }
      return true;
    });
    if (!problem.empty()) return problem;
    if (cells == rows) return "";
    return "archive holds " + std::to_string(cells) + " rows, want " +
           std::to_string(rows);
  }

  /// Threshold alerts name exactly the patients driven into tachycardia.
  std::string VerifyAlerts() {
    std::set<int64_t> want, got;
    for (int64_t b = 0; b < env_->scale.icu_beds; ++b) {
      if (env_->icu_flipped[static_cast<size_t>(b)]) want.insert(env_->icu_first_bed + b);
    }
    if (Perturbed("alerts")) want.insert(env_->icu_first_bed + 1);
    for (const auto& [patient, n] : env_->icu_alerted) got.insert(patient);
    if (got == want) return "";
    return "alerted " + std::to_string(got.size()) + " patients, want " +
           std::to_string(want.size());
  }

  Env* env_;
  int phase_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"clinic_read", "cast_analytics",
                                                 "ward_write", "icu_stream"};
  return names;
}

bool KnownWorkload(const std::string& name) {
  for (const std::string& n : WorkloadNames()) {
    if (n == name) return true;
  }
  return false;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Env* env) {
  if (name == "clinic_read") return std::make_unique<ClinicRead>(env);
  if (name == "cast_analytics") return std::make_unique<CastAnalytics>(env);
  if (name == "ward_write") return std::make_unique<WardWrite>(env);
  if (name == "icu_stream") return std::make_unique<IcuStream>(env);
  return nullptr;
}

}  // namespace mimicbench
