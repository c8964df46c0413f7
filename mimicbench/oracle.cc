// Expected answers from the generated inputs, and the per-session
// bookkeeping every workload shares.
#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <cmath>

#include "mimicbench.h"

namespace mimicbench {

std::string g_perturb;

double MsSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

Scale Scale::Tiny() {
  Scale s;
  s.patients = 400;
  s.waveform_hz = 16;
  s.icu_beds = 16;
  s.icu_round_events = 3000;
  s.icu_history_cap = 2048;
  s.icu_warmup_events = 1024;
  s.stream_probe_events = 2000;
  return s;
}

namespace {

std::vector<std::string> Tokens(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

}  // namespace

Oracle::Oracle(const bigdawg::mimic::MimicData& data, int64_t samples)
    : samples_(samples) {
  for (const Row& row : data.patients.rows()) patient_rows_.push_back(row);
  for (const Row& row : data.admissions.rows()) {
    admissions_.emplace_back(row[2].string_unchecked(), row[3].int64_unchecked());
  }
  for (const Row& row : data.labs.rows()) {
    labs_[row[0].int64_unchecked()] = {row[1].int64_unchecked(),
                                       row[2].string_unchecked(),
                                       row[3].double_unchecked()};
    lab_sums_[row[2].string_unchecked()] += row[3].double_unchecked();
  }
  for (const Row& row : data.prescriptions.rows()) {
    rx_[row[0].int64_unchecked()] = {row[1].int64_unchecked(),
                                     row[2].string_unchecked(),
                                     row[3].double_unchecked()};
  }
  wave_.resize(static_cast<size_t>(patients() * samples_));
  for (int64_t p = 0; p < patients(); ++p) {
    for (int64_t t = 0; t < samples_; ++t) {
      wave_[static_cast<size_t>(p * samples_ + t)] = (*data.waveforms.Get({p, t}))[0];
    }
  }
  for (const bigdawg::mimic::Note& note : data.notes) {
    std::map<std::string, int64_t> tf;
    for (const std::string& term : Tokens(note.text)) ++tf[term];
    for (const auto& [term, n] : tf) postings_[term].push_back({note_ids_.size(), n});
    note_ids_.push_back(note.note_id);
    note_owners_.push_back(note.patient_id);
  }
}

int64_t Oracle::PatientAge(int64_t id) const {
  return Patient(id)[2].int64_unchecked();
}

int64_t Oracle::CountSeverityAtLeast(int64_t s) const {
  int64_t n = 0;
  for (const auto& a : admissions_) n += a.second >= s ? 1 : 0;
  return n;
}

std::map<std::string, int64_t> Oracle::DiagnosisCounts(int64_t s) const {
  std::map<std::string, int64_t> out;
  for (const auto& a : admissions_) {
    if (a.second == s) ++out[a.first];
  }
  return out;
}

double Oracle::LabSum(const std::string& test) const {
  auto it = lab_sums_.find(test);
  return it == lab_sums_.end() ? 0 : it->second;
}

int64_t Oracle::CountWaveAbove(int64_t lo, int64_t hi, double x) const {
  int64_t n = 0;
  for (int64_t p = lo; p < hi; ++p) {
    for (int64_t t = 0; t < samples_; ++t) n += Wave(p, t) > x ? 1 : 0;
  }
  return n;
}

double Oracle::WaveMean(int64_t patient) const {
  double sum = 0;
  for (int64_t t = 0; t < samples_; ++t) sum += Wave(patient, t);
  return sum / static_cast<double>(samples_);
}

std::map<std::string, std::pair<std::string, int64_t>> Oracle::Search(
    const std::vector<std::string>& terms) const {
  // Intersect the terms' postings, summing term frequencies.
  std::map<size_t, int64_t> hits;
  for (size_t i = 0; i < terms.size(); ++i) {
    auto it = postings_.find(terms[i]);
    if (it == postings_.end()) return {};
    std::map<size_t, int64_t> next;
    for (const Posting& p : it->second) {
      if (i == 0) {
        next[p.note] = p.tf;
      } else if (auto h = hits.find(p.note); h != hits.end()) {
        next[p.note] = h->second + p.tf;
      }
    }
    hits = std::move(next);
  }
  std::map<std::string, std::pair<std::string, int64_t>> out;
  for (const auto& [note, score] : hits) {
    out[note_ids_[note]] = {note_owners_[note], score};
  }
  return out;
}

// ---------------------------------------------------------------------------

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  for (const auto& [cls, v] : other.latency_ms) {
    auto& dst = latency_ms[cls];
    dst.insert(dst.end(), v.begin(), v.end());
  }
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

void Tally::Wrong(const std::string& what) {
  ++wrong;
  if (errors.size() < 8) errors.push_back(what);
}

void SpanStats::Fold(const bigdawg::obs::TraceSpan& root) {
  std::vector<const bigdawg::obs::TraceSpan*> stack = {&root};
  double root_lock_ms = 0;
  bool has_cast = false;
  while (!stack.empty()) {
    const bigdawg::obs::TraceSpan* s = stack.back();
    stack.pop_back();
    double children = 0;
    for (const auto& c : s->children) {
      children += c.duration_ms;
      stack.push_back(&c);
    }
    const double self = std::max(0.0, s->duration_ms - children);
    if (s->name == "locks") {
      lock_ms.push_back(s->duration_ms);
      root_lock_ms += s->duration_ms;
    } else if (s->name == "scope") {
      scope_self_ms.push_back(self);
    } else if (s->name == "cast") {
      has_cast = true;
      cast_self_ms.push_back(self);
      if (const std::string* bytes = s->FindTag("bytes")) {
        cast_bytes.push_back(std::strtod(bytes->c_str(), nullptr));
      }
    }
  }
  const std::string* island = root.FindTag("island");
  if (island != nullptr && *island == "RELATIONAL" && !has_cast) {
    ++reads;
    read_lock_waits += root_lock_ms > kLockWaitMs ? 1 : 0;
  }
}

double HeapInUseMb() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
}

Client::Client(bigdawg::exec::QueryService* service)
    : service_(service), session_(service->OpenSession()) {}

Client::~Client() { (void)service_->CloseSession(session_); }

std::optional<bigdawg::relational::Table> Client::Run(const char* cls,
                                                      const std::string& query,
                                                      const Check& check,
                                                      const Check& attributed) {
  bigdawg::exec::SubmitOptions opts;
  opts.session = session_;
  const SteadyClock::time_point t0 = SteadyClock::now();
  bigdawg::Result<bigdawg::relational::Table> result =
      service_->ExecuteSync(query, opts);
  const double ms = MsSince(t0);
  ++tally_.attempted;
  if (!result.ok()) {
    tally_.Wrong(std::string(cls) + ": " + query + " -> " +
                 result.status().ToString());
    return std::nullopt;
  }
  std::string problem = check(*result);
  if (!problem.empty()) {
    if (attributed != nullptr && attributed(*result).empty()) {
      ++tally_.failed;
    } else {
      tally_.Wrong(std::string(cls) + ": " + query + " -> " + problem);
    }
    return std::nullopt;
  }
  tally_.latency_ms[cls].push_back(ms);
  return std::move(*result);
}

}  // namespace mimicbench
