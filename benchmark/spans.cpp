#include "spans.hpp"

#include <cstdio>

namespace dsbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  const std::uint64_t parent =
      tracer_->open_.empty() ? 0 : tracer_->open_.back();
  tracer_->log_.push_back(
      {name, parent, kNoJob, tracer_->since_epoch(Clock::now()), 0});
  index_ = tracer_->log_.size();
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Record& r = tracer_->log_[index_ - 1];
  r.end_ns = tracer_->since_epoch(Clock::now());
  tracer_->open_.pop_back();
  tracer_->totals_s_[r.name] +=
      static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
}

void Tracer::job_span(const char* name, std::uint64_t job,
                      Clock::time_point start, Clock::time_point end) {
  if (job % kClockSample != 0) return;
  const auto t0 = Clock::now();
  clock_sum_ += Clock::now() - t0;
  ++clock_samples_;
  if (job % kJobSample != 0) return;
  const std::uint64_t parent = open_.empty() ? 0 : open_.back();
  log_.push_back({name, parent, job, since_epoch(start), since_epoch(end)});
}

double Tracer::clock_read_ns() const {
  if (clock_samples_ == 0) return 0.0;
  return std::chrono::duration<double, std::nano>(clock_sum_).count() /
         static_cast<double>(clock_samples_);
}

double Tracer::total_s(std::string_view name) const {
  const auto it = totals_s_.find(name);
  return it == totals_s_.end() ? 0.0 : it->second;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Record& r = log_[i];
    std::fprintf(f, "{\"name\": \"%s\", \"id\": %zu, \"parent\": %llu, ",
                 r.name, i + 1, static_cast<unsigned long long>(r.parent));
    if (r.job != kNoJob) {
      std::fprintf(f, "\"job\": %llu, ",
                   static_cast<unsigned long long>(r.job));
    }
    std::fprintf(f, "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace dsbench
