#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "probe.h"

namespace perfbench {

namespace {

/// Innermost open span of the calling thread.
thread_local const Tracer::Scope* tl_current = nullptr;
thread_local long tl_request = 0;

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, int parent,
                     long request)
    : tracer_(tracer) {
  if (!tracer_->enabled()) return;
  const double begin = Now();
  span_.id = tracer_->next_id_.fetch_add(1);
  span_.name = name;
  if (parent == kInherit) {
    span_.parent = tl_current != nullptr ? tl_current->id() : -1;
  } else {
    span_.parent = parent;
  }
  span_.request = request >= 0 ? request : tl_request;
  outer_ = tl_current;
  tl_current = this;
  tl_request = span_.request;
  span_.start = Now();
  open_cost_ = span_.start - begin;
}

Tracer::Scope::~Scope() {
  if (!tracer_->enabled()) return;
  const double end = Now();
  span_.end = end;
  tl_current = outer_;
  tl_request = outer_ != nullptr ? outer_->span_.request : 0;
  tracer_->Record(span_, open_cost_ + (Now() - end));
}

void Tracer::Add(const char* name, long request, double start, double end) {
  if (!enabled_) return;
  const double begin = Now();
  Span span;
  span.id = next_id_.fetch_add(1);
  span.name = name;
  span.request = request;
  span.start = start;
  span.end = end;
  Record(span, Now() - begin);
}

void Tracer::Record(const Span& span, double bookkeeping) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
  bookkeeping_ += bookkeeping;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

double Tracer::bookkeeping_seconds() const {
  std::lock_guard lock(mu_);
  return bookkeeping_;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\":%d,\"parent\":%d,\"request\":%ld,\"name\":\"%s\","
                 "\"start\":%.9f,\"end\":%.9f}\n",
                 s.id, s.parent, s.request, s.name, s.start, s.end);
  }
  return std::fclose(f) == 0;
}

double TotalSeconds(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) total += s.end - s.start;
  }
  return total;
}

double SelfSeconds(const std::vector<Span>& spans, const char* name) {
  std::unordered_map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  double total = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != name) continue;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Children may overlap (work fanned out to several threads): take
      // the union of their intervals, clipped to the parent.
      std::vector<std::pair<double, double>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      double cursor = s.start;
      for (const auto& [b, e] : kids) {
        const double lo = std::max(b, cursor);
        const double hi = std::min(e, s.end);
        if (hi > lo) covered += hi - lo;
        cursor = std::max(cursor, std::min(e, s.end));
      }
    }
    total += (s.end - s.start) - covered;
  }
  return total;
}

double TracingEstimator::EstimateSeconds(
    int tenant, const vdba::simvm::ResourceVector& r) {
  Tracer::Scope span(tracer_, "estimator");
  probes_.fetch_add(1);
  return inner_->EstimateSeconds(tenant, r);
}

std::vector<double> TracingEstimator::EstimateBatch(
    int tenant, std::span<const vdba::simvm::ResourceVector> candidates) {
  Tracer::Scope span(tracer_, "estimator");
  probes_.fetch_add(static_cast<long>(candidates.size()));
  fanouts_.fetch_add(1);
  return inner_->EstimateBatch(tenant, candidates);
}

std::vector<double> TracingEstimator::EstimateMany(
    std::span<const vdba::advisor::TenantAllocation> batch) {
  Tracer::Scope span(tracer_, "estimator");
  probes_.fetch_add(static_cast<long>(batch.size()));
  fanouts_.fetch_add(1);
  return inner_->EstimateMany(batch);
}

}  // namespace perfbench
