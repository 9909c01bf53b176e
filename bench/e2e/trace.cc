#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_e2e.h"

namespace pxq::e2e {
namespace {

const auto kStart = std::chrono::steady_clock::now();

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out->append(buf);
}

void AppendMap(std::string* out, const std::map<std::string, double>& m) {
  out->push_back('{');
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out->push_back(',');
    first = false;
    AppendJsonString(out, k);
    out->push_back(':');
    AppendNumber(out, v);
  }
  out->push_back('}');
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kStart)
      .count();
}

uint64_t Fnv(std::string_view s, uint64_t h) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------- Tracer

Tracer::Tracer(bool enabled, int thread_index)
    : enabled_(enabled), id_base_(int64_t{thread_index} << 40) {}

void Tracer::BeginOp() {
  ++op_;
  sampled_ = enabled_ && op_ % stride_ == 0;
}

int64_t Tracer::Open(std::string_view name, int64_t parent,
                     int64_t start_ns) {
  return Add(name, parent, start_ns, start_ns);
}

void Tracer::Close(int64_t id, int64_t end_ns) {
  if (id == 0) return;
  // Spans of the current operation sit at the buffer's tail.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ns = end_ns;
      return;
    }
  }
}

int64_t Tracer::Add(std::string_view name, int64_t parent, int64_t start_ns,
                    int64_t end_ns) {
  if (!sampled_) return 0;
  auto it = names_.find(name);
  if (it == names_.end()) it = names_.emplace(name).first;
  Span s;
  s.id = id_base_ + next_id_++;
  s.op = id_base_ + op_;
  s.parent = parent;
  s.name = *it;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
  return s.id;
}

void Tracer::EndOp() {
  sampled_ = false;
  if (spans_.size() <= kMaxSpans) return;
  stride_ *= 2;
  const int64_t keep = stride_;
  const int64_t base = id_base_;
  std::erase_if(spans_,
                [&](const Span& s) { return (s.op - base) % keep != 0; });
}

bool WriteTrace(const std::string& path, const std::string& workload,
                const std::vector<const Tracer*>& tracers) {
  std::string out = "{\"workload\":";
  AppendJsonString(&out, workload);
  out += ",\"fields\":[\"id\",\"op\",\"parent\",\"name\",\"start_ns\","
         "\"end_ns\"],\"spans\":[";
  bool first = true;
  char buf[96];
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      if (!first) out.push_back(',');
      first = false;
      std::snprintf(buf, sizeof buf, "[%lld,%lld,%lld,",
                    static_cast<long long>(s.id),
                    static_cast<long long>(s.op),
                    static_cast<long long>(s.parent));
      out += buf;
      AppendJsonString(&out, s.name);
      std::snprintf(buf, sizeof buf, ",%lld,%lld]",
                    static_cast<long long>(s.start_ns),
                    static_cast<long long>(s.end_ns));
      out += buf;
    }
  }
  out += "]}\n";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

// ---------------------------------------------------------------- Report

void Report::Fail(std::string msg) {
  std::fprintf(stderr, "bench_e2e: %s: gate failed: %s\n", workload.c_str(),
               msg.c_str());
  errors.push_back(std::move(msg));
}

std::string Report::ToJson() const {
  std::string out = "{\"workload\":";
  AppendJsonString(&out, workload);
  out += ",\"correct\":";
  out += ok() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendJsonString(&out, errors[i]);
  }
  out += "],\"e2e\":";
  AppendMap(&out, e2e);
  out += ",\"layer\":";
  AppendMap(&out, layer);
  out += ",\"extra\":";
  AppendMap(&out, extra);
  out += "}";
  return out;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace pxq::e2e
