#include "report.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include <cstdio>

#include "obs/snapshot_io.hpp"

namespace perfbench {

void Results::EndToEnd(const std::string& name, double value, std::string unit,
                       std::uint64_t samples) {
  e2e_[name] = Metric{value, std::move(unit), samples};
}

void Results::Layer(const std::string& name, double value, std::string unit,
                    std::uint64_t samples) {
  layers_[name] = Metric{value, std::move(unit), samples};
}

void Results::Gate(const std::string& name, double value, std::string unit,
                   std::uint64_t samples) {
  gated_[name] = Metric{value, std::move(unit), samples};
}

void Results::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
}

void Results::CheckMany(std::uint64_t attempted, std::uint64_t failed,
                        const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 20) {
    failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(attempted) + ")");
  }
}

void Results::Invalidate(const std::string& why) { invalid_.push_back(why); }

void Results::Note(const std::string& key, const std::string& value) {
  notes_[key] = value;
}

bool SaveSnapshot(const std::string& dir, const std::string& component,
                  const communix::obs::MetricsRegistry& registry) {
  const std::string path = dir + "/" + component + ".metrics.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = communix::obs::SnapshotToJson(registry.Snapshot());
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void SaveSpans(const SpanLog& spans, const std::string& dir,
               Results& results) {
  results.Check(spans.WriteJsonLines(dir + "/spans.jsonl"),
                "writing spans.jsonl");
  for (const SpanSummary& s : spans.Summarize()) {
    if (s.count == 0) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "count=%llu total_ms=%.3f self_ms=%.3f",
                  static_cast<unsigned long long>(s.count), s.total_ns / 1e6,
                  s.self_ns / 1e6);
    results.Note("span " + s.name, buf);
  }
  results.Note("spans", "stored=" + std::to_string(spans.stored()) +
                            " dropped=" + std::to_string(spans.dropped()));
}

void PinThisThread(unsigned cpu) { PinThisThreadToCpus(cpu, 1); }

unsigned GeneratorCpus() {
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

void PinThisThreadToCpus(unsigned first, unsigned count) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  if (count == 0) count = cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned i = 0; i < count; ++i) CPU_SET((first + i) % cpus, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
