// Host-time spans the benchmark records around its own calls into each layer of the
// simulator (System/Controller set-up is `core`, FS/app construction and ingest is
// `services`, event-loop runs are `sim`, destruction is `teardown`). They are wall-clock
// (std::chrono::steady_clock) and kept in memory; write_chrome() dumps them at exit.

#ifndef PERFBENCH_HOST_SPANS_H_
#define PERFBENCH_HOST_SPANS_H_

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class HostSpans {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double start_s = 0;
    double end_s = 0;
  };

  // Times one call into a layer for the lifetime of the scope.
  class Scope {
   public:
    Scope(HostSpans& owner, std::string layer, std::string name)
        : owner_(owner), layer_(std::move(layer)), name_(std::move(name)), start_(owner.now()) {}
    ~Scope() { owner_.add(std::move(layer_), std::move(name_), start_, owner_.now()); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostSpans& owner_;
    std::string layer_;
    std::string name_;
    double start_;
  };

  // Seconds since this recorder was created.
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  }

  void add(std::string layer, std::string name, double start_s, double end_s) {
    spans_.push_back(Span{std::move(layer), std::move(name), start_s, end_s});
  }

  // Total seconds recorded under `layer`.
  double total(const std::string& layer) const {
    double s = 0;
    for (const Span& sp : spans_) {
      if (sp.layer == layer) {
        s += sp.end_s - sp.start_s;
      }
    }
    return s;
  }

  // Chrome trace_event JSON: one thread row per layer, ts/dur in microseconds.
  bool write_chrome(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::map<std::string, int> tid;
    for (const Span& sp : spans_) {
      tid.emplace(sp.layer, static_cast<int>(tid.size()) + 1);
    }
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (const auto& [layer, id] : tid) {
      std::fprintf(f, "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                      "\"args\":{\"name\":\"%s\"}}",
                   first ? "" : ",", id, layer.c_str());
      first = false;
    }
    for (const Span& sp : spans_) {
      std::fprintf(f, ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":1,\"tid\":%d}",
                   sp.name.c_str(), sp.layer.c_str(), sp.start_s * 1e6,
                   (sp.end_s - sp.start_s) * 1e6, tid[sp.layer]);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPANS_H_
