// A miniature of LevelDB's db_bench running against the real storage
// engine (wall-clock, real files), with optional compaction offload to
// the simulated FPGA card.
//
//   ./examples/db_bench [--benchmarks=fillseq,fillrandom,readrandom,...]
//                       [--num=100000] [--value_size=128] [--key_size=16]
//                       [--db=/tmp/fcae_bench] [--use_fcae=0|1|2]
//                       [--write_buffer_size=4194304] [--mem_env=1]
//                       [--compaction_threads=2] [--subcompactions=1]
//                       [--num_offload_cards=1]
//                       [--metrics_out=path] [--metrics_prom_out=path]
//                       [--trace_out=path]
//
// use_fcae: 0 = CPU compaction, 1 = offload (strict Fig. 6 policy),
//           2 = offload with tournament scheduling.
//
// num_offload_cards: with use_fcae > 0, drive M simulated cards behind
// a DeviceSet (least-queued placement); M > 1 also raises the DB's
// sub-compaction shard target so the cards see concurrent work.
//
// metrics_out / metrics_prom_out / trace_out: after the benchmarks
// finish, write the DB's fcae.metrics JSON (counters/gauges/histograms),
// the Prometheus text rendering of the same registry, and the fcae.trace
// export (chrome://tracing, load via about:tracing or ui.perfetto.dev)
// to the given paths on the real filesystem.
//
// Benchmarks: fillseq, fillrandom, overwrite, deleterandom, readrandom,
//             readmissing, readseq, compact, stats.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "host/device_set.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "obs/metrics.h"
#include "table/iterator.h"
#include "util/histogram.h"
#include "util/mem_env.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace {

struct Flags {
  std::string benchmarks = "fillseq,readseq,fillrandom,readrandom,stats";
  int num = 100000;
  int value_size = 128;
  int key_size = 16;
  std::string db = "/tmp/fcae_db_bench";
  int use_fcae = 0;
  int write_buffer_size = 4 * 1024 * 1024;
  int mem_env = 1;
  int compaction_threads = 2;
  int subcompactions = 1;
  int num_offload_cards = 1;
  std::string metrics_out;
  std::string metrics_prom_out;
  std::string trace_out;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto take = [&](const char* name, std::string* out) {
      std::string prefix = std::string("--") + name + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *out = arg.substr(prefix.size());
        return true;
      }
      return false;
    };
    std::string v;
    if (take("benchmarks", &flags.benchmarks)) {
    } else if (take("num", &v)) {
      flags.num = std::atoi(v.c_str());
    } else if (take("value_size", &v)) {
      flags.value_size = std::atoi(v.c_str());
    } else if (take("key_size", &v)) {
      flags.key_size = std::atoi(v.c_str());
    } else if (take("db", &flags.db)) {
    } else if (take("use_fcae", &v)) {
      flags.use_fcae = std::atoi(v.c_str());
    } else if (take("write_buffer_size", &v)) {
      flags.write_buffer_size = std::atoi(v.c_str());
    } else if (take("mem_env", &v)) {
      flags.mem_env = std::atoi(v.c_str());
    } else if (take("compaction_threads", &v)) {
      flags.compaction_threads = std::atoi(v.c_str());
    } else if (take("subcompactions", &v)) {
      flags.subcompactions = std::atoi(v.c_str());
    } else if (take("num_offload_cards", &v)) {
      flags.num_offload_cards = std::atoi(v.c_str());
    } else if (take("metrics_out", &flags.metrics_out)) {
    } else if (take("metrics_prom_out", &flags.metrics_prom_out)) {
    } else if (take("trace_out", &flags.trace_out)) {
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(1);
    }
  }
  return flags;
}

class Benchmark {
 public:
  explicit Benchmark(const Flags& flags)
      : flags_(flags),
        keys_(flags.key_size),
        values_(301),
        rnd_(1000) {
    if (flags_.mem_env) {
      owned_env_.reset(fcae::NewMemEnv(fcae::Env::Default()));
    }
    env_ = owned_env_ ? owned_env_.get() : fcae::Env::Default();

    if (flags_.use_fcae > 0) {
      fcae::fpga::EngineConfig config;
      config.num_inputs = 9;
      config.input_width = 8;
      config.value_width = 8;
      fcae::host::FcaeExecutorOptions exec_options;
      exec_options.tournament_scheduling = (flags_.use_fcae == 2);
      devices_ = std::make_unique<fcae::host::DeviceSet>(
          config, flags_.num_offload_cards);
      executor_ = std::make_unique<fcae::host::FcaeCompactionExecutor>(
          devices_.get(), exec_options);
    }
    Open(true);
  }

  void Open(bool fresh) {
    db_.reset();
    fcae::Options options;
    options.env = env_;
    options.create_if_missing = true;
    options.write_buffer_size = flags_.write_buffer_size;
    options.compaction_threads = flags_.compaction_threads;
    options.max_subcompactions = flags_.subcompactions;
    options.num_offload_cards = flags_.num_offload_cards;
    options.compaction_executor = executor_.get();
    // Benchmark-owned registry so --metrics_prom_out can render it
    // directly; the DB shares it instead of allocating its own.
    options.metrics_registry = &registry_;
    if (fresh) {
      // Best-effort: a stale DB that cannot be destroyed surfaces as an
      // Open error right below.
      fcae::DestroyDB(flags_.db, options).IgnoreError();
    }
    fcae::DB* db = nullptr;
    fcae::Status s = fcae::DB::Open(options, flags_.db, &db);
    if (!s.ok()) {
      std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    db_.reset(db);
  }

  void Run() {
    std::printf("keys: %d bytes, values: %d bytes, entries: %d, "
                "compaction: %s\n",
                flags_.key_size, flags_.value_size, flags_.num,
                flags_.use_fcae == 0   ? "cpu"
                : flags_.use_fcae == 1 ? "fcae(strict)"
                                       : "fcae(tournament)");
    std::string spec = flags_.benchmarks;
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      std::string name = spec.substr(pos, comma - pos);
      pos = comma + 1;
      RunOne(name);
    }
  }

  /// Dumps the obs/ telemetry after the last benchmark: fcae.metrics to
  /// --metrics_out and the fcae.trace chrome://tracing export to
  /// --trace_out. Written to the real filesystem even under --mem_env=1.
  void ExportTelemetry() {
    std::string json;
    if (!flags_.metrics_out.empty() &&
        db_->GetProperty("fcae.metrics", &json)) {
      WriteFileOrDie(flags_.metrics_out, json);
    }
    if (!flags_.metrics_prom_out.empty()) {
      // GetProperty pumps the derived counters (rate limiter, trace
      // drops) into the registry before we render it.
      db_->GetProperty("fcae.metrics", &json);
      WriteFileOrDie(flags_.metrics_prom_out, registry_.ExportPrometheus());
    }
    if (!flags_.trace_out.empty() && db_->GetProperty("fcae.trace", &json)) {
      WriteFileOrDie(flags_.trace_out, json);
    }
  }

 private:
  static void WriteFileOrDie(const std::string& path,
                             const std::string& contents) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::fwrite(contents.data(), 1, contents.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

  void RunOne(const std::string& name) {
    fcae::Histogram hist;
    uint64_t bytes = 0;
    int done = 0;
    const uint64_t start = env_->NowMicros();

    auto op_start = [&]() { return env_->NowMicros(); };
    auto op_done = [&](uint64_t t0, uint64_t op_bytes) {
      hist.Add(static_cast<double>(env_->NowMicros() - t0));
      bytes += op_bytes;
      done++;
    };

    fcae::WriteOptions wo;
    fcae::ReadOptions ro;
    const uint64_t op_size = flags_.key_size + flags_.value_size;

    if (name == "fillseq" || name == "fillrandom" || name == "overwrite") {
      if (name != "overwrite") Open(true);
      for (int i = 0; i < flags_.num; i++) {
        uint64_t id = (name == "fillseq") ? i : rnd_.Uniform(flags_.num);
        uint64_t t0 = op_start();
        fcae::Status s = db_->Put(wo, keys_.Format(id),
                                  values_.Generate(flags_.value_size));
        if (!s.ok()) Fail(name, s);
        op_done(t0, op_size);
      }
    } else if (name == "deleterandom") {
      for (int i = 0; i < flags_.num; i++) {
        uint64_t t0 = op_start();
        fcae::Status s = db_->Delete(wo, keys_.Format(rnd_.Uniform(flags_.num)));
        if (!s.ok()) Fail(name, s);
        op_done(t0, flags_.key_size);
      }
    } else if (name == "readrandom" || name == "readmissing") {
      std::string value;
      int found = 0;
      for (int i = 0; i < flags_.num; i++) {
        uint64_t id = rnd_.Uniform(flags_.num);
        std::string key = keys_.Format(id);
        if (name == "readmissing") key += ".missing";
        uint64_t t0 = op_start();
        if (db_->Get(ro, key, &value).ok()) found++;
        op_done(t0, value.size());
      }
      std::printf("  (%d of %d found)\n", found, flags_.num);
    } else if (name == "readseq") {
      std::unique_ptr<fcae::Iterator> iter(db_->NewIterator(ro));
      uint64_t t0 = op_start();
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        bytes += iter->key().size() + iter->value().size();
        done++;
      }
      hist.Add(static_cast<double>(env_->NowMicros() - t0));
    } else if (name == "compact") {
      uint64_t t0 = op_start();
      db_->CompactRange(nullptr, nullptr);
      op_done(t0, 0);
    } else if (name == "stats") {
      std::string stats;
      if (db_->GetProperty("fcae.stats", &stats)) {
        std::printf("%s\n", stats.c_str());
      }
      if (devices_) {
        for (int c = 0; c < devices_->num_cards(); c++) {
          const fcae::host::FcaeDevice* d = devices_->device(c);
          std::printf(
              "card %d: %llu kernels, %llu cycles, %.2f ms pcie, "
              "%.2f ms dma-overlap\n",
              c, (unsigned long long)d->kernels_launched(),
              (unsigned long long)d->total_kernel_cycles(),
              d->total_pcie_micros() / 1e3,
              d->total_dma_overlap_micros() / 1e3);
        }
      }
      return;
    } else {
      std::fprintf(stderr, "unknown benchmark: %s\n", name.c_str());
      return;
    }

    const double elapsed = (env_->NowMicros() - start) / 1e6;
    std::printf("%-12s : %11.3f micros/op; %8.1f kops/s; %7.1f MB/s"
                " (p99 %.0fus)\n",
                name.c_str(), done ? elapsed * 1e6 / done : 0,
                elapsed > 0 ? done / elapsed / 1e3 : 0,
                elapsed > 0 ? bytes / 1e6 / elapsed : 0,
                hist.Percentile(99));
  }

  void Fail(const std::string& name, const fcae::Status& s) {
    std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                 s.ToString().c_str());
    std::exit(1);
  }

  Flags flags_;
  std::unique_ptr<fcae::Env> owned_env_;
  fcae::Env* env_;
  std::unique_ptr<fcae::host::DeviceSet> devices_;
  std::unique_ptr<fcae::host::FcaeCompactionExecutor> executor_;
  fcae::obs::MetricsRegistry registry_;
  std::unique_ptr<fcae::DB> db_;
  fcae::workload::KeyFormatter keys_;
  fcae::workload::ValueGenerator values_;
  fcae::Random rnd_;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  Benchmark bench(flags);
  bench.Run();
  bench.ExportTelemetry();
  return 0;
}
