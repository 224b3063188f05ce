// offload_pipeline: a fixed list of compaction jobs, built once in
// set-up as real SSTables, each run through the public offload stages in
// order — SstableStager::AddTable, FcaeDevice::ExecuteCompaction or
// ExecuteTournament, VerifyDeviceOutput, AssembleTableFile — so every
// stage is timed from outside. CpuCompactImages merges the same staged
// inputs as the reference. Jobs run from one thread, so the modeled card
// figures repeat exactly.

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "decorators.h"
#include "fpga/device_memory.h"
#include "host/cpu_compactor.h"
#include "host/device_set.h"
#include "host/output_verifier.h"
#include "host/sstable_stager.h"
#include "lsm/dbformat.h"
#include "table/iterator.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "trace.h"
#include "util/comparator.h"
#include "util/env.h"
#include "util/mem_env.h"

namespace perfbench {

namespace {

using KeyValues = std::vector<std::pair<std::string, std::string>>;

// One job per input count (12 takes the tournament path), with the two
// value sizes taking turns, so one pass of the list stays near 30 MB and
// a run holds several passes on the simulator.
struct JobShape {
  int inputs;
  size_t value_size;
};
constexpr JobShape kJobShapes[] = {{2, 1024}, {5, 100}, {9, 1024}, {12, 100}};
// Each input is as large as an input file of fill's compactions: a traced
// 20 s fill run (seed 5) read 303.7 MB from 286 input files in 40 jobs,
// 1.06 MB per file and 7.2 files per job.
constexpr uint64_t kInputTableBytes = 1060 * 1000;
constexpr double kTombstoneShare = 0.1;
constexpr int kSetups = 7;

struct Job {
  int id = 0;
  int inputs = 0;
  size_t value_size = 0;
  std::vector<std::string> files;  // One table per input, oldest first.
  uint64_t snapshot = 0;           // Largest sequence number in the job.
  uint64_t records_in = 0;
  KeyValues expected;  // Live user keys and values after the merge.

  // Modeled figures of the first run; every later run must repeat them.
  bool measured = false;
  uint64_t kernel_cycles = 0;
  double pcie_us = 0;
};

struct Pipeline {
  std::unique_ptr<fcae::Env> env;
  fcae::InternalKeyComparator icmp{fcae::BytewiseComparator()};
  std::unique_ptr<fcae::host::DeviceSet> devices;
  std::vector<Job> jobs;
};

fcae::Status WriteTable(Pipeline* p, const std::string& fname,
                        const KeyValues& records) {
  fcae::Options options;
  options.env = p->env.get();
  options.comparator = &p->icmp;
  fcae::WritableFile* file = nullptr;
  fcae::Status s = p->env->NewWritableFile(fname, &file);
  if (!s.ok()) return s;
  {
    fcae::TableBuilder builder(options, file);
    for (const auto& [ikey, value] : records) builder.Add(ikey, value);
    s = builder.Finish();
  }
  if (s.ok()) s = file->Close();
  delete file;
  return s;
}

/// Inputs draw about half of one shared key space each, so keys overlap
/// across inputs; a tenth of the records are tombstones. Later inputs
/// carry higher sequence numbers, like newer runs of an LSM tree.
fcae::Status BuildJob(Pipeline* p, uint64_t seed, Job* job) {
  const uint64_t per_input =
      kInputTableBytes / (kKeySize + 8 + job->value_size);
  const uint64_t key_space = 2 * per_input;
  Rng rng(Mix(seed, 1000 + job->id));
  std::vector<uint64_t> newest_seq(key_space, 0);
  std::vector<bool> newest_live(key_space, false);
  uint64_t seq = 0;
  std::string value;
  for (int i = 0; i < job->inputs; i++) {
    KeyValues records;
    for (uint64_t id = 0; id < key_space; id++) {
      if (rng.Uniform(2) != 0) continue;
      seq++;
      const bool live = rng.Uniform01() >= kTombstoneShare;
      std::string ikey;
      fcae::AppendInternalKey(
          &ikey, fcae::ParsedInternalKey(
                     KeyOf(id), seq, live ? fcae::kTypeValue
                                          : fcae::kTypeDeletion));
      value.clear();
      if (live) ValueOf(seed, (uint64_t{1} << 40) * job->id + id, seq,
                        job->value_size, &value);
      records.emplace_back(std::move(ikey), value);
      newest_seq[id] = seq;
      newest_live[id] = live;
    }
    job->records_in += records.size();
    job->files.push_back("/job" + std::to_string(job->id) + "_in" +
                         std::to_string(i) + ".ldb");
    fcae::Status s = WriteTable(p, job->files.back(), records);
    if (!s.ok()) return s;
  }
  job->snapshot = seq;
  for (uint64_t id = 0; id < key_space; id++) {
    if (!newest_live[id]) continue;
    ValueOf(seed, (uint64_t{1} << 40) * job->id + id, newest_seq[id],
            job->value_size, &value);
    job->expected.emplace_back(KeyOf(id), value);
  }
  return fcae::Status::OK();
}

fcae::Status SetUp(uint64_t seed, std::unique_ptr<Pipeline>* out) {
  auto p = std::make_unique<Pipeline>();
  p->env.reset(fcae::NewMemEnv(fcae::Env::Default()));
  p->devices = std::make_unique<fcae::host::DeviceSet>(OffloadEngineConfig(),
                                                       /*num_cards=*/1);
  int id = 0;
  for (const JobShape& shape : kJobShapes) {
    Job job;
    job.id = id++;
    job.inputs = shape.inputs;
    job.value_size = shape.value_size;
    fcae::Status s = BuildJob(p.get(), seed, &job);
    if (!s.ok()) return s;
    p->jobs.push_back(std::move(job));
  }
  *out = std::move(p);
  return fcae::Status::OK();
}

/// Reads one assembled table back as (internal key, value) pairs.
fcae::Status ReadTable(Pipeline* p, const std::string& fname,
                       KeyValues* out) {
  uint64_t size = 0;
  fcae::Status s = p->env->GetFileSize(fname, &size);
  if (!s.ok()) return s;
  fcae::RandomAccessFile* file = nullptr;
  s = p->env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) return s;
  std::unique_ptr<fcae::RandomAccessFile> file_owner(file);
  fcae::Options options;
  options.env = p->env.get();
  options.comparator = &p->icmp;
  fcae::Table* table = nullptr;
  s = fcae::Table::Open(options, file, size, &table);
  if (!s.ok()) return s;
  std::unique_ptr<fcae::Table> table_owner(table);
  std::unique_ptr<fcae::Iterator> it(table->NewIterator(fcae::ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out->emplace_back(it->key().ToString(), it->value().ToString());
  }
  return it->status();
}

/// Assembles every table of `output` under `prefix`, appending the file
/// names to `files` and the bytes written to `*bytes`. Adds the time spent
/// inside AssembleTableFile to `*call_ns`, if given.
fcae::Status Assemble(Pipeline* p, const fcae::fpga::DeviceOutput& output,
                      const std::string& prefix,
                      std::vector<std::string>* files, uint64_t* bytes,
                      uint64_t* call_ns = nullptr) {
  for (size_t t = 0; t < output.tables.size(); t++) {
    files->push_back(prefix + std::to_string(t) + ".ldb");
    uint64_t size = 0;
    const uint64_t start = NowNanos();
    fcae::Status s = fcae::host::AssembleTableFile(
        p->env.get(), files->back(), output.tables[t], &size);
    if (call_ns != nullptr) *call_ns += NowNanos() - start;
    if (!s.ok()) return s;
    *bytes += size;
  }
  return fcae::Status::OK();
}

fcae::Status ReadTables(Pipeline* p, const std::vector<std::string>& files,
                        KeyValues* out) {
  for (const std::string& f : files) {
    fcae::Status s = ReadTable(p, f, out);
    if (!s.ok()) return s;
  }
  return fcae::Status::OK();
}

bool MatchesExpected(const KeyValues& got, const KeyValues& expected) {
  if (got.size() != expected.size()) return false;
  for (size_t i = 0; i < got.size(); i++) {
    fcae::ParsedInternalKey parsed;
    if (!fcae::ParseInternalKey(got[i].first, &parsed) ||
        parsed.type != fcae::kTypeValue ||
        parsed.user_key != fcae::Slice(expected[i].first) ||
        got[i].second != expected[i].second) {
      return false;
    }
  }
  return true;
}

struct RunTotals {
  PipelineTotals pipeline;
  uint64_t input_bytes = 0;
  uint64_t records_in = 0;
  Samples job_latency;  // Wall time, simulator included.
  // Projected jobs: the host stages at wall time plus the card at its
  // modeled time. The simulator's wall time is an artefact of running
  // the card in software, and it swings with load from other processes
  // on the host far more than the host stages do.
  double projected_us = 0;
  double card_us = 0;
  Windows passes;  // Projected jobs, one window per pass of the job list.
};

/// Runs one job through the four stages, then the CPU reference, and
/// checks the outputs. The job's wall time, from its first line to the end
/// of assembly, is read apart from the stage timers, which wrap only the
/// public calls: host work the stages do not cover shows as the residual.
void RunJob(Pipeline* p, Job* job, RunTotals* totals, Result* result) {
  const uint64_t job_start = NowNanos();
  fcae::host::FcaeDevice* device = p->devices->device(0);
  std::vector<fcae::fpga::DeviceInput> inputs(job->inputs);
  std::vector<const fcae::fpga::DeviceInput*> input_ptrs;
  for (const auto& in : inputs) input_ptrs.push_back(&in);
  fcae::fpga::DeviceOutput output;
  fcae::host::DeviceRunStats run;
  fcae::host::OutputVerifyStats verify;
  std::vector<std::string> out_files;
  uint64_t assembled = 0;
  fcae::Status stage_s, device_s, verify_s, assemble_s;
  uint64_t stage_ns = 0, device_ns = 0, verify_ns = 0, assemble_ns = 0;

  const std::string prefix = "/job" + std::to_string(job->id) + "_out";
  {
    Span job_span(kJob);
    fcae::host::SstableStager stager(p->env.get());
    for (int i = 0; i < job->inputs && stage_s.ok(); i++) {
      Span span(kStage);
      const uint64_t start = NowNanos();
      stage_s = stager.AddTable(job->files[i], &inputs[i]);
      stage_ns += NowNanos() - start;
    }
    {
      Span span(kDevice);
      const uint64_t start = NowNanos();
      if (job->inputs > device->max_inputs()) {
        device_s = device->ExecuteTournament(input_ptrs, job->snapshot,
                                             /*drop_deletions=*/true,
                                             &output, &run);
      } else {
        device_s = device->ExecuteCompaction(input_ptrs, job->snapshot,
                                             /*drop_deletions=*/true,
                                             &output, &run);
      }
      device_ns = NowNanos() - start;
    }
    {
      Span span(kVerify);
      const uint64_t start = NowNanos();
      verify_s = fcae::host::VerifyDeviceOutput(output, p->icmp, &verify);
      verify_ns = NowNanos() - start;
    }
    {
      Span span(kAssemble);
      assemble_s =
          Assemble(p, output, prefix, &out_files, &assembled, &assemble_ns);
    }
  }
  const uint64_t job_ns = NowNanos() - job_start;

  fcae::fpga::DeviceOutput cpu_output;
  fcae::host::CpuCompactStats cpu_stats;
  fcae::Status cpu_s;
  const uint64_t c0 = NowNanos();
  {
    Span span(kCpuMerge);
    const fcae::fpga::EngineConfig config = device->config();
    fcae::host::CpuCompactorOptions options;
    options.data_block_threshold = config.data_block_threshold;
    options.sstable_threshold = config.sstable_threshold;
    options.compress_output = config.compress_output;
    options.smallest_snapshot = job->snapshot;
    options.drop_deletions = true;
    cpu_s = fcae::host::CpuCompactImages(input_ptrs, options, &cpu_output,
                                         &cpu_stats);
  }
  const uint64_t c1 = NowNanos();

  PipelineTotals& pt = totals->pipeline;
  pt.stage_us += stage_ns / 1e3;
  pt.sim_us += device_ns / 1e3;
  pt.verify_us += verify_ns / 1e3;
  pt.assemble_us += assemble_ns / 1e3;
  pt.job_wall_us += job_ns / 1e3;
  pt.cpu_merge_us += (c1 - c0) / 1e3;
  pt.verify_blocks += verify.blocks;
  pt.assemble_bytes += assembled;
  uint64_t input_bytes = 0;
  for (const auto& in : inputs) input_bytes += in.TotalBytes();
  pt.stage_bytes += input_bytes;
  totals->input_bytes += input_bytes;
  totals->records_in += job->records_in;
  totals->job_latency.Add(job_ns / 1e3);
  const double card_us = run.kernel_micros + run.pcie_micros -
                         run.dma_overlap_micros + run.bus_wait_micros;
  const double projected_us = (job_ns - device_ns) / 1e3 + card_us;
  totals->card_us += card_us;
  totals->projected_us += projected_us;
  totals->passes.Add(job_start + job_ns, projected_us, input_bytes);

  result->Check(stage_s.ok());
  result->Check(device_s.ok());
  result->Check(verify_s.ok());
  result->Check(assemble_s.ok());
  result->Check(cpu_s.ok());

  // Records out must equal the unique live keys in, on both paths.
  uint64_t records_out = 0;
  for (const auto& t : output.tables) records_out += t.num_entries;
  result->Check(records_out == job->expected.size());
  result->Check(cpu_stats.records_out == job->expected.size());

  KeyValues device_kv, cpu_kv;
  std::vector<std::string> cpu_files;
  uint64_t cpu_bytes = 0;
  const bool read_ok =
      ReadTables(p, out_files, &device_kv).ok() &&
      Assemble(p, cpu_output, prefix + "_cpu", &cpu_files, &cpu_bytes).ok() &&
      ReadTables(p, cpu_files, &cpu_kv).ok();
  result->Check(read_ok && MatchesExpected(device_kv, job->expected));
  result->Check(read_ok && device_kv == cpu_kv);

  // Modeled figures depend only on the inputs.
  if (!job->measured) {
    job->measured = true;
    job->kernel_cycles = run.kernel_cycles;
    job->pcie_us = run.pcie_micros;
  } else {
    result->Check(run.kernel_cycles == job->kernel_cycles &&
                  run.pcie_micros == job->pcie_us);
  }

  for (const std::string& f : out_files) p->env->RemoveFile(f).IgnoreError();
  for (const std::string& f : cpu_files) p->env->RemoveFile(f).IgnoreError();
}

}  // namespace

Result RunOffloadPipeline(const RunConfig& config) {
  Result result;
  ResetRecorder(false);
  std::vector<double> setup_s;
  std::unique_ptr<Pipeline> p;
  for (int i = 0; i < kSetups; i++) {
    p.reset();
    const uint64_t t0 = NowNanos();
    const fcae::Status s = SetUp(config.seed, &p);
    setup_s.push_back((NowNanos() - t0) / 1e9);
    if (!s.ok()) {
      std::fprintf(stderr, "offload_pipeline set-up: %s\n",
                   s.ToString().c_str());
      result.Check(false);
      return result;
    }
  }

  ResetRecorder(config.trace);
  fcae::host::FcaeDevice* device = p->devices->device(0);
  RunTotals totals;
  DeviceCounters first_pass;
  uint64_t pass_input_bytes = 0;
  int passes = 0;
  const uint64_t deadline =
      NowNanos() + static_cast<uint64_t>(config.seconds * 1e9);
  do {
    const double pass_start_us = totals.projected_us;
    for (Job& job : p->jobs) RunJob(p.get(), &job, &totals, &result);
    totals.passes.Close((totals.projected_us - pass_start_us) / 1e6);
    if (++passes == 1) {
      first_pass = DeviceCounters::Read(device);
      pass_input_bytes = totals.input_bytes;
      // The per-job run stats must add up to the card's own counters.
      result.Check(std::fabs(totals.card_us - first_pass.modeled_us()) <=
                   1e-9 * first_pass.modeled_us());
    }
  } while (NowNanos() < deadline);
  const DeviceCounters all = DeviceCounters::Read(device);
  result.Check(all.kernel_cycles == first_pass.kernel_cycles * passes &&
               all.kernels == first_pass.kernels * passes);

  const PipelineTotals& pt = totals.pipeline;
  const double wall_s = pt.job_wall_us / 1e6;
  const double compaction_mbps = totals.input_bytes / 1e6 / wall_s;
  const double modeled_mbps = pass_input_bytes / first_pass.modeled_us();
  // Projected jobs, medians over passes: within a pass, p50 falls between
  // the 2nd and 3rd of 4 jobs and p99 next to the slowest.
  result.end_to_end = {
      {"throughput_mbps", "MB/s", totals.passes.MBPerSecond()},
      {"latency_p50_us", "us", totals.passes.P50()},
      {"latency_p99_us", "us", totals.passes.P99()},
      {"setup_s", "s", Median(setup_s)},
  };
  result.report = {
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"compaction_mbps", "MB/s", compaction_mbps},
      {"offload_modeled_mbps", "MB/s", modeled_mbps},
      {"offload_projected_mbps", "MB/s",
       totals.input_bytes / totals.projected_us},
      {"cpu_merge_mbps", "MB/s", totals.input_bytes / pt.cpu_merge_us},
      {"pipeline.residual_pct", "%", pt.residual_pct()},
      {"passes", "count", static_cast<double>(passes)},
  };
  ReportLatency("job", totals.job_latency, &result);
  if (pt.residual_pct() > 10.0) {
    std::fprintf(stderr, "pipeline.residual_pct %.2f exceeds 10%%\n",
                 pt.residual_pct());
    result.Check(false);
  }

  if (config.trace) {
    // Per pass of the job list: the modeled counters then repeat exactly.
    PipelineTotals per_pass = pt;
    const double n = passes;
    per_pass.stage_us /= n;
    per_pass.stage_bytes /= passes;
    per_pass.sim_us /= n;
    per_pass.verify_us /= n;
    per_pass.verify_blocks /= passes;
    per_pass.assemble_us /= n;
    per_pass.assemble_bytes /= passes;
    per_pass.cpu_merge_us /= n;
    per_pass.job_wall_us /= n;
    LayerSources sources;
    sources.device = first_pass;
    sources.offload_in_bytes = static_cast<double>(pass_input_bytes);
    sources.pipeline = per_pass;
    AddLayerMetrics(sources, &result);
  }
  return result;
}

}  // namespace perfbench
