#include "host/offload_compaction.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "host/fork_join.h"
#include "host/output_verifier.h"
#include "host/sstable_stager.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "lsm/table_cache.h"
#include "obs/event_listener.h"
#include "obs/metrics.h"
#include "obs/perf_context.h"
#include "obs/trace.h"
#include "table/iterator.h"
#include "util/crash_env.h"
#include "util/env.h"

namespace fcae {
namespace host {

namespace {

/// Kernel attempts per job. Transient faults (device-busy, kernel
/// timeout, corruption caught by verification) are retried up to this
/// many total attempts; sticky faults (card dropped) abort at once.
constexpr int kMaxDeviceAttempts = 3;

/// Backoff before retry attempt k (k >= 2) is
/// `kBackoffBaseMicros << (k - 2)`: 100 then 200 micros.
constexpr uint64_t kBackoffBaseMicros = 100;

/// Transient faults are worth another kernel attempt; anything else
/// (sticky card drop, staging/argument errors) is not.
bool IsRetryableFault(const Status& s) {
  return s.IsBusy() || s.IsIOError() || s.IsCorruption();
}

/// The sorted runs a compaction feeds the engine, one engine input
/// each: every level-0 file alone (their key ranges overlap), and the
/// files of any other participating level concatenated into one run
/// (paper Section IV step 2).
std::vector<std::vector<const FileMetaData*>> EngineRuns(const Compaction* c) {
  std::vector<std::vector<const FileMetaData*>> runs;
  for (int which = 0; which < 2; which++) {
    const bool level0 = c->level() + which == 0;
    for (int i = 0; i < c->num_input_files(which); i++) {
      if (i == 0 || level0) runs.emplace_back();
      runs.back().push_back(c->input(which, i));
    }
  }
  return runs;
}

/// Publishes one successful kernel run's pipeline telemetry: per-module
/// busy/stall/backpressure counters, FIFO peaks, DMA volume, and the
/// derived bottleneck attribution (as a gauge in percent so one
/// snapshot names the limiting module).
void RecordDeviceMetrics(obs::MetricsRegistry* metrics,
                         const DeviceRunStats& run_stats, int num_lanes) {
  if (metrics == nullptr) return;
  const fpga::EngineStats& e = run_stats.engine;
  metrics->fpga_kernel_launches.Increment();
  metrics->fpga_kernel_cycles.Increment(run_stats.kernel_cycles);
  metrics->fpga_kernel_micros.Increment(
      static_cast<uint64_t>(run_stats.kernel_micros));
  metrics->fpga_dma_micros.Increment(
      static_cast<uint64_t>(run_stats.pcie_micros));
  metrics->fpga_dma_input_bytes.Increment(run_stats.input_bytes);
  metrics->fpga_dma_output_bytes.Increment(run_stats.output_bytes);
  metrics->fpga_dma_retransfers.Increment(run_stats.dma_retransfers);
  metrics->fpga_faults_injected.Increment(run_stats.faults_injected);

  metrics->fpga_decoder_busy_cycles.Increment(e.decoder_busy);
  metrics->fpga_decoder_fetch_stalls.Increment(e.decoder_fetch_stalls);
  metrics->fpga_decoder_backpressure.Increment(e.decoder_backpressure);
  metrics->fpga_comparer_busy_cycles.Increment(e.comparer_busy);
  metrics->fpga_comparer_waits.Increment(e.comparer_waits);
  metrics->fpga_transfer_busy_cycles.Increment(e.transfer_busy);
  metrics->fpga_encoder_busy_cycles.Increment(e.encoder_busy);
  metrics->fpga_encoder_write_stalls.Increment(e.encoder_write_stalls);
  metrics->fpga_records_in.Increment(e.records_in);
  metrics->fpga_records_out.Increment(e.records_out);
  metrics->fpga_records_dropped.Increment(e.records_dropped);
  metrics->fpga_records_bounds_dropped.Increment(e.records_bounds_dropped);

  // Double-buffered DMA pipeline telemetry (fpga/dma_timeline.h): how
  // much modeled transfer time hid behind compute, and how many jobs
  // arrived before their card's previous job left (pipelined).
  metrics->fpga_pipeline_overlap_micros.Increment(
      static_cast<uint64_t>(run_stats.dma_overlap_micros));
  if (run_stats.pipelined) metrics->fpga_pipeline_jobs.Increment();

  // Peaks across jobs: concurrent compaction threads may finish at
  // once, so each raise is atomic.
  metrics->fpga_fifo_key_stream_peak.UpdateMax(
      static_cast<int64_t>(e.fifo_key_stream_peak));
  metrics->fpga_fifo_transfer_peak.UpdateMax(
      static_cast<int64_t>(e.fifo_transfer_peak));
  metrics->fpga_fifo_selection_peak.UpdateMax(
      static_cast<int64_t>(e.fifo_selection_peak));
  metrics->fpga_fifo_output_peak.UpdateMax(
      static_cast<int64_t>(e.fifo_output_peak));
  metrics->fpga_fifo_write_queue_peak.UpdateMax(
      static_cast<int64_t>(e.fifo_write_queue_peak));

  const fpga::BottleneckReport report =
      fpga::AttributeBottleneck(e, num_lanes);
  metrics->fpga_bottleneck_decoder_share_pct.Set(
      static_cast<int64_t>(report.decoder_share * 100));
  metrics->fpga_bottleneck_comparer_share_pct.Set(
      static_cast<int64_t>(report.comparer_share * 100));
  metrics->fpga_bottleneck_transfer_share_pct.Set(
      static_cast<int64_t>(report.transfer_share * 100));
  metrics->fpga_bottleneck_encoder_share_pct.Set(
      static_cast<int64_t>(report.encoder_share * 100));
}

/// Emits the modeled pipeline sub-spans of one device run: DMA and the
/// per-module busy time, laid out sequentially from `start_micros` on
/// the job's own track and tagged with the card that ran it.
/// Modeled durations (simulated cycles at the engine clock), not wall
/// time — the pipeline stages actually overlap — so they are tagged
/// "modeled": true and readers must not treat them as wall spans.
void RecordDeviceSpans(obs::TraceRecorder* trace, uint64_t tid, int card,
                       uint64_t start_micros,
                       const DeviceRunStats& run_stats) {
  if (trace == nullptr) return;
  const std::string card_arg = std::to_string(card);
  const fpga::EngineStats& e = run_stats.engine;
  const double mpc =  // Micros per cycle at the configured clock.
      run_stats.kernel_cycles > 0
          ? run_stats.kernel_micros / run_stats.kernel_cycles
          : 0;
  uint64_t ts = start_micros;
  auto emit = [&](const char* name, double dur_micros) {
    const uint64_t dur = static_cast<uint64_t>(dur_micros);
    trace->RecordSpan(name, "fpga", ts, dur, tid,
                      {{"modeled", "true"}, {"card", card_arg}});
    ts += dur;
  };
  const double total_bytes =
      static_cast<double>(run_stats.input_bytes + run_stats.output_bytes);
  const double in_frac =
      total_bytes > 0 ? run_stats.input_bytes / total_bytes : 0.5;
  emit("dma_in", run_stats.pcie_micros * in_frac);
  emit("decode", e.decoder_busy * mpc);
  emit("merge", e.comparer_busy * mpc);
  emit("encode", e.encoder_busy * mpc);
  emit("dma_out", run_stats.pcie_micros * (1.0 - in_frac));
}

/// Assembles one verified device output table as table file
/// `out->number`, with its filter block when the DB has a filter policy,
/// and checks that the table cache can open it before it is published.
Status AssembleOutput(const CompactionJob& job,
                      const fpga::DeviceOutputTable& table,
                      const Slice& filter_block, CompactionOutput* out) {
  Status s = AssembleTableFile(
      job.options->env, TableFileName(job.dbname, out->number), table,
      &out->file_size, job.options->filter_policy, filter_block,
      job.options->rate_limiter, &out->file_checksum);
  if (!s.ok()) return s;
  out->has_file_checksum = true;
  if (!out->smallest.DecodeFrom(table.smallest_key) ||
      !out->largest.DecodeFrom(table.largest_key)) {
    return Status::Corruption("device returned empty table bounds");
  }
  ReadOptions verify_options;
  verify_options.verify_checksums = job.options->paranoid_checks;
  verify_options.fill_cache = false;
  std::unique_ptr<Iterator> it(job.table_cache->NewIterator(
      verify_options, out->number, out->file_size));
  return it->status();
}

}  // namespace

FcaeCompactionExecutor::FcaeCompactionExecutor(DeviceSet* devices,
                                               FcaeExecutorOptions options)
    : devices_(devices), options_(options) {}

int EngineInputsNeeded(const CompactionJob& job) {
  return static_cast<int>(EngineRuns(job.compaction).size());
}

bool FcaeCompactionExecutor::CanExecute(const CompactionJob& job) const {
  const int needed = EngineInputsNeeded(job);
  if (needed < 1) return false;
  // Breakers are consulted at placement time inside Execute(), where a
  // job is refused only when every card's breaker denies it — one
  // quarantined card must not push work to the CPU while its siblings
  // are healthy. All cards of a set share one engine configuration.
  return options_.tournament_scheduling ||
         needed <= devices_->device(0)->max_inputs();
}

Status FcaeCompactionExecutor::Execute(const CompactionJob& job,
                                       std::vector<CompactionOutput>* outputs,
                                       CompactionExecStats* stats) {
  Env* env = job.options->env;
  const uint64_t start_micros = env->NowMicros();
  const Compaction* c = job.compaction;

  // Route breaker transitions into the DB's metrics/trace and event
  // listeners. Idempotent; cheap relative to a compaction.
  devices_->AttachObservability(job.metrics, job.trace);
  devices_->AttachNotifier(job.notifier);

  // Placement: bind the job to the healthy card with the fewest queued
  // bytes before staging, so the queue estimate covers the job's whole
  // residency. The estimate is the on-disk size of the inputs (known up
  // front; actual staged bytes differ only by the metaindex region).
  const int card = devices_->PickCard();
  if (card < 0) {
    // Every card's breaker denied the job: the caller (DBImpl) falls
    // back to the CPU path.
    return Status::Busy("all offload cards quarantined");
  }
  FcaeDevice* device = devices_->device(card);
  DeviceHealthMonitor* health = devices_->monitor(card);
  const std::vector<std::vector<const FileMetaData*>> runs = EngineRuns(c);
  uint64_t queued_estimate = 0;
  for (const std::vector<const FileMetaData*>& run : runs) {
    for (const FileMetaData* file : run) queued_estimate += file->file_size;
  }
  obs::CardInstruments* card_metrics =
      job.metrics != nullptr ? job.metrics->card(card) : nullptr;
  devices_->AddQueued(card, queued_estimate);
  if (card_metrics != nullptr) {
    card_metrics->queued_bytes.Set(
        static_cast<int64_t>(devices_->queued_bytes(card)));
  }
  // Un-queue on every exit path, success or failure.
  struct PlacementGuard {
    DeviceSet* devices;
    int card;
    uint64_t bytes;
    obs::CardInstruments* card_metrics;
    ~PlacementGuard() {
      devices->SubQueued(card, bytes);
      if (card_metrics != nullptr) {
        card_metrics->queued_bytes.Set(
            static_cast<int64_t>(devices->queued_bytes(card)));
      }
    }
  } placement_guard{devices_, card, queued_estimate, card_metrics};

  // Sub-compaction shard bounds (if any): staging trims whole data
  // blocks outside (lower, upper] and the engine's Key-Value Transfer
  // filters the records boundary blocks leak in.
  fpga::KeyBounds key_bounds;
  key_bounds.has_lower = job.has_lower_bound;
  key_bounds.has_upper = job.has_upper_bound;
  key_bounds.lower = job.lower_bound;
  key_bounds.upper = job.upper_bound;
  const fpga::KeyBounds* bounds =
      key_bounds.active() ? &key_bounds : nullptr;

  // 1. Stage inputs (paper Section IV step 3: read SSTables from disk
  //    into continuous memory blocks in key order). Staging errors are
  //    host I/O problems, not device faults: no retry, no breaker hit.
  obs::SpanTimer input_build_span(job.trace, "input_build", "host",
                                  job.trace_tid);
  const uint64_t stage_start = env->NowMicros();
  std::vector<std::vector<std::string>> run_files;
  for (const std::vector<const FileMetaData*>& run : runs) {
    run_files.emplace_back();
    for (const FileMetaData* file : run) {
      run_files.back().push_back(TableFileName(job.dbname, file->number));
    }
  }
  std::vector<fpga::DeviceInput> staged;
  Status s = SstableStager(env).StageRuns(run_files, bounds, &staged);
  stats->stage_micros = static_cast<double>(env->NowMicros() - stage_start);
  if (!s.ok()) return s;
  std::vector<const fpga::DeviceInput*> input_ptrs;
  for (const fpga::DeviceInput& input : staged) {
    // Bounded staging may leave an input with no tables at all (every
    // block of every file outside the shard); the engine has nothing to
    // decode there, so the input is dropped from the merge.
    if (bounds != nullptr && input.sstables.empty()) continue;
    input_ptrs.push_back(&input);
  }
  input_build_span.AddArg("inputs", std::to_string(input_ptrs.size()));
  input_build_span.Finish();
  if (input_ptrs.empty()) {
    // The shard's key range holds no data: a legitimate empty result.
    stats->offloaded = true;
    stats->micros = env->NowMicros() - start_micros;
    return Status::OK();
  }

  // 2./3. DMA + kernel (steps 4-7 of the paper's workflow), with bounded
  //       retry. Transient faults (busy, timeout, corruption the host
  //       verifier catches) back off and retry; a sticky card drop or
  //       exhausted attempts give up so DBImpl can rerun on the CPU.
  fpga::DeviceOutput device_output;
  std::vector<std::string> filter_blocks;  // One per output table.
  DeviceRunStats run_stats;            // From the successful attempt.
  uint64_t attempts = 0;
  uint64_t faults = 0;
  uint64_t verify_failures = 0;
  uint64_t backoff_micros = 0;
  double verify_micros = 0;
  double wasted_kernel_micros = 0;     // Kernel+PCIe time of failed tries.
  double wasted_pcie_micros = 0;
  bool sticky = false;

  for (int attempt = 1; attempt <= kMaxDeviceAttempts; attempt++) {
    if (attempt > 1) {
      const uint64_t wait = kBackoffBaseMicros << (attempt - 2);
      env->SleepForMicroseconds(static_cast<int>(wait));
      backoff_micros += wait;
      if (job.trace != nullptr) {
        job.trace->RecordInstant(
            "retry", "host", obs::TraceNowMicros(), job.trace_tid,
            {{"attempt", std::to_string(attempt)},
             {"cause", obs::TraceRecorder::Quote(s.ToString())}});
      }
      if (job.notifier != nullptr && job.notifier->active()) {
        obs::OffloadRetryInfo retry_info;
        retry_info.attempt = attempt - 1;  // The attempt that just failed.
        retry_info.reason = s.ToString();
        job.notifier->NotifyOffloadRetry(retry_info);
      }
    }

    attempts++;
    obs::SpanTimer attempt_span(job.trace, "device_attempt", "host",
                                job.trace_tid);
    attempt_span.AddArg("attempt", std::to_string(attempt));

    // The attempt waits its turn in the card's queue, which every caller
    // of the card shares; no turn is held across a backoff sleep. At
    // most N runs make one kernel pass; more reach here only under
    // tournament scheduling (CanExecute).
    const uint64_t call_micros = obs::TraceNowMicros();
    device_output = fpga::DeviceOutput();
    s = device->ExecuteTournament(input_ptrs, job.smallest_snapshot,
                                  job.no_deeper_data, &device_output,
                                  &run_stats, bounds);
    // Device time and the modeled spans start when the card admitted
    // the job, once its queue wait was over.
    const uint64_t call_end_micros = obs::TraceNowMicros();
    const uint64_t run_start_micros = std::min(
        call_end_micros, call_micros + run_stats.queue_wait_micros);
    if (run_stats.queue_wait_micros > 0) {
      attempt_span.AddArg("queue_us",
                          std::to_string(run_stats.queue_wait_micros));
    }
    FCAE_PERF_TIME(offload_queue_wait_micros, run_stats.queue_wait_micros);
    FCAE_PERF_TIME(offload_device_micros, call_end_micros - run_start_micros);
    FCAE_PERF_COUNT(offload_device_attempts, 1);
    if (job.metrics != nullptr) {
      // Jobs queued or running, summed over the set's cards.
      uint64_t depth = 0;
      for (int i = 0; i < devices_->num_cards(); i++) {
        depth += devices_->device(i)->queued_jobs();
      }
      job.metrics->host_device_queue_depth.Set(static_cast<int64_t>(depth));
      if (run_stats.queued) job.metrics->host_device_queue_waits.Increment();
      job.metrics->host_device_queue_wait_micros.Increment(
          run_stats.queue_wait_micros);
      // Modeled device occupancy, failed attempts included — a card
      // burning cycles on a doomed kernel is still busy.
      card_metrics->busy_micros.Increment(static_cast<uint64_t>(
          run_stats.kernel_micros + run_stats.pcie_micros));
    }

    if (s.ok()) {
      // Host-side verification: CRCs, strict key order, bounds. Runs
      // BEFORE any SSTable is assembled, so a silently corrupt device
      // result can never reach the manifest. The same walk builds each
      // table's filter block; a rejected attempt builds none.
      obs::SpanTimer verify_span(job.trace, "verify", "host", job.trace_tid);
      const uint64_t verify_start = env->NowMicros();
      OutputVerifyStats verify_stats;
      Status vs = VerifyDeviceOutput(device_output, *job.icmp, &verify_stats,
                                     job.options->filter_policy,
                                     &filter_blocks);
      const uint64_t verify_delta = env->NowMicros() - verify_start;
      verify_micros += static_cast<double>(verify_delta);
      FCAE_PERF_TIME(offload_verify_micros, verify_delta);
      if (!vs.ok()) {
        verify_failures++;
        s = vs;  // Corruption: transient, retryable.
        verify_span.AddArg("rejected", "true");
        if (job.metrics != nullptr) {
          job.metrics->host_verify_rejects.Increment();
        }
      }
    }

    attempt_span.AddArg("ok", s.ok() ? "true" : "false");
    attempt_span.Finish();

    if (s.ok()) {
      RecordDeviceMetrics(job.metrics, run_stats,
                          static_cast<int>(input_ptrs.size()));
      RecordDeviceSpans(job.trace, job.trace_tid, card, run_start_micros,
                        run_stats);
      break;
    }

    faults++;
    wasted_kernel_micros += run_stats.kernel_micros;
    wasted_pcie_micros += run_stats.pcie_micros;
    if (s.IsDeviceLost()) {
      sticky = true;
      break;
    }
    if (!IsRetryableFault(s)) break;
  }

  // Feed the placed card's circuit breaker with the job outcome (one
  // report per job, not per attempt: a job saved by a retry is a
  // success).
  if (s.ok()) {
    health->RecordJobSuccess();
  } else {
    health->RecordJobFailure(sticky);
  }

  stats->device_attempts = attempts;
  stats->device_retries = attempts > 0 ? attempts - 1 : 0;
  stats->device_faults = faults;
  stats->verify_failures = verify_failures;
  stats->verify_micros = verify_micros;

  if (job.metrics != nullptr) {
    job.metrics->host_device_attempts.Increment(attempts);
    job.metrics->host_device_retries.Increment(stats->device_retries);
    job.metrics->host_device_faults.Increment(faults);
    job.metrics->host_backoff_micros.Increment(backoff_micros);
  }

  if (!s.ok()) return s;

  // 4. Write back the new SSTables (step 8) and register them, one
  //    table per task. File numbers are taken in table order here,
  //    because new_file_number takes the DB mutex; the workers hold no
  //    lock and each fills only its own table's slot.
  obs::SpanTimer assemble_span(job.trace, "assemble", "host", job.trace_tid);
  assemble_span.AddArg("tables", std::to_string(device_output.tables.size()));
  const uint64_t assemble_start = env->NowMicros();
  const size_t num_tables = device_output.tables.size();
  std::vector<CompactionOutput> assembled(num_tables);
  for (CompactionOutput& out : assembled) {
    out.number = job.new_file_number();
  }
  std::vector<Status> results(num_tables);
  ForkJoin(num_tables, [&](size_t i) {
    results[i] = AssembleOutput(job, device_output.tables[i],
                                job.options->filter_policy != nullptr
                                    ? Slice(filter_blocks[i])
                                    : Slice(),
                                &assembled[i]);
  });
  stats->assemble_micros =
      static_cast<double>(env->NowMicros() - assemble_start);
  for (size_t i = 0; i < num_tables; i++) {
    if (!results[i].ok()) return results[i];
    stats->bytes_written += assembled[i].file_size;
    outputs->push_back(std::move(assembled[i]));
  }
  // Assembled tables are on disk but not yet installed in any version; a
  // crash here must leave only orphans that reopen reclaims.
  FCAE_CRASH_POINT("offload:after_device_write");

  // Records the bounds filter discarded belong to other shards, not to
  // this job — exclude them so the stats match the CPU shard path,
  // whose bounded iterator never surfaces them at all.
  stats->entries_in = run_stats.engine.records_in -
                      run_stats.engine.records_bounds_dropped;
  stats->entries_dropped = run_stats.engine.records_dropped -
                           run_stats.engine.records_bounds_dropped;
  stats->offloaded = true;
  stats->device_cycles = run_stats.kernel_cycles;
  stats->device_micros = run_stats.kernel_micros + wasted_kernel_micros;
  stats->pcie_micros = run_stats.pcie_micros + wasted_pcie_micros;
  stats->micros = env->NowMicros() - start_micros;
  return Status::OK();
}

std::string FcaeCompactionExecutor::HealthString() const {
  std::string result;
  for (int i = 0; i < devices_->num_cards(); i++) {
    if (i > 0) result += " ";
    result += devices_->monitor(i)->ToString();
  }
  return result;
}

}  // namespace host
}  // namespace fcae
