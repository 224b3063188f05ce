#include "syssim/simulator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "fpga/dma_timeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/write_controller.h"

namespace fcae {
namespace syssim {

namespace {
constexpr double kMB = 1e6;           // Rates are quoted in MB/s = B/us.
constexpr double kEps = 1e-12;

/// The simulated client runs the exact delay curve DBImpl's
/// MakeRoomForWrite applies, with the thresholds coming from SimConfig
/// (which itself defaults to the engine's dbformat.h constants).
WriteControllerConfig ControllerConfigFor(const SimConfig& cfg) {
  WriteControllerConfig wc;
  wc.l0_slowdown_trigger = cfg.l0_slowdown_trigger;
  wc.l0_stop_trigger = cfg.l0_stop_trigger;
  return wc;
}
}  // namespace

/// The event machinery: one client thread, one background CPU thread
/// (flush has priority and preempts a software merge, as LevelDB's
/// DoCompactionWork does between keys), and the device pipeline
/// host-read -> DMA/kernel/DMA -> host-write. With
/// SimConfig::compaction_threads > 1, up to that many compactions are
/// in flight on disjoint level pairs; host-side stages still share the
/// one background core (earliest job first), and each staged job is
/// placed on the least-backlogged card (SimConfig::num_cards) and
/// scheduled on the cards' one fpga::DmaTimeline, the model the
/// storage engine's cards run.
struct Simulator::Engine {
  explicit Engine(const SimConfig& config)
      : cfg(config),
        wc(ControllerConfigFor(config)),
        lsm(static_cast<double>(config.file_size), config.leveling_ratio,
            config.overlap_files),
        num_cards(std::max(1, config.num_cards)),
        dma(num_cards, config.pipelined_dma) {
    op_bytes = static_cast<double>(cfg.key_length + cfg.value_length);
    frontend_rate = cfg.cost.FrontendMBps(cfg.key_length, cfg.value_length);
  }

  const SimConfig& cfg;
  const WriteControllerConfig wc;
  LsmState lsm;
  SimResult result;

  double now = 0;  // Seconds.
  double op_bytes = 0;
  double frontend_rate = 0;  // MB/s of user data, dedicated core.

  // Client state.
  double mem_bytes = 0;  // User bytes in the active memtable.
  bool has_imm = false;

  // Background CPU work (seconds of remaining single-core time).
  double flush_rem = 0;

  /// One in-flight compaction job. At most one of the stage remainders
  /// is nonzero at a time; the job walks host_read -> device ->
  /// host_write (offload) or just sw (software merge).
  struct Job {
    CompactionWork work;
    bool offloaded = false;
    bool fallback_pending = false;  // Device attempts exhausted: SW rerun.
    int passes = 1;             // Tournament passes for >N-input jobs.
    double host_read_rem = 0;   // Offload: staging reads from disk.
    double host_write_rem = 0;  // Offload: writing outputs to disk.
    double sw_rem = 0;          // Software compaction (read+merge+write).
    double device_rem = 0;      // Until the job leaves its card.
    // Observability bookkeeping: span starts in simulated seconds.
    double compaction_start = 0;
    double stage_start = 0;
    uint64_t tid = 0;  // Track 0 carries flushes.
  };
  // In-flight jobs, arrival order. unique_ptr keeps Job addresses
  // stable across vector growth/erase (handlers hold raw pointers).
  std::vector<std::unique_ptr<Job>> jobs;
  const int num_cards;
  fpga::DmaTimeline dma;          // Every card's DMA and kernel chain.
  std::vector<Job*> active_runs;  // Step() scratch: jobs on a card now.
  uint32_t busy_levels = 0;    // Level-pair claims, LevelPairMask bits.

  // Fault-tolerant offload model (see SimConfig::device_fault_rate).
  Random fault_rng{cfg.fault_seed == 0 ? 1 : cfg.fault_seed};

  double flush_start = 0;

  uint64_t SimMicros(double seconds) const {
    return static_cast<uint64_t>(seconds * 1e6);
  }

  /// Records a simulated-time span from `start_s` to now.
  void Span(const char* name, double start_s, uint64_t tid) {
    if (cfg.trace == nullptr) return;
    cfg.trace->RecordSpan(name, "syssim", SimMicros(start_s),
                          SimMicros(now) - SimMicros(start_s), tid,
                          {{"simulated", "true"}});
  }

  // ---- Derived helpers ----

  bool CpuBusy() const {
    if (flush_rem > kEps) return true;
    for (const auto& j : jobs) {
      if (j->host_read_rem > kEps || j->host_write_rem > kEps ||
          j->sw_rem > kEps) {
        return true;
      }
    }
    return false;
  }

  bool DeviceBusy() const {
    for (const auto& j : jobs) {
      if (j->device_rem > kEps) return true;
    }
    return false;
  }

  /// Time until `card`'s last scheduled job leaves it (0 when idle).
  double Backlog(int card) const {
    return std::max(0.0, dma.idle_at(card) - now);
  }

  /// Least-backlog placement, ties to the lowest card id (the host
  /// DeviceSet::PickCard policy).
  int PickCard() const {
    int best = 0;
    for (int c = 1; c < num_cards; c++) {
      if (Backlog(c) < Backlog(best) - kEps) best = c;
    }
    return best;
  }

  /// Which background bucket the CPU is currently burning, plus the job
  /// it belongs to (null for the flush bucket).
  struct CpuTaskRef {
    double* rem = nullptr;
    Job* job = nullptr;
    enum Kind { kFlush, kHostWrite, kHostRead, kSw } kind = kFlush;
  };

  /// Flush first (it gates the client), then in-flight jobs in arrival
  /// order with the same write > read > merge priority the single-job
  /// model used.
  CpuTaskRef CpuTask() {
    CpuTaskRef ref;
    if (flush_rem > kEps) {
      ref.rem = &flush_rem;
      return ref;
    }
    for (auto& j : jobs) {
      if (j->host_write_rem > kEps) {
        ref = {&j->host_write_rem, j.get(), CpuTaskRef::kHostWrite};
        return ref;
      }
      if (j->host_read_rem > kEps) {
        ref = {&j->host_read_rem, j.get(), CpuTaskRef::kHostRead};
        return ref;
      }
      if (j->sw_rem > kEps) {
        ref = {&j->sw_rem, j.get(), CpuTaskRef::kSw};
        return ref;
      }
    }
    return ref;
  }

  /// Core share of the client and of the background thread: FCAE mode
  /// runs both on one core, halved while both have work; stock LevelDB
  /// gives each its own core.
  double CoreShare(bool client_running) const {
    if (cfg.mode == ExecMode::kLevelDbCpu) return 1.0;
    return (client_running && CpuBusy()) ? 0.5 : 1.0;
  }

  /// Client ingest rate (MB/s of user bytes) given stall state; 0 when
  /// fully stopped.
  double ClientRate() const {
    if (mem_bytes >= cfg.memtable_bytes && has_imm) return 0;  // Wait.
    if (lsm.l0_files() >= cfg.l0_stop_trigger) return 0;       // Stop.
    double rate = frontend_rate;
    WriteStallConditions cond;
    cond.l0_files = lsm.l0_files();
    const double debt = WriteController::DebtScore(cond, wc);
    if (debt > 0) {
      // Every write pays the controller's debt-proportional delay on
      // top of its frontend service time (MakeRoomForWrite's ramp).
      const double delay_us = static_cast<double>(
          WriteController::DelayMicrosForDebt(debt, wc));
      const double slow = op_bytes / (delay_us + op_bytes / frontend_rate);
      rate = std::min(rate, slow);
    }
    return rate;
  }

  // ---- State transitions ----

  void MaybeRotateMemtable() {
    if (mem_bytes >= cfg.memtable_bytes - kEps && !has_imm) {
      mem_bytes -= cfg.memtable_bytes;
      if (mem_bytes < 0) mem_bytes = 0;
      has_imm = true;
      flush_rem = cfg.memtable_bytes / (cfg.cost.FlushMBps() * kMB);
      result.flush_seconds += flush_rem;
      flush_start = now;
    }
  }

  void OnFlushDone() {
    has_imm = false;
    lsm.AddL0File(static_cast<double>(cfg.memtable_bytes) *
                  cfg.cost.CompressedFraction());
    result.flushes++;
    Span("flush", flush_start, 0);
    if (cfg.metrics != nullptr) cfg.metrics->syssim_flushes.Increment();
    MaybeRotateMemtable();  // A stalled client may rotate immediately.
    MaybeScheduleCompaction();
  }

  void MaybeScheduleCompaction() {
    const int max_jobs = std::max(1, cfg.compaction_threads);
    while (static_cast<int>(jobs.size()) < max_jobs) {
      CompactionWork work;
      // Under the strict Fig. 6 policy the scheduler sizes level-0 jobs
      // to the device (oldest N-1 files), as the paper's "eight SSTables
      // on Level 0 and Level 1 ... which means N = 9" implies.
      int max_l0 = 0;
      if (cfg.mode == ExecMode::kLevelDbFcae && !cfg.multipass_offload &&
          cfg.engine.num_inputs > 2) {
        max_l0 = cfg.engine.num_inputs - 1;
      }
      if (!lsm.PickCompaction(&work, max_l0, busy_levels)) return;
      StartCompaction(work);
    }
  }

  void StartCompaction(const CompactionWork& work) {
    auto owned = std::make_unique<Job>();
    Job* job = owned.get();
    jobs.push_back(std::move(owned));
    job->work = work;
    busy_levels |= LevelPairMask(work.level);
    result.compactions++;
    result.bytes_compacted_in += work.input_bytes;
    result.bytes_compacted_out += work.output_bytes;
    job->compaction_start = now;
    job->stage_start = now;
    job->tid = result.compactions;  // Track 0 is the flush track.
    if (cfg.metrics != nullptr) cfg.metrics->syssim_compactions.Increment();

    bool offloadable = cfg.mode == ExecMode::kLevelDbFcae &&
                       work.device_inputs >= 1 &&
                       work.device_inputs <= cfg.engine.num_inputs;
    job->passes = 1;
    if (!offloadable && cfg.mode == ExecMode::kLevelDbFcae &&
        cfg.multipass_offload && work.device_inputs >= 1) {
      // Tournament scheduling: merge N runs at a time on the card until
      // one run remains; intermediate runs never leave device DRAM.
      offloadable = true;
      int runs = work.device_inputs;
      const int n = std::max(2, cfg.engine.num_inputs);
      while (runs > n) {
        job->passes++;
        runs = (runs + n - 1) / n;
      }
    }
    job->offloaded = offloadable;
    if (offloadable) {
      result.compactions_offloaded++;
      if (cfg.near_storage) {
        // Near-storage: no host staging; the kernel starts immediately
        // on the drive's internal channels.
        job->host_read_rem = 0;
        OnHostReadDone(job);
      } else {
        job->host_read_rem =
            work.input_bytes / (cfg.cost.DiskReadMBps() * kMB);
      }
    } else {
      result.compactions_sw++;
      const double cpu_speed = cfg.cost.CpuCompactionMBps(
          work.device_inputs, cfg.key_length, cfg.value_length);
      job->sw_rem = work.input_bytes / (cfg.cost.DiskReadMBps() * kMB) +
                    work.input_bytes / (cpu_speed * kMB) +
                    work.output_bytes / (cfg.cost.DiskWriteMBps() * kMB);
      result.cpu_compaction_seconds += job->sw_rem;
    }
  }

  void OnHostReadDone(Job* job) {
    if (!cfg.near_storage) {
      Span("input_build", job->stage_start, job->tid);
    }
    // DMA in, kernel, DMA out all happen on the card side. Near-storage
    // mode reads/writes the drive's internal channels instead of the
    // PCIe link (modeled at the same internal bandwidth the channels
    // give sequential I/O; the interesting difference is that the host
    // core and external bus stay idle).
    double pcie_in =
        cfg.near_storage
            ? 0.0
            : job->work.input_bytes / (cfg.cost.PcieMBps() * kMB);
    double pcie_out =
        cfg.near_storage
            ? 0.0
            : job->work.output_bytes / (cfg.cost.PcieMBps() * kMB);
    const double pcie = pcie_in + pcie_out;
    const double kernel_speed = cfg.cost.FpgaCompactionMBps(
        cfg.engine, cfg.key_length, cfg.value_length);
    double kernel =
        job->passes * job->work.input_bytes / (kernel_speed * kMB);
    if (cfg.near_storage) {
      // Internal channel transfers serialize with the kernel.
      kernel += (job->work.input_bytes + job->work.output_bytes) /
                (3.0 * cfg.cost.DiskReadMBps() * kMB);
    }
    // Card time between the transfers: the kernel passes and the
    // invocation overhead (plus, below, failed attempts and backoff).
    double card_busy = kernel + cfg.cost.KernelInvokeMicros() * 1e-6;
    result.pcie_seconds += pcie;
    result.device_seconds += kernel;

    // Fault-tolerant offload model: each attempt fails independently
    // with the configured probability. Failed attempts waste their
    // kernel run plus the host's exponential backoff; exhausting the
    // retry budget reruns the job in software once the card gives up.
    if (cfg.device_fault_rate > 0) {
      const int limit = std::max(1, cfg.device_retry_limit);
      int failed = 0;
      while (failed < limit &&
             fault_rng.NextDouble() < cfg.device_fault_rate) {
        failed++;
      }
      if (failed > 0) {
        double waste = failed * kernel;
        double backoff = 0;
        for (int attempt = 1; attempt <= failed && attempt < limit;
             attempt++) {
          backoff += cfg.cost.RetryBackoffMicros(attempt) * 1e-6;
        }
        card_busy += waste + backoff;
        result.device_seconds += waste;
        result.fault_wasted_device_seconds += waste;
        result.fault_backoff_seconds += backoff;
        if (failed >= limit) {
          // All attempts burned: the software path takes over after the
          // wasted device time elapses (see OnDeviceDone).
          job->fallback_pending = true;
          card_busy -= kernel;  // The good run never happened.
          pcie_in = pcie_out = 0;
          result.device_seconds -= kernel;
          result.pcie_seconds -= pcie;
        } else {
          result.compactions_retried++;
          if (cfg.metrics != nullptr) {
            cfg.metrics->syssim_compactions_retried.Increment();
          }
          if (cfg.trace != nullptr) {
            cfg.trace->RecordInstant("retry", "syssim", SimMicros(now),
                                     job->tid,
                                     {{"failed_attempts",
                                       std::to_string(failed)}});
          }
        }
      }
    }

    // Place the job on the least-backlogged card and schedule it there:
    // it arrives now, and leaves the card at the slot's end. The bus
    // time is still spent (pcie_seconds keeps it); double-buffered DMA
    // only shrinks the job's serialized card occupancy.
    const int card = PickCard();
    const double queue = Backlog(card);
    if (queue > kEps) {
      result.device_queue_seconds += queue;
      if (cfg.metrics != nullptr) {
        cfg.metrics->syssim_device_queue_waits.Increment();
      }
    }
    const fpga::DmaSlot slot =
        dma.Schedule(card, now, pcie_in, card_busy, pcie_out);
    result.pipeline_overlap_seconds += slot.overlap;
    result.bus_contention_seconds += slot.bus_wait;
    job->stage_start = slot.start;
    job->device_rem = slot.end - now;
  }

  void OnDeviceDone(Job* job) {
    Span("device_run", job->stage_start, job->tid);
    job->stage_start = now;

    if (job->fallback_pending) {
      // Device attempts exhausted: rerun completely in software, like
      // DBImpl's CPU fallback. Inputs are re-read from disk (the real
      // fallback re-drives the input iterators too).
      job->fallback_pending = false;
      job->offloaded = false;
      result.compactions_offloaded--;
      result.compactions_sw++;
      result.compactions_fallback++;
      if (cfg.metrics != nullptr) {
        cfg.metrics->syssim_compactions_fallback.Increment();
      }
      if (cfg.trace != nullptr) {
        cfg.trace->RecordInstant("cpu_fallback", "syssim", SimMicros(now),
                                 job->tid);
      }
      const double cpu_speed = cfg.cost.CpuCompactionMBps(
          job->work.device_inputs, cfg.key_length, cfg.value_length);
      job->sw_rem =
          job->work.input_bytes / (cfg.cost.DiskReadMBps() * kMB) +
          job->work.input_bytes / (cpu_speed * kMB) +
          job->work.output_bytes / (cfg.cost.DiskWriteMBps() * kMB);
      result.cpu_compaction_seconds += job->sw_rem;
      return;
    }
    job->host_write_rem =
        cfg.near_storage
            ? 0.0
            : job->work.output_bytes / (cfg.cost.DiskWriteMBps() * kMB);
    if (cfg.near_storage) {
      OnCompactionInstalled(job);
    }
  }

  void OnCompactionInstalled(Job* job) {
    // The tail stage: host writeback for an offload, the whole software
    // merge otherwise (near-storage offloads have no host tail).
    if (job->offloaded) {
      if (!cfg.near_storage) Span("assemble", job->stage_start, job->tid);
      if (cfg.metrics != nullptr) {
        cfg.metrics->syssim_compactions_offloaded.Increment();
      }
    } else {
      Span("merge", job->stage_start, job->tid);
      if (cfg.metrics != nullptr) {
        cfg.metrics->syssim_compactions_sw.Increment();
      }
    }
    Span("compaction", job->compaction_start, job->tid);
    lsm.ApplyCompaction(job->work);
    busy_levels &= ~LevelPairMask(job->work.level);
    for (size_t i = 0; i < jobs.size(); i++) {
      if (jobs[i].get() == job) {
        jobs.erase(jobs.begin() + i);
        break;
      }
    }
    MaybeScheduleCompaction();
  }

  /// Advances simulated time by up to `dt` seconds with the client
  /// either ingesting (fill mode) or idle (`client_rate` = 0 while it
  /// executes a read, whose cost the caller accounts separately).
  /// Returns the time actually advanced (an event may cut it short).
  double Step(double dt, bool client_ingesting, double* ingested) {
    const double client_rate = client_ingesting ? ClientRate() : 0;
    const bool client_running = client_ingesting && client_rate > 0;

    const double share = CoreShare(client_running);

    double step = dt;
    // Clip at the memtable boundary.
    if (client_running) {
      const double to_fill =
          (cfg.memtable_bytes - mem_bytes) / (client_rate * kMB * share);
      step = std::min(step, to_fill);
    }
    // Clip at the active CPU task boundary.
    CpuTaskRef task = CpuTask();
    if (task.rem != nullptr) {
      step = std::min(step, *task.rem / share);
    }
    // Clip at jobs leaving their cards. Only jobs on a card at the start
    // of the step advance (a job a handler schedules below starts its
    // countdown next step).
    active_runs.clear();
    for (const auto& j : jobs) {
      if (j->device_rem > kEps) {
        active_runs.push_back(j.get());
        step = std::min(step, j->device_rem);
      }
    }
    if (step < 0) step = 0;

    // Advance.
    now += step;
    if (client_running) {
      const double bytes = client_rate * kMB * share * step;
      mem_bytes += bytes;
      if (ingested != nullptr) *ingested += bytes;
      if (lsm.l0_files() >= cfg.l0_slowdown_trigger) {
        result.slowdown_seconds += step;
      }
    } else if (client_ingesting) {
      result.stall_seconds += step;
    }
    if (task.rem != nullptr) {
      *task.rem -= share * step;
      if (*task.rem < kEps) {
        *task.rem = 0;
        switch (task.kind) {
          case CpuTaskRef::kFlush:
            OnFlushDone();
            break;
          case CpuTaskRef::kHostRead:
            OnHostReadDone(task.job);
            break;
          case CpuTaskRef::kHostWrite:
          case CpuTaskRef::kSw:
            OnCompactionInstalled(task.job);  // Frees task.job.
            break;
        }
      }
    }
    for (Job* dev : active_runs) {
      dev->device_rem -= step;
      if (dev->device_rem < kEps) {
        dev->device_rem = 0;
        OnDeviceDone(dev);
      }
    }
    if (client_running) {
      MaybeRotateMemtable();
      MaybeScheduleCompaction();
    }
    return step;
  }

  /// Advances the clock by a client-side read of `service_us` while
  /// background work progresses concurrently; in the 1-core FCAE mode
  /// an active background task halves the read's effective speed.
  /// (Background progress during reads is modeled at full speed — a
  /// small optimism that affects both modes' read phases equally.)
  void AdvanceReadTime(double service_us) {
    double work = service_us * 1e-6;  // Dedicated-core seconds needed.
    int guard = 0;
    while (work > kEps && ++guard < 1000000) {
      const double share = CoreShare(/*client_running=*/true);
      const double stepped = Step(work / share, false, nullptr);
      if (stepped <= kEps) {
        now += work / share;
        break;
      }
      work -= stepped * share;
    }
  }

  /// Drives time forward until the client can make progress again (or
  /// nothing is pending — a liveness bug guard).
  bool WaitWhileStalled(bool ingesting) {
    int guard = 0;
    while (ingesting && ClientRate() <= 0) {
      MaybeScheduleCompaction();
      if (!CpuBusy() && !DeviceBusy()) {
        return false;  // Deadlock: nothing will unblock the client.
      }
      Step(1e9, /*client_ingesting=*/true, nullptr);
      if (++guard > 100000000) return false;
    }
    return true;
  }
};

Simulator::Simulator(const SimConfig& config) : config_(config) {}

SimResult Simulator::RunFillRandom(double total_user_bytes) {
  Engine engine(config_);
  double ingested = 0;

  while (ingested < total_user_bytes) {
    if (!engine.WaitWhileStalled(true)) {
      break;  // Deadlock guard; should not happen.
    }
    const double remaining_bytes = total_user_bytes - ingested;
    const double rate = engine.ClientRate() *
                        engine.CoreShare(true) * kMB;
    const double dt = rate > 0 ? remaining_bytes / rate : 1e9;
    engine.Step(dt, /*client_ingesting=*/true, &ingested);
  }

  SimResult result = engine.result;
  result.user_bytes = ingested;
  result.elapsed_seconds = engine.now;
  result.throughput_mbps =
      engine.now > 0 ? ingested / kMB / engine.now : 0;
  return result;
}

SimResult Simulator::RunYcsb(workload::YcsbWorkload w, uint64_t record_count,
                             uint64_t op_count, uint32_t seed) {
  Engine engine(config_);
  Random rnd(seed);

  // Model the pre-loaded store: record_count records laid out in the
  // fully compacted leveled shape (deepest levels carry the bulk).
  {
    double remaining = static_cast<double>(record_count) *
                       engine.op_bytes * config_.cost.CompressedFraction();
    // Find the minimal depth whose cumulative capacity holds the data.
    int depth = 1;
    double cumulative = 0;
    for (int level = 1; level < kNumLevels; level++) {
      cumulative += MaxBytesForLevel(level, config_.leveling_ratio);
      depth = level;
      if (cumulative >= remaining) break;
    }
    for (int level = depth; level >= 1 && remaining > 0; level--) {
      const double put = std::min(
          MaxBytesForLevel(level, config_.leveling_ratio), remaining);
      // Poke the level through a synthetic zero-input compaction.
      CompactionWork work;
      work.level = level - 1;
      work.output_bytes = put;
      work.input_bytes = put;
      engine.lsm.ApplyCompaction(work);
      remaining -= put;
    }
  }

  workload::YcsbGenerator gen(w, record_count, seed);
  const bool latest = (w == workload::YcsbWorkload::kD);
  const double hit_rate = config_.cost.CacheHitRate(latest);

  double ingested = 0;
  const double write_service_us =
      engine.op_bytes / engine.frontend_rate;  // B / (B/us).

  for (uint64_t i = 0; i < op_count; i++) {
    workload::YcsbGenerator::Op op = gen.Next();

    auto read_cost_us = [&]() -> double {
      if (rnd.NextDouble() < hit_rate) {
        return config_.cost.CacheHitMicros();
      }
      // Bloomless LevelDB probes L0 files newest-first plus one file
      // per deeper level until the key is found.
      const double probes = 1.0 + 0.5 * engine.lsm.l0_files() +
                            0.4 * std::max(0, engine.lsm.PopulatedLevels() -
                                                  1);
      return probes * config_.cost.BlockMissMicros();
    };

    double service_us = 0;
    bool is_write = false;
    switch (op.type) {
      case workload::YcsbOp::kRead:
        service_us = read_cost_us();
        break;
      case workload::YcsbOp::kScan:
        service_us = read_cost_us() +
                     op.scan_length * config_.cost.ScanNextMicros();
        break;
      case workload::YcsbOp::kUpdate:
      case workload::YcsbOp::kInsert:
        is_write = true;
        service_us = write_service_us;
        break;
      case workload::YcsbOp::kReadModifyWrite:
        is_write = true;
        service_us = read_cost_us() + write_service_us;
        break;
    }

    if (is_write) {
      // The write's bytes flow into the memtable; its service time is
      // the frontend cost embedded in ClientRate, so charge the bytes.
      double need = engine.op_bytes;
      bool live = true;
      while (need > kEps && live) {
        live = engine.WaitWhileStalled(true);
        if (!live) break;
        const double rate =
            engine.ClientRate() * engine.CoreShare(true) * kMB;
        if (rate <= 0) continue;
        double got = 0;
        engine.Step(need / rate, true, &got);
        need -= got;
      }
      // Reads embedded in RMW still cost time on the client core.
      if (op.type == workload::YcsbOp::kReadModifyWrite) {
        engine.AdvanceReadTime(service_us - write_service_us);
      }
      ingested += engine.op_bytes;
    } else {
      engine.AdvanceReadTime(service_us);
    }
  }

  SimResult result = engine.result;
  result.user_bytes = ingested;
  result.elapsed_seconds = engine.now;
  result.throughput_mbps =
      engine.now > 0 ? ingested / kMB / engine.now : 0;
  result.throughput_kops =
      engine.now > 0 ? static_cast<double>(op_count) / 1e3 / engine.now : 0;
  return result;
}

}  // namespace syssim
}  // namespace fcae
