#ifndef FCAE_LSM_COMPACTION_EXECUTOR_H_
#define FCAE_LSM_COMPACTION_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/version_set.h"
#include "util/options.h"
#include "util/status.h"

namespace fcae {

class Iterator;
class TableCache;

namespace obs {
class EventNotifier;
class MetricsRegistry;
class TraceRecorder;
}  // namespace obs

/// Everything an executor needs to run one major (table-merging)
/// compaction. Assembled by the DB under its mutex; executed without it.
struct CompactionJob {
  /// Database options (comparator, env, block size, compression, ...).
  const Options* options = nullptr;

  /// Database directory; output tables are created here.
  std::string dbname;

  /// For opening/validating tables.
  TableCache* table_cache = nullptr;

  const InternalKeyComparator* icmp = nullptr;

  /// The picked compaction: inputs at level and level+1.
  Compaction* compaction = nullptr;

  /// Sequence numbers <= smallest_snapshot that are shadowed by a newer
  /// record for the same user key can be dropped.
  SequenceNumber smallest_snapshot = 0;

  /// True iff no level deeper than level+1 contains data overlapping the
  /// compaction key range, so deletion markers can be dropped. Computed
  /// by the scheduler; used identically by CPU and FPGA executors so
  /// their outputs agree (the per-key LevelDB rule is strictly stronger
  /// but cannot be evaluated inside the device).
  bool no_deeper_data = false;

  /// Sub-compaction shard bounds: when set, the job owns only the
  /// user-key range (lower_bound, upper_bound] of the compaction. The
  /// CPU executor sees them baked into make_input_iterator; the FPGA
  /// executor trims its staged blocks and filters residual records on
  /// the device (fpga::KeyBounds), so both produce the same shard.
  bool has_lower_bound = false;
  bool has_upper_bound = false;
  std::string lower_bound;
  std::string upper_bound;

  /// Thread-safe file number allocator provided by the DB.
  std::function<uint64_t()> new_file_number;

  /// Creates a fresh merged iterator over all compaction inputs
  /// (N-way merge across level and level+1 runs).
  std::function<Iterator*()> make_input_iterator;

  /// Observability (obs/): both optional. When set, executors emit
  /// stage spans (dma_in, decode, merge, encode, verify) to `trace`
  /// and per-module device counters to `metrics`. `trace_tid` is the
  /// logical track for this compaction's spans so concurrent
  /// compactions don't interleave on one chrome://tracing row.
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  uint64_t trace_tid = 0;

  /// Optional event fan-out (obs/event_listener.h). Executors fire
  /// OnOffloadRetry as device attempts fail; the DB fires the rest.
  /// Callbacks run on the executing thread with no DB lock held.
  const obs::EventNotifier* notifier = nullptr;
};

/// Metadata of one output SSTable produced by a compaction.
struct CompactionOutput {
  uint64_t number = 0;
  uint64_t file_size = 0;
  InternalKey smallest;
  InternalKey largest;
  // Whole-file crc32c captured while the output was written (CPU
  // executor) or assembled (offload stager); recorded in the manifest
  // at install so the scrubber has ground truth from day one.
  uint32_t file_checksum = 0;
  bool has_file_checksum = false;
};

/// The one record of a compaction job. Executors fill it per shard, the
/// DB sums the shards and sets `bytes_read` once from the job's input
/// files, and every other view of the job (per-level stats, the
/// db.compaction.* instruments and the host.device attempt, retry and
/// fault counts, span args, CompactionJobInfo) is read from the summed
/// record.
struct CompactionExecStats {
  double micros = 0;           // Wall-clock kernel time.
  int64_t bytes_read = 0;      // Input table bytes, set by the DB.
  int64_t bytes_written = 0;   // Output bytes.
  uint64_t entries_in = 0;     // Input key-value pairs.
  uint64_t entries_dropped = 0;
  bool fell_back = false;  // A device attempt failed; CPU rerun happened.

  // Device-path extras (zero for CPU execution).
  bool offloaded = false;
  uint64_t device_cycles = 0;    // FPGA kernel cycles.
  double device_micros = 0;      // device_cycles / clock rate.
  double pcie_micros = 0;        // Modeled DMA transfer time.

  // Robustness extras (zero for CPU execution and for a fault-free
  // device): see host::FcaeCompactionExecutor's retry/verify pipeline.
  uint64_t device_attempts = 0;   // Kernel attempts (>= 1 per device job).
  uint64_t device_retries = 0;    // Attempts beyond the first.
  uint64_t device_faults = 0;     // Faults observed across attempts.
  uint64_t verify_failures = 0;   // Device outputs rejected by the host.
  // Host stages of an offloaded job, each the wall time of its fan-out
  // over the cores: staging the inputs, verifying device outputs (every
  // attempt, including the filter blocks the verify walk builds), and
  // assembling and opening the output tables.
  double stage_micros = 0;
  double verify_micros = 0;
  double assemble_micros = 0;

  void Add(const CompactionExecStats& other) {
    micros += other.micros;
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    entries_in += other.entries_in;
    entries_dropped += other.entries_dropped;
    fell_back = fell_back || other.fell_back;
    offloaded = offloaded || other.offloaded;
    device_cycles += other.device_cycles;
    device_micros += other.device_micros;
    pcie_micros += other.pcie_micros;
    device_attempts += other.device_attempts;
    device_retries += other.device_retries;
    device_faults += other.device_faults;
    verify_failures += other.verify_failures;
    stage_micros += other.stage_micros;
    verify_micros += other.verify_micros;
    assemble_micros += other.assemble_micros;
  }
};

/// A CompactionExecutor performs the data-merging part of a compaction
/// (paper Fig. 6: "execution" as opposed to "scheduling"). The DB picks
/// inputs and installs results; the executor only reads input tables and
/// produces output tables. Implementations: CPU (baseline) and the
/// FPGA engine offload path.
class CompactionExecutor {
 public:
  CompactionExecutor() = default;
  virtual ~CompactionExecutor() = default;

  CompactionExecutor(const CompactionExecutor&) = delete;
  CompactionExecutor& operator=(const CompactionExecutor&) = delete;

  virtual const char* Name() const = 0;

  /// Returns true if this executor can run the given job (the FPGA
  /// engine is limited to N inputs; see paper Section VI-A).
  virtual bool CanExecute(const CompactionJob& job) const = 0;

  /// Runs the merge, appending produced file metadata to *outputs.
  virtual Status Execute(const CompactionJob& job,
                         std::vector<CompactionOutput>* outputs,
                         CompactionExecStats* stats) = 0;

  /// One-line health/robustness counter dump for
  /// DB::GetProperty("fcae.device-health"). Executors without device
  /// state report nothing.
  virtual std::string HealthString() const { return std::string(); }
};

/// Returns a new single-threaded software merge executor (the paper's
/// CPU baseline, and the fallback when the device cannot take a job).
CompactionExecutor* NewCpuCompactionExecutor();

}  // namespace fcae

#endif  // FCAE_LSM_COMPACTION_EXECUTOR_H_
