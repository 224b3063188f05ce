#ifndef FCAE_UTIL_WRITE_CONTROLLER_H_
#define FCAE_UTIL_WRITE_CONTROLLER_H_

#include <cstdint>

namespace fcae {

/// Tuning knobs for the write-backpressure model (DESIGN.md §10). The
/// zero-argument defaults reproduce the classic LevelDB triggers
/// (slowdown at 8 L0 files, stop at 12); DBImpl fills them from the
/// sanitized Options and syssim from SimConfig, so engine and simulator
/// share one model.
struct WriteControllerConfig {
  int l0_slowdown_trigger = 8;
  int l0_stop_trigger = 12;

  /// Pending-compaction-bytes debt band: below `soft` the backlog is
  /// free; between `soft` and `hard` it contributes linearly to the
  /// debt score; at `hard` writes are delayed at the maximum ramp.
  /// 0 disables the pending-bytes signal.
  uint64_t soft_pending_compaction_bytes = 0;
  uint64_t hard_pending_compaction_bytes = 0;

  /// Global memory budget across the live and immutable memtables;
  /// 0 means unbudgeted (classic per-memtable behaviour only).
  uint64_t total_write_buffer_size = 0;

  /// Per-write delay ramp: debt 0+ costs `min_delay_micros`, debt 1.0
  /// costs `max_delay_micros`, quadratic in between so light debt stays
  /// cheap. The classic fixed 1 ms sleep sits inside this band (debt
  /// ~0.2 prices at about 1 ms with the defaults).
  uint64_t min_delay_micros = 250;
  uint64_t max_delay_micros = 20 * 1000;
};

/// A point-in-time sample of the signals the controller prices.
struct WriteStallConditions {
  int l0_files = 0;
  uint64_t pending_compaction_bytes = 0;
  /// Live + immutable memtable bytes (the global budget's measure).
  uint64_t memtable_bytes = 0;
  bool imm_in_flight = false;
};

/// Computes write-stall state and per-write delays from compaction debt
/// (RocksDB WriteController-style). Pure and single-threaded by design:
/// DBImpl calls it under the DB mutex with the Env clock, the simulator
/// with simulated time, and tests with a fake clock — all bit-identical.
///
/// State machine:
///   kOk      — no debt; writes are admitted immediately.
///   kDelayed — debt in (0, 1): each write pays DelayMicrosForDebt(debt),
///              spaced through a credit ledger (GetDelayMicros) so write
///              bursts spread out instead of stacking one fixed sleep.
///   kStopped — L0 at the stop trigger or the memory budget exhausted
///              with a flush in flight: the caller must block on its
///              condvar until background work installs.
class WriteController {
 public:
  enum class State { kOk, kDelayed, kStopped };

  explicit WriteController(const WriteControllerConfig& config)
      : config_(config) {}

  /// Re-prices the stall state from a fresh debt sample. Cheap; called
  /// per MakeRoomForWrite pass.
  State Update(const WriteStallConditions& cond);

  State state() const { return state_; }
  double debt() const { return debt_; }
  const WriteControllerConfig& config() const { return config_; }

  /// Returns how long the write arriving at `now_micros` must be
  /// delayed. The credit ledger spaces consecutive writes at the
  /// debt-derived interval: a lone write pays one interval, a burst
  /// queues behind the ledger, and the total owed is capped at
  /// max_delay_micros so a stale ledger cannot punish a fresh write.
  /// Returns 0 unless the state is kDelayed.
  uint64_t GetDelayMicros(uint64_t now_micros);

  /// Debt score in [0, 1]: the max of the L0-file and pending-bytes
  /// components. 1.0 means "at the stop trigger". Static so the
  /// simulator can price hypothetical shapes without an instance.
  static double DebtScore(const WriteStallConditions& cond,
                          const WriteControllerConfig& config);

  /// The per-write delay the ramp assigns to a debt score (quadratic
  /// between min_delay and max_delay). Shared with syssim's client-rate
  /// model, replacing its hard-coded 1 ms slowdown.
  static uint64_t DelayMicrosForDebt(double debt,
                                     const WriteControllerConfig& config);

 private:
  const WriteControllerConfig config_;
  State state_ = State::kOk;
  double debt_ = 0;
  uint64_t next_request_micros_ = 0;
};

}  // namespace fcae

#endif  // FCAE_UTIL_WRITE_CONTROLLER_H_
