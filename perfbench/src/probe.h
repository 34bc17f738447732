// Layer timing for the traced run. Every sample is taken from outside the
// layer: the benchmark times its own calls into the wire client, the engine
// Session, and (through TimedController) the hosted concurrency controller.
// Samples land in per-thread buffers, so the hot path takes no shared lock;
// the first `max_spans` calls are also kept as spans on a SpanTimeline for
// export with WriteTraceFile.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/span.h"
#include "protocol/controller.h"

namespace perfbench {

/// One timed boundary. The span phase name is OpName(op).
enum class Op : int {
  kWireBegin,
  kWireRead,
  kWireWrite,
  kWireCommit,
  kWirePing,
  kSessionBegin,
  kSessionRead,
  kSessionWrite,
  kSessionCommit,
  kCtlBegin,
  kCtlRead,
  kCtlWrite,
  kCtlCommit,
  kCtlAbort,
  kCtlOther,  ///< Register, WriteDone, signal drains, retirement.
  kWalRecover,
  kVerify,
  kCount
};
constexpr int kNumOps = static_cast<int>(Op::kCount);

const char* OpName(Op op);

/// Collects call durations (ns) per Op. Thread-safe. When disabled it
/// reads no clock and records nothing.
class Probe {
 public:
  Probe(bool enabled, int64_t max_spans)
      : enabled_(enabled), id_(next_id_++), span_budget_(max_spans) {}

  bool enabled() const { return enabled_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Start time of a call about to be timed (0 when disabled).
  int64_t Start() const { return enabled_ ? NowNs() : 0; }

  /// Records one call of `op` that started at `start_ns` (NowNs clock) and
  /// ended now. `lane` groups spans of one transaction in the export.
  void Record(Op op, int64_t start_ns, int lane, int attempt, bool ok);

  /// Controller outcome tally: a kBlocked answer (the caller parks).
  void CountBlocked();

  /// Merged samples of `op`, in no particular order.
  std::vector<int64_t> Samples(Op op) const;
  int64_t TotalNs(Op op) const;
  int64_t Count(Op op) const;
  int64_t blocked() const;

  nonserial::SpanTimeline& timeline() { return timeline_; }

 private:
  struct Buffer {
    std::array<std::vector<int64_t>, kNumOps> samples;
    int64_t blocked = 0;
  };
  Buffer* ThisThreadBuffer();

  static inline std::atomic<uint64_t> next_id_{1};
  const bool enabled_;
  const uint64_t id_;  ///< Tells this probe's thread buffers from others'.
  std::atomic<int64_t> span_budget_;
  nonserial::SpanTimeline timeline_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// A forwarding ConcurrencyController that times every call into the
/// controller it wraps. Installed through EngineOptions::controller_factory
/// in the traced run only; it changes no decision of the inner controller.
class TimedController : public nonserial::ConcurrencyController {
 public:
  TimedController(std::unique_ptr<nonserial::ConcurrencyController> inner,
                  Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  void Register(int tx, nonserial::TxProfile profile) override;
  nonserial::ReqResult Begin(int tx) override;
  nonserial::ReqResult Read(int tx, nonserial::EntityId e,
                            nonserial::Value* out) override;
  nonserial::ReqResult Write(int tx, nonserial::EntityId e,
                             nonserial::Value value) override;
  void WriteDone(int tx, nonserial::EntityId e) override;
  nonserial::ReqResult Commit(int tx) override;
  void Abort(int tx) override;
  std::vector<int> TakeWakeups() override;
  std::vector<int> TakeForcedAborts() override;
  bool Retire(int tx) override;
  bool IsRetired(int tx) const override { return inner_->IsRetired(tx); }
  void SetObserver(nonserial::TraceSink* sink) override {
    inner_->SetObserver(sink);
  }

 private:
  nonserial::ReqResult Outcome(Op op, int64_t start, int tx,
                               nonserial::ReqResult r);

  std::unique_ptr<nonserial::ConcurrencyController> inner_;
  Probe* probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
