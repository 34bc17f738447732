#include "probe.h"

namespace perfbench {

using nonserial::EntityId;
using nonserial::ReqResult;
using nonserial::Value;

const char* OpName(Op op) {
  static const char* const kNames[kNumOps] = {
      "wire.begin",     "wire.read",      "wire.write",    "wire.commit",
      "wire.ping",      "session.begin",  "session.read",  "session.write",
      "session.commit", "protocol.begin", "protocol.read", "protocol.write",
      "protocol.commit", "protocol.abort", "protocol.other", "wal.recover",
      "core.verify"};
  return kNames[static_cast<int>(op)];
}

Probe::Buffer* Probe::ThisThreadBuffer() {
  // One buffer per (thread, probe). The owner check is by id, not address,
  // so a thread that last recorded into a destroyed probe never reuses its
  // buffer.
  thread_local uint64_t owner = 0;
  thread_local Buffer* buffer = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    owner = id_;
  }
  return buffer;
}

void Probe::Record(Op op, int64_t start_ns, int lane, int attempt, bool ok) {
  if (!enabled_) return;
  int64_t end_ns = NowNs();
  ThisThreadBuffer()->samples[static_cast<int>(op)].push_back(end_ns -
                                                              start_ns);
  if (span_budget_.load(std::memory_order_relaxed) <= 0 ||
      span_budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    return;
  }
  nonserial::PhaseSpan span;
  span.lane = lane;
  span.attempt = attempt;
  span.phase = OpName(op);
  span.dur_us = (end_ns - start_ns) / 1000;
  span.start_us = timeline_.ElapsedUs() - span.dur_us;
  span.ok = ok;
  timeline_.Add(span);
}

void Probe::CountBlocked() { ++ThisThreadBuffer()->blocked; }

std::vector<int64_t> Probe::Samples(Op op) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> out;
  for (const auto& b : buffers_) {
    const auto& s = b->samples[static_cast<int>(op)];
    out.insert(out.end(), s.begin(), s.end());
  }
  return out;
}

int64_t Probe::TotalNs(Op op) const {
  int64_t total = 0;
  for (int64_t ns : Samples(op)) total += ns;
  return total;
}

int64_t Probe::Count(Op op) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& b : buffers_) n += b->samples[static_cast<int>(op)].size();
  return n;
}

int64_t Probe::blocked() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& b : buffers_) n += b->blocked;
  return n;
}

ReqResult TimedController::Outcome(Op op, int64_t start, int tx,
                                   ReqResult r) {
  probe_->Record(op, start, tx, 0, r != ReqResult::kAborted);
  if (r == ReqResult::kBlocked) probe_->CountBlocked();
  return r;
}

void TimedController::Register(int tx, nonserial::TxProfile profile) {
  int64_t start = Probe::NowNs();
  inner_->Register(tx, std::move(profile));
  probe_->Record(Op::kCtlOther, start, tx, 0, true);
}

ReqResult TimedController::Begin(int tx) {
  int64_t start = Probe::NowNs();
  return Outcome(Op::kCtlBegin, start, tx, inner_->Begin(tx));
}

ReqResult TimedController::Read(int tx, EntityId e, Value* out) {
  int64_t start = Probe::NowNs();
  return Outcome(Op::kCtlRead, start, tx, inner_->Read(tx, e, out));
}

ReqResult TimedController::Write(int tx, EntityId e, Value value) {
  int64_t start = Probe::NowNs();
  return Outcome(Op::kCtlWrite, start, tx, inner_->Write(tx, e, value));
}

void TimedController::WriteDone(int tx, EntityId e) {
  int64_t start = Probe::NowNs();
  inner_->WriteDone(tx, e);
  probe_->Record(Op::kCtlOther, start, tx, 0, true);
}

ReqResult TimedController::Commit(int tx) {
  int64_t start = Probe::NowNs();
  return Outcome(Op::kCtlCommit, start, tx, inner_->Commit(tx));
}

void TimedController::Abort(int tx) {
  int64_t start = Probe::NowNs();
  inner_->Abort(tx);
  probe_->Record(Op::kCtlAbort, start, tx, 0, false);
}

std::vector<int> TimedController::TakeWakeups() {
  int64_t start = Probe::NowNs();
  std::vector<int> out = inner_->TakeWakeups();
  probe_->Record(Op::kCtlOther, start, -1, 0, true);
  return out;
}

std::vector<int> TimedController::TakeForcedAborts() {
  int64_t start = Probe::NowNs();
  std::vector<int> out = inner_->TakeForcedAborts();
  probe_->Record(Op::kCtlOther, start, -1, 0, true);
  return out;
}

bool TimedController::Retire(int tx) {
  int64_t start = Probe::NowNs();
  bool retired = inner_->Retire(tx);
  probe_->Record(Op::kCtlOther, start, tx, 0, true);
  return retired;
}

}  // namespace perfbench
