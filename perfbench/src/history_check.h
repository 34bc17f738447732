// The benchmark's own description of its transactions and an independent
// checker for the histories they leave in the write-ahead log. Nothing here
// calls core/verify or evaluates a library Predicate: input conditions are
// kept in the benchmark's own form (Formula) and evaluated with its own
// comparisons; the library Predicate handed to the engine is built from it.
#ifndef PERFBENCH_HISTORY_CHECK_H_
#define PERFBENCH_HISTORY_CHECK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "predicate/predicate.h"
#include "predicate/value.h"
#include "storage/wal.h"

namespace perfbench {

using nonserial::EntityId;
using nonserial::Value;
using nonserial::ValueVector;

/// Values a mixing write produces lie in [0, kValueRange).
constexpr Value kValueRange = 1000;

enum class Cmp { kEq, kNe, kLt, kLe, kGt, kGe };

/// `entity cmp rhs`, where rhs is an entity id (rhs_entity) or a constant.
struct Cond {
  EntityId entity;
  Cmp cmp;
  bool rhs_entity;
  Value rhs;
};
using Disjunction = std::vector<Cond>;
/// A conjunction of disjunctions (the shape of an I_t).
using Formula = std::vector<Disjunction>;

bool Holds(const Formula& formula, const ValueVector& state);
/// The same formula as a library Predicate, for the engine and the wire.
nonserial::Predicate ToPredicate(const Formula& formula);
/// `lo <= e < hi` as two one-atom clauses.
void AddRange(EntityId e, Value lo, Value hi, Formula* formula);

/// One kind of transaction: reads `reads` in order under `input`, then
/// writes the values WritesFor computes from what it read.
struct TxTemplate {
  enum class Fn {
    /// One write to `writes[0]`: a mix of the values read, in range.
    kMix,
    /// writes[0] = reads[0] + 1 (a counter), writes[1] = an audit record
    /// of the counter's old value and id (a register, last writer wins).
    kIncrement
  };
  std::string name;
  std::vector<EntityId> reads;
  Formula input;
  std::vector<EntityId> writes;
  Fn fn = Fn::kMix;
};

/// The benchmark's write function: program-order (entity, value) pairs.
std::vector<std::pair<EntityId, Value>> WritesFor(
    const TxTemplate& tpl, const std::vector<Value>& read_values);

/// A transaction the client saw commit, with the values it observed.
struct AckedTx {
  int tx = -1;
  int tpl = -1;
  std::vector<Value> reads;
};

/// A transaction the log says committed. `has_input` when the log carries
/// its input state and feeders (CEP payloads); otherwise only its writes
/// (MVTO logs version installs and commit markers alone).
struct LoggedTx {
  int tx = -1;
  std::string name;
  bool has_input = false;
  ValueVector input_state;
  std::vector<int> feeders;
  std::vector<std::pair<EntityId, Value>> writes;
};

/// Everything one episode leaves behind for checking.
struct History {
  std::vector<TxTemplate> templates;
  ValueVector initial;
  Formula constraint;
  std::vector<AckedTx> acked;  ///< In ack order.
  std::vector<LoggedTx> logged;
  ValueVector recovered_final;
  ValueVector live_final;
  /// Single-session counter workloads: the final state must equal the
  /// initial state replayed with the acked transactions in ack order.
  bool replay_final = false;
};

/// Builds History::logged from a recovery pass (CEP: payload records).
std::vector<LoggedTx> FromRecovery(const nonserial::RecoveryResult& rec);
/// Builds History::logged from raw log records (commit markers + appends),
/// for controllers that log no payload.
std::vector<LoggedTx> FromRecords(
    const std::vector<nonserial::WalRecord>& records);

enum class Check {
  kNone,
  kCommitSet,       ///< Logged commits == acked commits (ids and names).
  kInputCondition,  ///< Each input state satisfies the template's I_t.
  kWriteFunction,   ///< Logged writes == WritesFor(values read).
  kReadsFrom,       ///< Each value read is initial or a feeder's write.
  kFinalState,      ///< Recovered final == live final, constraint holds.
  kReplay           ///< Final == initial + acked transactions (replay_final).
};
const char* CheckName(Check check);

struct CheckResult {
  Check failed = Check::kNone;
  std::string detail;
  bool ok() const { return failed == Check::kNone; }
};

/// Runs every check, each over the whole history, in the order of Check;
/// reports the first that fails.
CheckResult CheckHistory(const History& history);

/// Corrupts one record of `clean` (which must pass) per check and requires
/// that exactly that check rejects it. Prints one line per check to
/// stdout. `clean` needs logged input states (a CEP history) unless it
/// is a replay_final history, which exercises kReplay instead.
bool SelfTest(const History& clean);

}  // namespace perfbench

#endif  // PERFBENCH_HISTORY_CHECK_H_
