#include "history_check.h"

#include <cstdio>
#include <map>
#include <set>

namespace perfbench {
namespace {

bool Compare(Value lhs, Cmp cmp, Value rhs) {
  switch (cmp) {
    case Cmp::kEq:
      return lhs == rhs;
    case Cmp::kNe:
      return lhs != rhs;
    case Cmp::kLt:
      return lhs < rhs;
    case Cmp::kLe:
      return lhs <= rhs;
    case Cmp::kGt:
      return lhs > rhs;
    case Cmp::kGe:
      return lhs >= rhs;
  }
  return false;
}

nonserial::CompareOp LibraryOp(Cmp cmp) {
  switch (cmp) {
    case Cmp::kEq:
      return nonserial::CompareOp::kEq;
    case Cmp::kNe:
      return nonserial::CompareOp::kNe;
    case Cmp::kLt:
      return nonserial::CompareOp::kLt;
    case Cmp::kLe:
      return nonserial::CompareOp::kLe;
    case Cmp::kGt:
      return nonserial::CompareOp::kGt;
    case Cmp::kGe:
      return nonserial::CompareOp::kGe;
  }
  return nonserial::CompareOp::kEq;
}

std::string Describe(int tx, const std::string& what) {
  return "tx " + std::to_string(tx) + ": " + what;
}

/// The values `tx` read, in template read order: from the logged input
/// state when the log has one, else from the client's record.
std::vector<Value> ReadValues(const TxTemplate& tpl, const LoggedTx& logged,
                              const AckedTx& acked) {
  if (!logged.has_input) return acked.reads;
  std::vector<Value> out;
  for (EntityId e : tpl.reads) out.push_back(logged.input_state[e]);
  return out;
}

}  // namespace

bool Holds(const Formula& formula, const ValueVector& state) {
  for (const Disjunction& any : formula) {
    bool sat = false;
    for (const Cond& c : any) {
      Value rhs = c.rhs_entity ? state[c.rhs] : c.rhs;
      if (Compare(state[c.entity], c.cmp, rhs)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

nonserial::Predicate ToPredicate(const Formula& formula) {
  nonserial::Predicate p;
  for (const Disjunction& any : formula) {
    nonserial::Clause clause;
    for (const Cond& c : any) {
      clause.AddAtom(c.rhs_entity
                         ? nonserial::EntityVsEntity(c.entity, LibraryOp(c.cmp),
                                                     static_cast<EntityId>(c.rhs))
                         : nonserial::EntityVsConst(c.entity, LibraryOp(c.cmp),
                                                    c.rhs));
    }
    p.AddClause(std::move(clause));
  }
  return p;
}

void AddRange(EntityId e, Value lo, Value hi, Formula* formula) {
  formula->push_back({Cond{e, Cmp::kGe, false, lo}});
  formula->push_back({Cond{e, Cmp::kLt, false, hi}});
}

std::vector<std::pair<EntityId, Value>> WritesFor(
    const TxTemplate& tpl, const std::vector<Value>& read_values) {
  switch (tpl.fn) {
    case TxTemplate::Fn::kMix: {
      Value mix = tpl.writes[0] + 1;
      for (size_t i = 0; i < read_values.size(); ++i) {
        mix += read_values[i] * static_cast<Value>(2 * i + 3);
      }
      return {{tpl.writes[0], mix % kValueRange}};
    }
    case TxTemplate::Fn::kIncrement:
      return {{tpl.writes[0], read_values[0] + 1},
              {tpl.writes[1], read_values[0] * 8 + tpl.reads[0]}};
  }
  return {};
}

std::vector<LoggedTx> FromRecovery(const nonserial::RecoveryResult& rec) {
  std::vector<LoggedTx> out;
  for (const nonserial::RecoveredTx& t : rec.committed) {
    LoggedTx logged;
    logged.tx = t.tx;
    logged.name = t.name;
    logged.has_input = true;
    logged.input_state = t.input_state;
    logged.feeders = t.feeders;
    logged.writes = t.writes;
    out.push_back(std::move(logged));
  }
  return out;
}

std::vector<LoggedTx> FromRecords(
    const std::vector<nonserial::WalRecord>& records) {
  using Kind = nonserial::WalRecord::Kind;
  std::map<int, std::vector<std::pair<EntityId, Value>>> pending;
  std::vector<LoggedTx> out;
  for (const nonserial::WalRecord& r : records) {
    switch (r.kind) {
      case Kind::kAppend:
        pending[r.writer].emplace_back(r.entity, r.value);
        break;
      case Kind::kRollback:
        pending.erase(r.writer);
        break;
      case Kind::kCommit: {
        LoggedTx logged;
        logged.tx = r.writer;
        logged.writes = std::move(pending[r.writer]);
        pending.erase(r.writer);
        out.push_back(std::move(logged));
        break;
      }
      case Kind::kCrash:
        pending.clear();
        break;
      case Kind::kTxPayload:
      case Kind::kCommitToken:
        break;
    }
  }
  return out;
}

const char* CheckName(Check check) {
  switch (check) {
    case Check::kNone:
      return "none";
    case Check::kCommitSet:
      return "commit-set";
    case Check::kInputCondition:
      return "input-condition";
    case Check::kWriteFunction:
      return "write-function";
    case Check::kReadsFrom:
      return "reads-from";
    case Check::kFinalState:
      return "final-state";
    case Check::kReplay:
      return "replay";
  }
  return "?";
}

CheckResult CheckHistory(const History& h) {
  auto fail = [](Check check, std::string detail) {
    return CheckResult{check, std::move(detail)};
  };

  // Commit set: the same ids on both sides, each once, with matching names.
  std::map<int, const AckedTx*> acked;
  for (const AckedTx& a : h.acked) {
    if (!acked.emplace(a.tx, &a).second) {
      return fail(Check::kCommitSet, Describe(a.tx, "acked twice"));
    }
  }
  std::map<int, const LoggedTx*> logged;
  for (const LoggedTx& l : h.logged) {
    if (!logged.emplace(l.tx, &l).second) {
      return fail(Check::kCommitSet, Describe(l.tx, "logged twice"));
    }
    auto it = acked.find(l.tx);
    if (it == acked.end()) {
      return fail(Check::kCommitSet, Describe(l.tx, "logged, never acked"));
    }
    const std::string& name = h.templates[it->second->tpl].name;
    if (!l.name.empty() && l.name != name) {
      return fail(Check::kCommitSet,
                  Describe(l.tx, "logged as " + l.name + ", acked as " + name));
    }
  }
  for (const AckedTx& a : h.acked) {
    if (logged.count(a.tx) == 0) {
      return fail(Check::kCommitSet, Describe(a.tx, "acked, not logged"));
    }
  }

  // Input condition over the logged input state.
  for (const LoggedTx& l : h.logged) {
    const TxTemplate& tpl = h.templates[acked[l.tx]->tpl];
    if (l.has_input && !Holds(tpl.input, l.input_state)) {
      return fail(Check::kInputCondition,
                  Describe(l.tx, "input state violates I_t of " + tpl.name));
    }
  }

  // Logged writes are the benchmark's function of the values read.
  for (const LoggedTx& l : h.logged) {
    const AckedTx& a = *acked[l.tx];
    const TxTemplate& tpl = h.templates[a.tpl];
    if (l.writes != WritesFor(tpl, ReadValues(tpl, l, a))) {
      return fail(Check::kWriteFunction,
                  Describe(l.tx, "logged writes differ from " + tpl.name +
                                     "(values read)"));
    }
  }

  // Reads-from: every value read is initial or written by a committed
  // feeder (any committed writer when the log lists no feeders), and the
  // client observed exactly the logged input.
  std::map<int, std::set<std::pair<EntityId, Value>>> wrote;
  std::set<std::pair<EntityId, Value>> any_wrote;
  for (const LoggedTx& l : h.logged) {
    wrote[l.tx].insert(l.writes.begin(), l.writes.end());
    any_wrote.insert(l.writes.begin(), l.writes.end());
  }
  for (const LoggedTx& l : h.logged) {
    const AckedTx& a = *acked[l.tx];
    const TxTemplate& tpl = h.templates[a.tpl];
    std::vector<Value> values = ReadValues(tpl, l, a);
    if (values != a.reads) {
      return fail(Check::kReadsFrom,
                  Describe(l.tx, "client read values differ from the log"));
    }
    for (int f : l.feeders) {
      if (logged.count(f) == 0) {
        return fail(Check::kReadsFrom,
                    Describe(l.tx, "feeder " + std::to_string(f) +
                                       " did not commit"));
      }
    }
    for (size_t i = 0; i < tpl.reads.size(); ++i) {
      std::pair<EntityId, Value> read{tpl.reads[i], values[i]};
      if (read.second == h.initial[read.first]) continue;
      bool fed = false;
      if (l.has_input) {
        for (int f : l.feeders) fed = fed || wrote[f].count(read) > 0;
      } else {
        fed = any_wrote.count(read) > 0;
      }
      if (!fed) {
        return fail(Check::kReadsFrom,
                    Describe(l.tx, "read " + std::to_string(read.second) +
                                       " of entity " +
                                       std::to_string(read.first) +
                                       " that no feeder wrote"));
      }
    }
  }

  // Final state: recovery reproduces the live store, and it is consistent.
  if (h.recovered_final != h.live_final) {
    return fail(Check::kFinalState, "recovered final state != live store");
  }
  if (!Holds(h.constraint, h.recovered_final)) {
    return fail(Check::kFinalState, "final state violates the constraint");
  }

  if (h.replay_final) {
    ValueVector expected = h.initial;
    for (const AckedTx& a : h.acked) {
      const TxTemplate& tpl = h.templates[a.tpl];
      for (const auto& [e, v] : WritesFor(tpl, a.reads)) {
        bool counter =
            tpl.fn == TxTemplate::Fn::kIncrement && e == tpl.reads[0];
        expected[e] = counter ? expected[e] + 1 : v;
      }
    }
    if (expected != h.recovered_final) {
      return fail(Check::kReplay,
                  "final state != initial + acked increments");
    }
  }
  return {};
}

bool SelfTest(const History& clean) {
  CheckResult base = CheckHistory(clean);
  if (!base.ok() || clean.logged.empty()) {
    std::printf("selftest: clean history rejected (%s: %s)\n",
                CheckName(base.failed), base.detail.c_str());
    return false;
  }
  bool ok = true;
  auto expect = [&](Check check, const History& corrupt, const char* what) {
    CheckResult r = CheckHistory(corrupt);
    bool pass = r.failed == check;
    ok &= pass;
    std::printf("selftest %-15s %-44s -> %s (%s)\n", CheckName(check), what,
                pass ? "rejected" : "NOT REJECTED", r.detail.c_str());
  };
  // Corrupt a record in the middle of the history.
  const size_t mid = clean.logged.size() / 2;

  {
    History h = clean;
    h.logged.erase(h.logged.begin() + mid);
    expect(Check::kCommitSet, h, "drop one logged commit");
  }
  {
    History h = clean;
    auto& w = h.logged[mid].writes[0].second;
    w = clean.replay_final ? w + 1 : (w + 1) % kValueRange;
    expect(Check::kWriteFunction, h, "alter one logged write value");
  }
  if (clean.replay_final) {
    History h = clean;
    EntityId e = h.templates[h.acked[mid].tpl].reads[0];
    h.recovered_final[e] += 1;
    h.live_final[e] += 1;
    expect(Check::kReplay, h, "add one increment to the final state");
  } else {
    {
      History h = clean;
      LoggedTx& l = h.logged[mid];
      const AckedTx* a = nullptr;
      for (const AckedTx& x : h.acked) {
        if (x.tx == l.tx) a = &x;
      }
      l.input_state[h.templates[a->tpl].reads[0]] = -1;
      expect(Check::kInputCondition, h, "set a logged input value to -1");
    }
    {
      // An in-range value nobody wrote, with the writes and the client's
      // record made consistent with it: only provenance can catch it.
      History h = clean;
      LoggedTx& l = h.logged[mid];
      AckedTx* a = nullptr;
      for (AckedTx& x : h.acked) {
        if (x.tx == l.tx) a = &x;
      }
      const TxTemplate& tpl = h.templates[a->tpl];
      EntityId e = tpl.reads[0];
      std::set<Value> seen{h.initial[e]};
      for (const LoggedTx& other : h.logged) {
        for (const auto& [we, wv] : other.writes) {
          if (we == e) seen.insert(wv);
        }
      }
      Value fresh = 0;
      while (seen.count(fresh) > 0) ++fresh;
      l.input_state[e] = fresh;
      a->reads[0] = fresh;
      l.writes = WritesFor(tpl, a->reads);
      expect(Check::kReadsFrom, h, "swap a read for a value nobody wrote");
    }
  }
  {
    History h = clean;
    h.recovered_final[0] += 1;
    expect(Check::kFinalState, h, "alter one recovered final value");
  }
  return ok;
}

}  // namespace perfbench
