#include "workloads.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "common/random.h"
#include "core/verify.h"
#include "engine/engine.h"
#include "history_check.h"
#include "probe.h"
#include "scenario/protocols.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {
namespace {

using nonserial::Status;
using nonserial::StatusCode;
using nonserial::StatusOr;

/// Attempts per logical transaction before it counts as failed. A protocol
/// abort that is retried within this budget is not a failure.
constexpr int kMaxAttempts = 100;
/// Spans kept for the exported timeline (the per-layer metrics use every
/// sample regardless).
constexpr int64_t kMaxSpans = 50'000;
/// Pings per client after a traced wire episode.
constexpr int kPingsPerClient = 200;
/// Traced CEP runs verify the first few episodes with core/verify; each
/// episode's history is the same size, so more would only repeat the figure.
constexpr int kVerifiedEpisodes = 3;

// ---------------------------------------------------------------------------
// Workload definitions

struct WorkloadSpec {
  std::string name;
  bool wire = false;
  bool mvto = false;
  int clients = 1;
  int tx_per_client = 0;  ///< Logical transactions per client per episode.
  ValueVector initial;
  std::vector<TxTemplate> templates;
  std::vector<std::vector<int>> client_templates;  ///< Choices per client.
  Formula constraint;
};

/// wire_private: client c owns entities 2c and 2c+1; each transaction reads
/// both and writes one of them (seeded choice), over TCP.
WorkloadSpec WirePrivate(nonserial::Rng* rng, int clients) {
  WorkloadSpec s;
  s.name = "wire_private";
  s.wire = true;
  s.clients = clients;
  s.tx_per_client = 2'000;
  for (int c = 0; c < clients; ++c) {
    EntityId e0 = 2 * c, e1 = 2 * c + 1;
    Formula input;
    AddRange(e0, 0, kValueRange, &input);
    AddRange(e1, 0, kValueRange, &input);
    s.client_templates.push_back({});
    for (EntityId target : {e0, e1}) {
      TxTemplate t;
      t.name = "pair" + std::to_string(c) + "_w" + std::to_string(target);
      t.reads = {e0, e1};
      t.input = input;
      t.writes = {target};
      s.client_templates.back().push_back(s.templates.size());
      s.templates.push_back(std::move(t));
    }
    s.constraint.insert(s.constraint.end(), input.begin(), input.end());
  }
  for (int e = 0; e < 2 * clients; ++e) {
    s.initial.push_back(rng->UniformInt(0, kValueRange - 1));
  }
  return s;
}

constexpr int kHotEntities = 6;

/// session_hot: 12 templates over a 6-entity hot set, each reading three
/// entities under range clauses plus two cross-entity disjunctions, and
/// writing one of the three. Every client picks any template.
WorkloadSpec SessionHot(nonserial::Rng* rng, int clients) {
  WorkloadSpec s;
  s.name = "session_hot";
  s.clients = clients;
  s.tx_per_client = 1'000;
  for (int k = 0; k < 2 * kHotEntities; ++k) {
    int stride = k < kHotEntities ? 1 : 2;
    EntityId a = k % kHotEntities;
    EntityId b = (a + stride) % kHotEntities;
    EntityId c = (a + stride + 2) % kHotEntities;
    TxTemplate t;
    t.name = "hot" + std::to_string(k);
    t.reads = {a, b, c};
    for (EntityId e : t.reads) AddRange(e, 0, kValueRange, &t.input);
    // No three values can be strictly cyclic, so these always hold; they
    // make validation evaluate cross-entity atoms and disjunctions.
    t.input.push_back({Cond{a, Cmp::kLe, true, b}, Cond{b, Cmp::kLe, true, c},
                       Cond{c, Cmp::kLe, true, a}});
    t.input.push_back({Cond{a, Cmp::kGe, true, b}, Cond{b, Cmp::kGe, true, c},
                       Cond{c, Cmp::kGe, true, a}});
    t.writes = {t.reads[k % 3]};
    s.templates.push_back(std::move(t));
  }
  std::vector<int> all(s.templates.size());
  std::iota(all.begin(), all.end(), 0);
  s.client_templates.assign(clients, all);
  for (int e = 0; e < kHotEntities; ++e) {
    s.initial.push_back(rng->UniformInt(0, kValueRange - 1));
    AddRange(e, 0, kValueRange, &s.constraint);
  }
  return s;
}

constexpr int kCounters = 4;

/// mvto_long_haul: one session increments one of 4 counters per
/// transaction and records the old value in an audit register (entity 4):
/// one read, two writes, no predicates.
WorkloadSpec MvtoLongHaul(nonserial::Rng* rng, int clients) {
  WorkloadSpec s;
  s.name = "mvto_long_haul";
  s.mvto = true;
  s.clients = clients;
  s.tx_per_client = 2'000;
  const EntityId audit = kCounters;
  std::vector<int> all;
  for (EntityId e = 0; e < kCounters; ++e) {
    TxTemplate t;
    t.name = "inc" + std::to_string(e);
    t.reads = {e};
    t.writes = {e, audit};
    t.fn = TxTemplate::Fn::kIncrement;
    all.push_back(s.templates.size());
    s.templates.push_back(std::move(t));
    s.initial.push_back(rng->UniformInt(0, kValueRange - 1));
    s.constraint.push_back({Cond{e, Cmp::kGe, false, 0}});
  }
  s.initial.push_back(0);
  s.client_templates.assign(clients, all);
  return s;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "wire_private", "session_hot", "mvto_long_haul"};
  return kNames;
}

namespace {

WorkloadSpec MakeSpec(const std::string& name, uint64_t seed, int clients) {
  nonserial::Rng rng(seed);
  if (name == "wire_private") return WirePrivate(&rng, clients ? clients : 4);
  if (name == "session_hot") return SessionHot(&rng, clients ? clients : 4);
  return MvtoLongHaul(&rng, clients ? clients : 1);
}

// ---------------------------------------------------------------------------
// Clients

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// True if the logical transaction should start another attempt: after a
/// protocol abort, or (after a short back-off) an admission shed.
bool Retryable(const Status& s) {
  if (s.code() == StatusCode::kResourceExhausted) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return true;
  }
  return s.code() == StatusCode::kAborted;
}

/// The client-visible handle of one in-process session.
class SessionHandle {
 public:
  SessionHandle(nonserial::Engine* engine,
                const std::vector<nonserial::engine::TxSpec>* specs,
                Probe* probe)
      : session_(engine->OpenSession()), specs_(specs), probe_(probe) {}

  Status Begin(int tpl, int attempt) {
    int64_t start = probe_->Start();
    Status s = session_->Begin((*specs_)[tpl]);
    Record(Op::kSessionBegin, start, attempt);
    return s;
  }
  StatusOr<Value> Read(EntityId e, int attempt) {
    int64_t start = probe_->Start();
    StatusOr<Value> v = session_->Read(e);
    Record(Op::kSessionRead, start, attempt);
    return v;
  }
  Status Write(EntityId e, Value v, int attempt) {
    int64_t start = probe_->Start();
    Status s = session_->Write(e, v);
    Record(Op::kSessionWrite, start, attempt);
    return s;
  }
  Status Commit(int attempt) {
    int64_t start = probe_->Start();
    Status s = session_->Commit();
    Record(Op::kSessionCommit, start, attempt);
    return s;
  }
  int tx() const { return session_->tx(); }
  void Close() { session_.reset(); }

 private:
  void Record(Op op, int64_t start, int attempt) {
    probe_->Record(op, start, tx(), attempt, true);
  }

  std::unique_ptr<nonserial::Session> session_;
  const std::vector<nonserial::engine::TxSpec>* specs_;
  Probe* probe_;
};

/// The client-visible handle of one TCP connection (one server session).
class WireHandle {
 public:
  WireHandle(const std::vector<TxTemplate>* templates, Probe* probe)
      : templates_(templates), probe_(probe) {}

  Status Connect(int port, const Formula& input) {
    Status s = client_.Connect("127.0.0.1", port);
    if (!s.ok()) return s;
    return client_.StagePredicates(ToPredicate(input),
                                   nonserial::Predicate::True());
  }
  Status Begin(int tpl, int attempt) {
    int64_t start = probe_->Start();
    StatusOr<int> tx = client_.BeginStaged((*templates_)[tpl].name, {});
    if (tx.ok()) tx_ = *tx;
    Record(Op::kWireBegin, start, attempt);
    return tx.status();
  }
  StatusOr<Value> Read(EntityId e, int attempt) {
    int64_t start = probe_->Start();
    StatusOr<Value> v = client_.Read(e);
    Record(Op::kWireRead, start, attempt);
    return v;
  }
  Status Write(EntityId e, Value v, int attempt) {
    int64_t start = probe_->Start();
    Status s = client_.Write(e, v);
    Record(Op::kWireWrite, start, attempt);
    return s;
  }
  Status Commit(int attempt) {
    int64_t start = probe_->Start();
    Status s = client_.Commit();
    Record(Op::kWireCommit, start, attempt);
    return s;
  }
  bool Ping(int i) {
    int64_t start = probe_->Start();
    bool ok = client_.Ping(i).ok();
    Record(Op::kWirePing, start, 0);
    return ok;
  }
  int tx() const { return tx_; }
  void Close() { client_.Disconnect(); }

 private:
  void Record(Op op, int64_t start, int attempt) {
    probe_->Record(op, start, tx_, attempt, true);
  }

  nonserial::Client client_;
  const std::vector<TxTemplate>* templates_;
  Probe* probe_;
  int tx_ = -1;
};

struct ClientResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<int64_t> latency_ns;  ///< Committed logical transactions.
  std::vector<AckedTx> acked;
  std::string error;  ///< First non-retryable status, if any.
};

/// Closed loop, zero think time: `quota` logical transactions, each retried
/// from Begin after any protocol abort until it commits or runs out of
/// attempts. Latency runs from the first Begin to the commit ack.
template <typename Handle>
void ClientLoop(Handle* h, const WorkloadSpec& spec, int client, int quota,
                uint64_t seed, ClientResult* out) {
  nonserial::Rng rng(seed);
  const std::vector<int>& choices = spec.client_templates[client];
  for (int n = 0; n < quota; ++n) {
    int tpl_index = choices[rng.Uniform(choices.size())];
    const TxTemplate& tpl = spec.templates[tpl_index];
    ++out->attempted;
    int64_t start = Probe::NowNs();
    bool committed = false;
    Status fatal;
    std::vector<Value> reads;
    for (int attempt = 0; attempt < kMaxAttempts && !committed && fatal.ok();
         ++attempt) {
      reads.clear();
      Status s = h->Begin(tpl_index, attempt);
      for (size_t i = 0; s.ok() && i < tpl.reads.size(); ++i) {
        StatusOr<Value> v = h->Read(tpl.reads[i], attempt);
        s = v.status();
        if (v.ok()) reads.push_back(*v);
      }
      if (s.ok()) {
        for (const auto& [e, v] : WritesFor(tpl, reads)) {
          s = h->Write(e, v, attempt);
          if (!s.ok()) break;
        }
      }
      if (s.ok()) s = h->Commit(attempt);
      if (s.ok()) {
        committed = true;
      } else if (!Retryable(s)) {
        fatal = s;
      }
    }
    if (committed) {
      out->latency_ns.push_back(Probe::NowNs() - start);
      out->acked.push_back(AckedTx{h->tx(), tpl_index, reads});
    } else {
      ++out->failed;
      if (out->error.empty()) {
        out->error = fatal.ok() ? "retry budget exhausted" : fatal.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Statistics

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p * (v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// The run's figure for a per-episode time or rate: the episode value on
/// the slow side, the 90th percentile of a time (10th of a rate), i.e. the
/// level nine episodes in ten reach. The host switches between a slow and a
/// fast state for seconds to minutes at a time. The slow state shows in
/// nearly every 30-second run and the fast one in bursts, so this quantile
/// repeats from run to run, where a mean or median follows the share of
/// fast episodes (README "Steadiness").
double SlowSide(std::vector<double> v, bool is_rate) {
  return Percentile(std::move(v), is_rate ? 0.1 : 0.9);
}

double P50Us(const Probe& probe, Op op) {
  std::vector<int64_t> ns = probe.Samples(op);
  std::vector<double> us(ns.begin(), ns.end());
  for (double& x : us) x /= 1e3;
  return Percentile(std::move(us), 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Episodes

struct Episode {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t committed = 0;
  double p50_us = 0;  ///< Of this episode's committed transactions.
  double p99_us = 0;
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  int64_t wal_bytes = 0;
  int64_t wal_batches = 0;
  int64_t wal_commits = 0;
  double recover_ms = 0;
  double verify_ms = 0;
  double versions_per_entity = 0;
  int64_t validation_rescans = 0;
  int64_t lock_blocks = 0;
  int64_t search_nodes = 0;
  int64_t searches = 0;
  int64_t parked_us = 0;
  int64_t queue_depth_p99 = 0;
  std::vector<double> first_decile_us;  ///< Per client.
  std::vector<double> last_decile_us;
  CheckResult check;
  std::string fatal;  ///< Set-up, ping, recovery or core verification failed.
  std::string client_error;  ///< First reason a logical transaction failed.
  History history;
};

double DecileMeanUs(const std::vector<int64_t>& ns, bool last) {
  size_t n = ns.size() / 10;
  if (n == 0) return 0;
  auto begin = last ? ns.end() - n : ns.begin();
  return std::accumulate(begin, begin + n, int64_t{0}) / 1e3 / n;
}

nonserial::EngineOptions BaseEngineOptions(const WorkloadSpec& spec,
                                           nonserial::ProtocolMetrics* metrics,
                                           nonserial::WriteAheadLog* wal) {
  nonserial::EngineOptions o;
  o.initial = spec.initial;
  o.protocol.metrics = metrics;
  o.wal = wal;
  o.wal_group_commit = true;
  o.wal_flush_us = 0;
  // CEP retires terminated transactions so per-transaction cost does not
  // grow with history length. MVTO has no retirement (Retire always
  // refuses), so every id would park on the engine's pending list.
  o.retire_terminated_tx = !spec.mvto;
  o.protocol.retirement = !spec.mvto;
  o.poll_us = 50;
  o.max_poll_us = 2'000;
  if (spec.mvto) {
    o.controller_factory =
        *nonserial::scenario::MakeControllerFactory("MVTO", {});
  }
  return o;
}

/// Wraps the configured controller (default CEP or the factory's) in a
/// TimedController, so the traced run hosts the same protocol.
void InstallTimedController(nonserial::EngineOptions* o, Probe* probe) {
  auto inner = o->controller_factory;
  nonserial::CorrectExecutionProtocol::Options cep = o->protocol;
  o->controller_factory = [inner, cep, probe](nonserial::VersionStore* store)
      -> std::unique_ptr<nonserial::ConcurrencyController> {
    std::unique_ptr<nonserial::ConcurrencyController> c =
        inner ? inner(store)
              : std::make_unique<nonserial::CorrectExecutionProtocol>(store,
                                                                     cep);
    return std::make_unique<TimedController>(std::move(c), probe);
  };
}

/// Post-hoc CPC verification of the recovered history with the library's
/// checker (core/verify), timed: the cost an auditor would pay.
Status VerifyWithCore(const WorkloadSpec& spec, const History& h,
                      Probe* probe, double* ms) {
  int max_tx = 0;
  for (const LoggedTx& l : h.logged) max_tx = std::max(max_tx, l.tx);
  nonserial::SimWorkload workload;
  workload.initial = spec.initial;
  workload.txs.resize(max_tx + 1);
  std::vector<nonserial::CorrectExecutionProtocol::TxRecord> records(max_tx +
                                                                     1);
  std::vector<int> tpl_of(max_tx + 1, -1);
  for (const AckedTx& a : h.acked) tpl_of[a.tx] = a.tpl;
  for (const LoggedTx& l : h.logged) {
    const TxTemplate& tpl = spec.templates[tpl_of[l.tx]];
    workload.txs[l.tx].name = l.name;
    workload.txs[l.tx].input = ToPredicate(tpl.input);
    records[l.tx].name = l.name;
    records[l.tx].input_state = l.input_state;
    records[l.tx].feeder_txs.insert(l.feeders.begin(), l.feeders.end());
    records[l.tx].writes = l.writes;
    records[l.tx].committed = true;
  }
  int64_t start = Probe::NowNs();
  Status s = nonserial::VerifyCepHistory(workload, records, h.recovered_final,
                                         ToPredicate(spec.constraint));
  *ms = (Probe::NowNs() - start) / 1e6;
  probe->Record(Op::kVerify, start, -1, 0, s.ok());
  return s;
}

Episode RunEpisode(const WorkloadSpec& spec, uint64_t seed, int index,
                   Probe* probe) {
  Episode ep;
  const bool traced = probe->enabled();

  // --- set-up: WAL, engine, server, client connect + staging ---------------
  int64_t setup_start = Probe::NowNs();
  nonserial::ProtocolMetrics metrics;
  auto wal = std::make_unique<nonserial::WriteAheadLog>(spec.initial);
  nonserial::EngineOptions options =
      BaseEngineOptions(spec, &metrics, wal.get());
  if (traced) InstallTimedController(&options, probe);
  auto engine = std::make_unique<nonserial::Engine>(options);
  std::unique_ptr<nonserial::SessionServer> server;
  std::vector<nonserial::engine::TxSpec> specs;
  for (const TxTemplate& t : spec.templates) {
    nonserial::engine::TxSpec s;
    s.name = t.name;
    s.input = ToPredicate(t.input);
    specs.push_back(std::move(s));
  }
  std::vector<std::unique_ptr<WireHandle>> wires;
  std::vector<std::unique_ptr<SessionHandle>> sessions;
  if (spec.wire) {
    nonserial::ServerOptions server_options;
    server_options.num_workers = spec.clients;
    server = std::make_unique<nonserial::SessionServer>(engine.get(),
                                                        server_options);
    Status s = server->Start();
    for (int c = 0; s.ok() && c < spec.clients; ++c) {
      wires.push_back(std::make_unique<WireHandle>(&spec.templates, probe));
      s = wires.back()->Connect(
          server->port(), spec.templates[spec.client_templates[c][0]].input);
    }
    if (!s.ok()) {
      ep.fatal = "server set-up: " + s.ToString();
      engine->Shutdown();
      return ep;
    }
  } else {
    for (int c = 0; c < spec.clients; ++c) {
      sessions.push_back(
          std::make_unique<SessionHandle>(engine.get(), &specs, probe));
    }
  }
  ep.setup_s = (Probe::NowNs() - setup_start) / 1e9;

  // --- measured window ------------------------------------------------------
  std::vector<ClientResult> results(spec.clients);
  int64_t cpu_start = ProcessCpuNs();
  int64_t wall_start = Probe::NowNs();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < spec.clients; ++c) {
      uint64_t client_seed = seed * 0x9E3779B97F4A7C15ULL + index * 64 + c;
      threads.emplace_back([&, c, client_seed] {
        if (spec.wire) {
          ClientLoop(wires[c].get(), spec, c, spec.tx_per_client, client_seed,
                     &results[c]);
        } else {
          ClientLoop(sessions[c].get(), spec, c, spec.tx_per_client,
                     client_seed, &results[c]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  ep.wall_s = (Probe::NowNs() - wall_start) / 1e9;
  ep.cpu_s = (ProcessCpuNs() - cpu_start) / 1e9;

  if (traced && spec.wire) {
    for (auto& w : wires) {
      for (int i = 0; i < kPingsPerClient; ++i) {
        if (!w->Ping(i)) ep.fatal = "ping failed";
      }
    }
  }

  // --- teardown -------------------------------------------------------------
  for (auto& w : wires) w->Close();
  for (auto& s : sessions) s->Close();
  engine->Shutdown();
  if (server) server->Stop();

  History& h = ep.history;
  h.templates = spec.templates;
  h.initial = spec.initial;
  h.constraint = spec.constraint;
  h.replay_final = spec.mvto;
  std::vector<double> latency_us;
  for (ClientResult& r : results) {
    ep.attempted += r.attempted;
    ep.failed += r.failed;
    for (int64_t ns : r.latency_ns) latency_us.push_back(ns / 1e3);
    h.acked.insert(h.acked.end(), r.acked.begin(), r.acked.end());
    ep.first_decile_us.push_back(DecileMeanUs(r.latency_ns, false));
    ep.last_decile_us.push_back(DecileMeanUs(r.latency_ns, true));
    if (ep.client_error.empty()) ep.client_error = r.error;
  }
  ep.committed = static_cast<int64_t>(h.acked.size());
  ep.p50_us = Percentile(latency_us, 0.5);
  ep.p99_us = Percentile(latency_us, 0.99);

  nonserial::WalStats wal_stats = wal->stats();
  ep.wal_bytes = wal_stats.bytes;
  ep.wal_batches = wal_stats.group_commit_batches;
  ep.wal_commits = wal_stats.group_commit_commits;
  ep.versions_per_entity =
      static_cast<double>(engine->store()->TotalLiveVersions()) /
      spec.initial.size();
  ep.validation_rescans = metrics.validation_rescans.value();
  ep.lock_blocks = metrics.lock_blocks.value();
  ep.search_nodes = metrics.search_nodes.sum();
  ep.searches = metrics.search_nodes.count();
  ep.parked_us = metrics.wait_micros.sum();
  ep.queue_depth_p99 = metrics.server_queue_depth.ApproxPercentile(0.99);

  // --- recovery and checks --------------------------------------------------
  int64_t recover_start = Probe::NowNs();
  nonserial::RecoveryResult rec = wal->Recover();
  ep.recover_ms = (Probe::NowNs() - recover_start) / 1e6;
  if (traced) probe->Record(Op::kWalRecover, recover_start, -1, 0, true);
  if (!rec.status.ok()) {
    ep.fatal = "WAL recovery: " + rec.status.ToString();
    return ep;
  }
  h.logged = spec.mvto ? FromRecords(wal->Snapshot()) : FromRecovery(rec);
  h.recovered_final = rec.store->LatestCommittedSnapshot();
  h.live_final = engine->store()->LatestCommittedSnapshot();
  ep.check = CheckHistory(h);
  if (traced && !spec.mvto && index < kVerifiedEpisodes && ep.check.ok()) {
    Status verified = VerifyWithCore(spec, h, probe, &ep.verify_ms);
    if (!verified.ok()) ep.fatal = "VerifyCepHistory: " + verified.ToString();
  }
  return ep;
}

}  // namespace

RunOutput RunWorkload(const RunOptions& options,
                      nonserial::BenchReport* report) {
  RunOutput out;
  WorkloadSpec spec = MakeSpec(options.workload, options.seed, options.clients);
  Probe probe(options.trace, options.trace ? kMaxSpans : 0);
  report->config()["workload"] = spec.name;
  report->config()["seed"] = static_cast<int64_t>(options.seed);
  report->config()["clients"] = spec.clients;
  report->config()["tx_per_client_per_episode"] = spec.tx_per_client;
  report->config()["traced"] = options.trace;

  std::vector<Episode> episodes;
  double measured_s = 0;
  out.correct = true;
  while (measured_s < options.seconds) {
    Episode ep = RunEpisode(spec, options.seed, episodes.size(), &probe);
    measured_s += ep.wall_s;
    out.attempted += ep.attempted;
    out.failed += ep.failed;
    if (!ep.check.ok()) {
      std::printf("episode %zu: history check %s failed: %s\n",
                  episodes.size(), CheckName(ep.check.failed),
                  ep.check.detail.c_str());
      out.correct = false;
    }
    if (!ep.client_error.empty()) {
      std::printf("episode %zu: %lld failed transactions, first: %s\n",
                  episodes.size(), static_cast<long long>(ep.failed),
                  ep.client_error.c_str());
    }
    if (!ep.fatal.empty()) {
      std::printf("episode %zu: %s\n", episodes.size(), ep.fatal.c_str());
      out.correct = false;
    }
    ep.history = History();  // Checked; release the memory.
    episodes.push_back(std::move(ep));
    if (!out.correct) break;
  }

  // End-to-end figures are taken per episode and summarized over the run's
  // episodes: timed ones on the slow side (SlowSide; p99, already a tail of
  // each episode, by the upper quartile), the rest by the median.
  int64_t committed = 0, wal_batches = 0, wal_commits = 0;
  int64_t rescans = 0, lock_blocks = 0, nodes = 0, searches = 0, parked = 0;
  double wall = 0;
  std::vector<double> rate, p50, p99, cpu, wal_bytes;
  std::vector<double> setup, recover, verify, versions, depth;
  std::vector<double> first_decile, last_decile;
  for (const Episode& ep : episodes) {
    const double per_ep_tx = ep.committed > 0 ? 1.0 / ep.committed : 0;
    committed += ep.committed;
    wall += ep.wall_s;
    wal_batches += ep.wal_batches;
    wal_commits += ep.wal_commits;
    rescans += ep.validation_rescans;
    lock_blocks += ep.lock_blocks;
    nodes += ep.search_nodes;
    searches += ep.searches;
    parked += ep.parked_us;
    rate.push_back(Ratio(ep.committed, ep.wall_s));
    p50.push_back(ep.p50_us);
    p99.push_back(ep.p99_us);
    cpu.push_back(ep.cpu_s * 1e6 * per_ep_tx);
    wal_bytes.push_back(ep.wal_bytes * per_ep_tx);
    setup.push_back(ep.setup_s);
    std::printf("episode %zu: %.1f tx/s, p50 %.1f us, p99 %.1f us, "
                "cpu %.1f us/tx, %.3f WAL batches/commit, set-up %.6f s\n",
                rate.size() - 1, rate.back(), p50.back(), p99.back(),
                cpu.back(), Ratio(ep.wal_batches, ep.wal_commits),
                ep.setup_s);
    recover.push_back(ep.recover_ms);
    if (ep.verify_ms > 0) verify.push_back(ep.verify_ms);
    versions.push_back(ep.versions_per_entity);
    depth.push_back(ep.queue_depth_p99);
    first_decile.insert(first_decile.end(), ep.first_decile_us.begin(),
                        ep.first_decile_us.end());
    last_decile.insert(last_decile.end(), ep.last_decile_us.begin(),
                       ep.last_decile_us.end());
  }
  const double per_tx = committed > 0 ? 1.0 / committed : 0;
  const double commit_rate = SlowSide(rate, /*is_rate=*/true);
  std::printf("%s: %zu episodes, %lld committed in %.3f s measured; "
              "tx_p50_us/tx_p99_us summarize %zu episode percentiles, each "
              "over %lld latency samples\n",
              spec.name.c_str(), episodes.size(),
              static_cast<long long>(committed), wall, episodes.size(),
              static_cast<long long>(spec.clients * spec.tx_per_client));

  auto add = [&](const std::string& name, double value, const char* unit) {
    out.metrics.push_back(Metric{name, value, unit});
  };
  if (!options.trace) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    add("commit_rate", commit_rate, "tx/s");
    add("tx_p50_us", SlowSide(p50, /*is_rate=*/false), "us");
    add("tx_p99_us", Percentile(p99, 0.75), "us");
    add("setup_s", Median(setup), "s");
    add("peak_rss_mb", usage.ru_maxrss / 1024.0, "MB");
    add("cpu_us_per_tx", SlowSide(cpu, /*is_rate=*/false), "us");
    add("wal_bytes_per_tx", Median(wal_bytes), "B");
  } else {
    double wire_ns = 0, session_ns = 0, ctl_ns = 0;
    for (Op op : {Op::kWireBegin, Op::kWireRead, Op::kWireWrite,
                  Op::kWireCommit}) {
      wire_ns += probe.TotalNs(op);
    }
    for (Op op : {Op::kSessionBegin, Op::kSessionRead, Op::kSessionWrite,
                  Op::kSessionCommit}) {
      session_ns += probe.TotalNs(op);
    }
    for (Op op : {Op::kCtlBegin, Op::kCtlRead, Op::kCtlWrite, Op::kCtlCommit,
                  Op::kCtlAbort, Op::kCtlOther}) {
      ctl_ns += probe.TotalNs(op);
    }
    add("server.begin_rtt_us", P50Us(probe, Op::kWireBegin), "us");
    add("server.read_rtt_us", P50Us(probe, Op::kWireRead), "us");
    add("server.write_rtt_us", P50Us(probe, Op::kWireWrite), "us");
    add("server.commit_rtt_us", P50Us(probe, Op::kWireCommit), "us");
    add("server.ping_rtt_us", P50Us(probe, Op::kWirePing), "us");
    add("server.queue_depth_p99", spec.wire ? Median(depth) : 0, "count");
    add("server.self_us_per_tx",
        spec.wire ? (wire_ns - ctl_ns) / 1e3 * per_tx : 0, "us");
    add("engine.begin_us", P50Us(probe, Op::kSessionBegin), "us");
    add("engine.read_us", P50Us(probe, Op::kSessionRead), "us");
    add("engine.write_us", P50Us(probe, Op::kSessionWrite), "us");
    add("engine.commit_us", P50Us(probe, Op::kSessionCommit), "us");
    add("engine.self_us_per_tx",
        spec.wire ? 0 : (session_ns - ctl_ns) / 1e3 * per_tx, "us");
    add("engine.parked_us_per_tx", parked * per_tx, "us");
    add("protocol.begin_us", P50Us(probe, Op::kCtlBegin), "us");
    add("protocol.read_us", P50Us(probe, Op::kCtlRead), "us");
    add("protocol.write_us", P50Us(probe, Op::kCtlWrite), "us");
    add("protocol.commit_us", P50Us(probe, Op::kCtlCommit), "us");
    add("protocol.self_us_per_tx", ctl_ns / 1e3 * per_tx, "us");
    add("protocol.blocked_per_tx", probe.blocked() * per_tx, "count");
    add("protocol.attempts_per_commit",
        (committed + probe.Count(Op::kCtlAbort)) * per_tx, "count");
    add("protocol.validation_rescans_per_tx", rescans * per_tx, "count");
    add("protocol.lock_blocks_per_tx", lock_blocks * per_tx, "count");
    add("predicate.search_nodes_per_validation", Ratio(nodes, searches),
        "count");
    add("storage.wal_batches_per_commit", Ratio(wal_batches, wal_commits),
        "count");
    add("storage.versions_per_entity", Median(versions), "count");
    add("storage.wal_recover_ms", Median(recover), "ms");
    add("session.first_decile_us_per_tx", Median(first_decile), "us");
    add("session.last_decile_us_per_tx", Median(last_decile), "us");
    add("core.verify_ms", spec.mvto ? 0 : Median(verify), "ms");
    add("trace.commit_rate", commit_rate, "tx/s");
  }

  for (const Metric& m : out.metrics) {
    nonserial::Json row = nonserial::Json::Object();
    row["name"] = m.name;
    row["value"] = m.value;
    row["unit"] = m.unit;
    report->AddResult(std::move(row));
  }
  report->config()["episodes"] = static_cast<int64_t>(episodes.size());
  report->config()["committed"] = committed;
  if (options.trace && !options.out_dir.empty()) {
    std::string path = options.out_dir + "/" + spec.name + ".trace.json";
    if (!nonserial::WriteTraceFile(path, probe.timeline())) {
      std::printf("could not write %s\n", path.c_str());
    }
  }
  return out;
}

bool RunCheckerSelfTest() {
  bool ok = true;
  for (const char* name : {"session_hot", "mvto_long_haul"}) {
    WorkloadSpec spec = MakeSpec(name, /*seed=*/7, /*clients=*/0);
    spec.tx_per_client = 50;
    Probe probe(false, 0);
    Episode ep = RunEpisode(spec, 7, 0, &probe);
    std::printf("selftest on a %lld-transaction %s history\n",
                static_cast<long long>(ep.committed), name);
    ok &= ep.fatal.empty() && ep.failed == 0 && SelfTest(ep.history);
  }
  return ok;
}

}  // namespace perfbench
