// auditbench: the audited-statement benchmark (see perfbench/README.md).
//
// Drives one of three closed-loop workloads through Session::ExecuteWithOptions
// with default ExecOptions on a journaled database (Database::Recover,
// WAL_SYNC = COMMIT) whose audit expression carries the paper's logging
// trigger, checks every output, and prints one JSON result line:
//
//   auditbench --workload tpch_audit|oltp_audit|oltp_audit_sync --seed N
//              --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//              [--git-sha SHA]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs an untraced and a
// traced concurrent phase of S/2 seconds each (the difference in throughput
// is the tracing overhead), then a
// single-session replay that times each layer's public entry point, and
// reports the per-layer metrics; spans go to --trace-out as JSON lines.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "audit/placement.h"
#include "binder/binder.h"
#include "common/mutex.h"
#include "common/status.h"
#include "engine/database.h"
#include "engine/session.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "plan/logical_plan.h"
#include "replication/applier.h"
#include "replication/shipper.h"
#include "replication/transport.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "trace.h"

namespace perfbench {
namespace {

using seltrig::AccessedStateRegistry;
using seltrig::Binder;
using seltrig::Database;
using seltrig::ExecContext;
using seltrig::ExecOptions;
using seltrig::Executor;
using seltrig::FollowerStatus;
using seltrig::LogShipper;
using seltrig::PlanPtr;
using seltrig::QueryResult;
using seltrig::ReaderMutexLock;
using seltrig::ReplicaApplier;
using seltrig::ReplicationWaiter;
using seltrig::Result;
using seltrig::Row;
using seltrig::Session;
using seltrig::StatementResult;
using seltrig::Status;
using seltrig::Table;
using seltrig::Value;
using seltrig::WalPosition;
using seltrig::WriterMutexLock;
namespace ast = seltrig::ast;
namespace tpch = seltrig::tpch;

constexpr char kAuditName[] = "audit_sensitive";
constexpr char kLogTable[] = "access_log";
constexpr int kClients = 2;

// tpch_audit
constexpr double kTpchScale = 0.01;
// oltp_audit / oltp_audit_sync
constexpr int64_t kPatients = 20000;
constexpr int kZipCodes = 200;  // ~100 patients per zip
constexpr int64_t kRangeWidth = 20;
const char* const kRisks[5] = {"diabetes", "asthma", "hypertension", "flu", "none"};

enum class Workload { kTpch, kOltp, kOltpSync };

struct Args {
  Workload workload = Workload::kTpch;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  std::string git_sha = "unknown";
};

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "auditbench: %s\n", message.c_str());
  std::exit(2);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.message());
}

double Ms(int64_t ns) { return ns / 1e6; }

// --- Statement generation ------------------------------------------------------

enum OltpShape { kPoint, kZip, kRange, kInsert, kUpdate, kOltpShapes };
const char* const kOltpShapeNames[kOltpShapes] = {"point", "zip", "range",
                                                  "insert", "update"};

struct Stmt {
  std::string sql;
  int shape = 0;
  bool write = false;
  // A point lookup of an id loaded at setup (must return exactly one row).
  bool initial_point = false;
  int64_t key = 0;
};

// The tpch_audit statement texts: the seven workload queries plus the
// Section V-A micro-benchmark query.
std::vector<std::string> TpchStatements() {
  std::vector<std::string> sqls;
  for (const tpch::TpchQuery& q : tpch::WorkloadQueries()) sqls.push_back(q.sql);
  sqls.push_back(tpch::MicroBenchmarkQuery(5000.0, "1996-01-01"));
  return sqls;
}

std::string TpchShapeName(int shape) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const tpch::TpchQuery& q : tpch::WorkloadQueries()) {
      n.push_back("Q" + std::to_string(q.number));
    }
    n.push_back("micro");
    return n;
  }();
  return names[shape];
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

std::string ZipCode(int i) { return std::to_string(10000 + i); }

// One client's statement sequence: a pure function of (seed, client).
class StatementStream {
 public:
  StatementStream(Workload workload, uint64_t seed, int client)
      : workload_(workload),
        rng_(seed * 1000003 + client),
        client_(client) {
    if (workload_ == Workload::kTpch) tpch_ = TpchStatements();
  }

  Stmt Next() {
    if (workload_ == Workload::kTpch) {
      if (order_.empty()) {
        for (size_t i = 0; i < tpch_.size(); ++i) order_.push_back(static_cast<int>(i));
        std::shuffle(order_.begin(), order_.end(), rng_);
      }
      Stmt s;
      s.shape = order_.back();
      order_.pop_back();
      s.sql = tpch_[s.shape];
      return s;
    }
    // The OLTP mix in shuffled decks of 20: 12 point lookups, 2 zip
    // lookups, 2 ranges, 3 inserts, 1 update. Exact shares at every deck
    // boundary keep the mix (and so throughput) independent of the seed.
    if (order_.empty()) {
      for (int card = 0; card < 20; ++card) order_.push_back(card);
      std::shuffle(order_.begin(), order_.end(), rng_);
    }
    const int draw = order_.back() * 5;  // percent of the mix below this card
    order_.pop_back();
    Stmt s;
    if (draw < 60) {
      s.shape = kPoint;
      s.key = Uniform(kPatients);
      s.initial_point = true;
      s.sql = "SELECT * FROM patients WHERE patientid = " + std::to_string(s.key);
    } else if (draw < 70) {
      s.shape = kZip;
      s.sql = "SELECT * FROM patients WHERE zip = " + Quote(ZipCode(Uniform(kZipCodes)));
    } else if (draw < 80) {
      s.shape = kRange;
      s.key = Uniform(kPatients);
      s.sql = "SELECT * FROM patients WHERE patientid BETWEEN " + std::to_string(s.key) +
              " AND " + std::to_string(s.key + kRangeWidth);
    } else if (draw < 95) {
      s.shape = kInsert;
      s.write = true;
      // Ids above the loaded range, disjoint between the clients and the
      // replay stream (client index kClients).
      s.key = kPatients + (kClients + 1) * inserted_++ + client_;
      s.sql = "INSERT INTO patients VALUES (" + std::to_string(s.key) + ", " +
              Quote("P" + std::to_string(s.key)) + ", " + Quote(kRisks[Uniform(5)]) +
              ", " + Quote(ZipCode(Uniform(kZipCodes))) + ")";
    } else {
      s.shape = kUpdate;
      s.write = true;
      s.key = Uniform(kPatients);
      s.sql = "UPDATE patients SET risk = " + Quote(kRisks[Uniform(5)]) +
              " WHERE patientid = " + std::to_string(s.key);
    }
    return s;
  }

 private:
  int64_t Uniform(int64_t n) {
    return std::uniform_int_distribution<int64_t>(0, n - 1)(rng_);
  }

  Workload workload_;
  std::mt19937_64 rng_;
  int client_;
  std::vector<std::string> tpch_;
  std::vector<int> order_;
  int64_t inserted_ = 0;
};

// --- Set-up ----------------------------------------------------------------------

// Per-thread trace context, read by the replication waiter (which runs on the
// session's thread inside ExecuteWithOptions).
struct ThreadTrace {
  SpanRecorder* recorder = nullptr;
  uint64_t stmt_id = 0;
  int64_t parent = -1;
  bool degraded = false;
};
thread_local ThreadTrace tls_trace;

// The ReplicationWaiter the benchmark installs: delegates to the shipper's
// WaitReplicated (when there is a follower), records a replication.ack_wait
// span on traced threads, and notes whether the wait returned while a
// follower was degraded (sync mode then acknowledged without it).
class BenchWaiter : public ReplicationWaiter {
 public:
  explicit BenchWaiter(LogShipper* shipper) : shipper_(shipper) {}

  Status WaitReplicated(const WalPosition& pos) override {
    const int64_t start = NowNs();
    Status status = shipper_ != nullptr ? shipper_->WaitReplicated(pos) : Status::OK();
    const int64_t end = NowNs();
    if (shipper_ != nullptr) {
      for (const FollowerStatus& f : shipper_->Followers()) {
        if (f.degraded) tls_trace.degraded = true;
      }
    }
    if (tls_trace.recorder != nullptr) {
      tls_trace.recorder->Add("replication.ack_wait", tls_trace.stmt_id, start, end,
                              tls_trace.parent);
    }
    return status;
  }

 private:
  LogShipper* const shipper_;
};

// One set-up database (plus, for oltp_audit_sync, its follower).
struct Bench {
  std::string dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<ReplicaApplier> applier;
  std::unique_ptr<LogShipper> shipper;
  std::unique_ptr<BenchWaiter> waiter;

  Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;
  ~Bench() {
    if (shipper != nullptr) shipper->Stop();
    if (applier != nullptr) applier->Stop();
    if (db != nullptr && db->replication_waiter() == waiter.get()) {
      db->set_replication_waiter(nullptr);
    }
    shipper.reset();
    applier.reset();
    db.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

struct SetupTimes {
  double total_s = 0;
  double load_ms = 0;
  double view_build_ms = 0;
  double checkpoint_ms = 0;
};

Status LoadPatients(Database* db, uint64_t seed) {
  SELTRIG_RETURN_IF_ERROR(
      db->Execute("CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, "
                  "risk VARCHAR, zip VARCHAR)")
          .status());
  std::mt19937_64 rng(seed);
  // Bulk load straight into storage (journal bypassed; the checkpoint that
  // ends set-up makes it durable), like the TPC-H loader.
  WriterMutexLock lock(&db->storage_mutex());
  SELTRIG_ASSIGN_OR_RETURN(Table * table, db->catalog()->GetTable("patients"));
  for (int64_t id = 0; id < kPatients; ++id) {
    Row row = {Value::Int(id), Value::String("P" + std::to_string(id)),
               Value::String(kRisks[rng() % 5]),
               Value::String(ZipCode(static_cast<int>(rng() % kZipCodes)))};
    SELTRIG_RETURN_IF_ERROR(table->Insert(std::move(row)).status());
  }
  return Status::OK();
}

std::unique_ptr<Bench> SetUp(const Args& args, const std::string& dir, SetupTimes* times,
                             SpanRecorder* rec, uint64_t setup_id) {
  auto bench = std::make_unique<Bench>();
  bench->dir = dir;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const int64_t start = NowNs();
  const int64_t root = rec->Begin("setup", setup_id);

  Result<std::unique_ptr<Database>> opened = Database::Recover(dir + "/primary");
  Check(opened.status(), "Database::Recover");
  bench->db = std::move(*opened);
  Database* db = bench->db.get();
  db->wal()->set_sync_mode(seltrig::WalSyncMode::kCommit);  // WAL_SYNC = COMMIT

  const bool tpch_workload = args.workload == Workload::kTpch;
  int64_t span = rec->Begin(tpch_workload ? "tpch.load" : "oltp.load", setup_id, root);
  if (tpch_workload) {
    tpch::TpchConfig config;
    config.scale_factor = kTpchScale;
    Check(tpch::LoadTpch(db, config), "LoadTpch");
  } else {
    Check(LoadPatients(db, args.seed), "load patients");
  }
  rec->End(span);
  times->load_ms = Ms(rec->spans()[span].duration_ns());

  const std::string key = tpch_workload ? "c_custkey" : "patientid";
  Check(db->Execute("CREATE TABLE " + std::string(kLogTable) +
                    " (ts VARCHAR, userid VARCHAR, sqltext VARCHAR, id INT)")
            .status(),
        "CREATE TABLE log");
  span = rec->Begin("audit.view_build", setup_id, root);
  Check(db->Execute(tpch_workload
                        ? tpch::SegmentAuditExpressionSql(kAuditName, "BUILDING")
                        : "CREATE AUDIT EXPRESSION " + std::string(kAuditName) +
                              " AS SELECT * FROM patients WHERE risk = 'diabetes' "
                              "FOR SENSITIVE TABLE patients PARTITION BY patientid")
            .status(),
        "CREATE AUDIT EXPRESSION");
  rec->End(span);
  times->view_build_ms = Ms(rec->spans()[span].duration_ns());
  Check(db->Execute("CREATE TRIGGER log_access ON ACCESS TO " + std::string(kAuditName) +
                    " AS INSERT INTO " + kLogTable +
                    " SELECT now(), user_id(), sql_text(), " + key + " FROM accessed")
            .status(),
        "CREATE TRIGGER");

  span = rec->Begin("engine.checkpoint", setup_id, root);
  Check(db->Checkpoint(), "Checkpoint");
  rec->End(span);
  times->checkpoint_ms = Ms(rec->spans()[span].duration_ns());

  if (args.workload == Workload::kOltpSync) {
    span = rec->Begin("replication.attach", setup_id, root);
    Result<std::unique_ptr<ReplicaApplier>> follower =
        ReplicaApplier::Open(dir + "/follower");
    Check(follower.status(), "ReplicaApplier::Open");
    bench->applier = std::move(*follower);
    seltrig::ShipperOptions options;  // defaults, apart from the ack mode
    options.ack_mode = seltrig::ReplicationAckMode::kSync;
    bench->shipper = std::make_unique<LogShipper>(db, options);
    ReplicaApplier* applier = bench->applier.get();
    bench->shipper->AddFollower(
        "f0", [applier]() -> Result<std::shared_ptr<seltrig::FrameChannel>> {
          applier->Stop();
          seltrig::ChannelPair pair = seltrig::CreateInProcessChannelPair();
          applier->Start(pair.follower_end);
          return pair.primary_end;
        });
    const int64_t deadline = NowNs() + 60'000'000'000;
    while (!bench->shipper->AllCaughtUp()) {
      if (NowNs() > deadline) Fail("follower did not catch up with the set-up snapshot");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rec->End(span);
  }
  rec->End(root);
  times->total_s = (NowNs() - start) / 1e9;

  // Installed after set-up, so it only sees measured statements: in the sync
  // workload always (degraded acks count as failures), elsewhere only when
  // tracing (the span then times the hook alone).
  if (bench->shipper != nullptr || args.trace) {
    bench->waiter = std::make_unique<BenchWaiter>(bench->shipper.get());
    db->set_replication_waiter(bench->waiter.get());
  }
  return bench;
}

// --- Output checks -----------------------------------------------------------------

// Row count and ACCESSED set of each tpch_audit statement, computed once.
struct Reference {
  size_t rows = 0;
  std::vector<Value> accessed;
};

const std::vector<Value>& AccessedOf(const StatementResult& r) {
  static const std::vector<Value> empty;
  auto it = r.accessed.find(kAuditName);
  return it == r.accessed.end() ? empty : it->second;
}

size_t LogRows(Database* db) {
  ReaderMutexLock lock(&db->storage_mutex());
  Result<Table*> table = db->catalog()->GetTable(kLogTable);
  Check(table.status(), "log table");
  return (*table)->live_row_count();
}

// Warms caches and lazy indexes before timing. tpch_audit: runs every
// statement once, building the reference on the first call and checking
// against it afterwards. OLTP: one read of each indexed column (writes are
// left to the measured phase).
void WarmUp(const Args& args, Database* db, std::vector<Reference>* refs,
            std::vector<std::string>* errors) {
  std::unique_ptr<Session> session = db->CreateSession();
  std::vector<std::string> sqls;
  if (args.workload == Workload::kTpch) {
    sqls = TpchStatements();
  } else {
    sqls = {"SELECT * FROM patients WHERE patientid = 1",
            "SELECT * FROM patients WHERE zip = '10001'"};
  }
  for (size_t i = 0; i < sqls.size(); ++i) {
    Result<StatementResult> r = session->ExecuteWithOptions(sqls[i], ExecOptions());
    Check(r.status(), "warm-up statement");
    if (args.workload != Workload::kTpch) continue;
    Reference got{r->result.rows.size(), AccessedOf(*r)};
    if (refs->size() < sqls.size()) {
      refs->push_back(std::move(got));
    } else if (got.rows != (*refs)[i].rows || got.accessed != (*refs)[i].accessed) {
      errors->push_back("warm-up " + TpchShapeName(i) + " differs from the reference");
    }
  }
}

// --- Concurrent phase ----------------------------------------------------------------

struct StmtRecord {
  int shape = 0;
  bool write = false;
  bool ok = false;
  bool degraded = false;
  double latency_ms = 0;
  size_t rows = 0;
  size_t accessed = 0;
  seltrig::ExecStats stats;
  int64_t start_ns = 0;
  std::string sql;
  // Committed a journal record: DML, or a SELECT whose trigger logged rows.
  bool journaled() const { return ok && (write || accessed > 0); }
};

struct Phase {
  std::vector<StmtRecord> records;  // ordered by start time
  std::vector<Span> spans;
  double elapsed_s = 0;
  uint64_t journal_bytes = 0;
  size_t log_rows = 0;
  double catchup_ms = 0;
  size_t failed = 0;
  size_t degraded = 0;
  uint64_t reconnects = 0;
  uint64_t records_applied = 0;  // by the follower, during the phase
};

std::atomic<uint64_t> next_stmt_id{1};

void RunClient(const Args& args, Database* db, int client, int64_t deadline_ns,
               bool traced, const std::vector<Reference>& refs,
               std::vector<StmtRecord>* out, SpanRecorder* rec,
               std::vector<std::string>* errors) {
  std::unique_ptr<Session> session = db->CreateSession();
  session->context()->user = "client" + std::to_string(client);
  StatementStream stream(args.workload, args.seed, client);
  const ExecOptions options;
  while (NowNs() < deadline_ns) {
    Stmt stmt = stream.Next();
    const uint64_t id = next_stmt_id++;
    tls_trace = ThreadTrace{};
    int64_t span = -1;
    if (traced) {
      span = rec->Begin("engine.stmt", id);
      tls_trace = ThreadTrace{rec, id, span, false};
    }
    const int64_t start = NowNs();
    Result<StatementResult> r = session->ExecuteWithOptions(stmt.sql, options);
    const int64_t end = NowNs();
    if (traced) rec->End(span);

    StmtRecord record;
    record.shape = stmt.shape;
    record.write = stmt.write;
    record.ok = r.ok();
    record.degraded = tls_trace.degraded;
    record.latency_ms = Ms(end - start);
    record.start_ns = start;
    if (r.ok()) {
      record.rows = r->result.rows.size();
      record.accessed = AccessedOf(*r).size();
      record.stats = r->stats;
      if (args.workload == Workload::kTpch) {
        const Reference& ref = refs[stmt.shape];
        if (record.rows != ref.rows || AccessedOf(*r) != ref.accessed) {
          errors->push_back(TpchShapeName(stmt.shape) +
                            " returned a different row count or ACCESSED set");
        }
      } else if (stmt.initial_point && record.rows != 1) {
        errors->push_back("point lookup of patient " + std::to_string(stmt.key) +
                          " returned " + std::to_string(record.rows) + " rows");
      }
    } else {
      std::fprintf(stderr, "auditbench: statement failed: %s: %s\n",
                   stmt.sql.substr(0, 80).c_str(), r.status().message().c_str());
    }
    record.sql = std::move(stmt.sql);
    out->push_back(std::move(record));
  }
  tls_trace = ThreadTrace{};
}

Phase RunPhase(const Args& args, Bench* bench, bool traced,
               const std::vector<Reference>& refs, std::vector<std::string>* errors) {
  Database* db = bench->db.get();
  Phase phase;
  const size_t log_before = LogRows(db);
  const WalPosition wal_before = db->wal()->current_position();
  auto records_applied = [&] {
    return bench->applier != nullptr ? bench->applier->stats().records_applied : 0;
  };
  const uint64_t applied_before = records_applied();

  std::vector<std::vector<StmtRecord>> records(kClients);
  std::vector<SpanRecorder> recorders(kClients);
  std::vector<std::vector<std::string>> client_errors(kClients);
  const int64_t start = NowNs();
  // A traced run splits its time between the untraced and the traced phase.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient, std::cref(args), db, c, deadline, traced,
                         std::cref(refs), &records[c], &recorders[c], &client_errors[c]);
  }
  for (std::thread& t : threads) t.join();
  phase.elapsed_s = (NowNs() - start) / 1e9;

  const WalPosition wal_after = db->wal()->current_position();
  if (wal_after.seq != wal_before.seq || wal_after.epoch != wal_before.epoch) {
    errors->push_back("journal segment changed during the measured phase");
  }
  phase.journal_bytes = wal_after.offset - wal_before.offset;

  for (int c = 0; c < kClients; ++c) {
    for (StmtRecord& r : records[c]) phase.records.push_back(std::move(r));
    for (std::string& e : client_errors[c]) errors->push_back(std::move(e));
    AppendSpans(recorders[c].spans(), &phase.spans);
  }
  std::sort(phase.records.begin(), phase.records.end(),
            [](const StmtRecord& a, const StmtRecord& b) { return a.start_ns < b.start_ns; });

  // Every completed SELECT's ACCESSED set must be in the log, one row per ID.
  size_t expected_log_rows = 0;
  for (const StmtRecord& r : phase.records) {
    if (!r.ok || r.degraded) ++phase.failed;
    if (r.degraded) ++phase.degraded;
    if (r.ok && !r.write) expected_log_rows += r.accessed;
  }
  phase.log_rows = LogRows(db) - log_before;
  if (phase.log_rows != expected_log_rows) {
    errors->push_back("log has " + std::to_string(phase.log_rows) +
                      " new rows, completed SELECTs accessed " +
                      std::to_string(expected_log_rows) + " IDs");
  }

  // Follower catch-up (an immediate return without a follower).
  const int64_t catchup_start = NowNs();
  if (bench->shipper != nullptr) {
    const int64_t catchup_deadline = catchup_start + 60'000'000'000;
    while (!bench->shipper->AllCaughtUp()) {
      if (NowNs() > catchup_deadline) {
        errors->push_back("follower did not catch up within 60 s");
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  phase.catchup_ms = Ms(NowNs() - catchup_start);
  phase.records_applied = records_applied() - applied_before;
  if (bench->shipper != nullptr) {
    for (const FollowerStatus& f : bench->shipper->Followers()) {
      phase.reconnects += f.reconnects;
    }
  }
  if (bench->applier != nullptr) {
    const size_t follower_rows = LogRows(bench->applier->database().get());
    const size_t primary_rows = LogRows(db);
    if (follower_rows != primary_rows) {
      errors->push_back("follower log has " + std::to_string(follower_rows) +
                        " rows, primary has " + std::to_string(primary_rows));
    }
  }
  return phase;
}

// --- Single-session replay (per-layer split) -------------------------------------------

struct Replay {
  SpanRecorder rec;
  // Replayed parse-through-run milliseconds per statement shape.
  std::map<int, std::vector<double>> shape_ms;
  int selects = 0;
  int audit_ops = 0;
  double instrumented_ms = 0;  // interleaved ExecuteQuery, summed medians
  double bare_ms = 0;
};

// An execution context configured as Session configures a top-level SELECT
// under default ExecOptions.
void ConfigureContext(ExecContext* ctx, AccessedStateRegistry* registry) {
  const ExecOptions defaults;
  ctx->set_batch_size(defaults.batch_size);
  ctx->set_columnar(defaults.columnar);
  ctx->set_num_threads(defaults.num_threads);
  ctx->set_validate_plans(defaults.validate_plans);
  ctx->set_accessed(registry);
}

// Times ExecuteQuery of the instrumented and bare plans, interleaved, and
// adds each variant's median to the replay totals.
void MeasureAuditOverhead(Database* db, Session* session,
                          const seltrig::LogicalOperator& instrumented,
                          const seltrig::LogicalOperator& bare, Replay* replay) {
  std::vector<double> with_audit;
  std::vector<double> without;
  const int64_t budget_end = NowNs() + 200'000'000;
  for (int rep = 0; rep < 51 && (rep < 3 || NowNs() < budget_end); ++rep) {
    for (int variant = 0; variant < 2; ++variant) {
      ExecContext ctx(db->catalog(), session->context());
      AccessedStateRegistry registry;
      ConfigureContext(&ctx, &registry);
      Executor executor(&ctx);
      const int64_t start = NowNs();
      Result<QueryResult> r =
          executor.ExecuteQuery(variant == 0 ? instrumented : bare);
      const double ms = Ms(NowNs() - start);
      Check(r.status(), "overhead ExecuteQuery");
      (variant == 0 ? with_audit : without).push_back(ms);
    }
  }
  replay->instrumented_ms += Median(with_audit);
  replay->bare_ms += Median(without);
}

// Runs the write `sql` through Session, then calls Table::LookupBySecondary
// twice: the first call rebuilds the index the write invalidated, the second
// reuses it.
void WriteThenLookup(Database* db, Session* session, const std::string& sql,
                     const std::string& table_name, const std::string& column,
                     const Value& key, uint64_t id, SpanRecorder* rec,
                     std::vector<std::string>* errors) {
  Check(session->ExecuteWithOptions(sql, ExecOptions()).status(), "replay write");
  ReaderMutexLock lock(&db->storage_mutex());
  Result<Table*> table = db->catalog()->GetTable(table_name);
  Check(table.status(), table_name);
  Result<int> col = (*table)->schema().Resolve("", column);
  Check(col.status(), "column " + column);
  for (const char* name :
       {"storage.secondary_lookup_cold", "storage.secondary_lookup_warm"}) {
    const int64_t span = rec->Begin(name, id);
    const size_t hits = (*table)->LookupBySecondary(*col, key).size();
    rec->End(span);
    if (hits == 0) errors->push_back("secondary lookup after a write found no row");
  }
}

// Replays `stmt` one layer at a time, then checks the plan and result
// against the ones Session produced for the same text.
void ReplayStatement(Database* db, Session* session, const Stmt& stmt, uint64_t id,
                     bool measure_overhead, Replay* replay,
                     std::vector<std::string>* errors) {
  // A SELECT first runs through Session, for the plan and result the
  // replay must reproduce.
  std::optional<StatementResult> through_session;
  if (!stmt.write) {
    Result<StatementResult> r = session->ExecuteWithOptions(stmt.sql, ExecOptions());
    Check(r.status(), "replay SELECT through Session");
    through_session = std::move(*r);
  }
  SpanRecorder& rec = replay->rec;
  const int64_t root = rec.Begin("replay.stmt", id);
  int64_t span = rec.Begin("sql.parse", id, root);
  Result<ast::StatementPtr> parsed = seltrig::ParseSql(stmt.sql);
  rec.End(span);
  Check(parsed.status(), "ParseSql");
  ast::Statement& node = **parsed;

  if (stmt.write) {
    {
      ReaderMutexLock lock(&db->storage_mutex());
      Binder binder(db->catalog());
      span = rec.Begin("binder.bind", id, root);
      Status bound = node.kind == ast::StatementKind::kInsert
                         ? binder.BindInsert(static_cast<ast::InsertStatement&>(node))
                               .status()
                         : binder.BindUpdate(static_cast<ast::UpdateStatement&>(node))
                               .status();
      rec.End(span);
      Check(bound, "bind write");
    }
    rec.End(root);
    replay->shape_ms[stmt.shape].push_back(Ms(rec.spans()[root].duration_ns()));
    WriteThenLookup(db, session, stmt.sql, "patients", "patientid",
                    Value::Int(stmt.key), id, &rec, errors);
    return;
  }

  // SELECT: the Section IV pipeline, one public entry point per span.
  ReaderMutexLock lock(&db->storage_mutex());
  const auto& select = *static_cast<ast::SelectWrapper&>(node).select;
  Binder binder(db->catalog());
  span = rec.Begin("binder.bind", id, root);
  Result<PlanPtr> plan = binder.BindSelect(select);
  rec.End(span);
  Check(plan.status(), "BindSelect");

  seltrig::OptimizerOptions opt;
  opt.catalog = db->catalog();
  for (const seltrig::AuditExpressionDef* def : db->audit_manager()->All()) {
    opt.audit_keys.push_back(
        {def->sensitive_table(), def->partition_column(), def->partition_by()});
  }
  span = rec.Begin("optimizer.optimize", id, root);
  plan = seltrig::OptimizePlan(std::move(*plan), opt);
  rec.End(span);
  Check(plan.status(), "OptimizePlan");
  PlanPtr bare = std::move(*plan);

  span = rec.Begin("audit.place", id, root);
  PlanPtr instrumented;
  const seltrig::LogicalOperator* current = bare.get();
  for (const std::string& name : db->trigger_manager()->AuditedExpressionNames()) {
    const seltrig::AuditExpressionDef* def = db->audit_manager()->Find(name);
    if (def == nullptr) continue;
    Result<PlanPtr> placed =
        seltrig::InstrumentPlan(*current, *def, seltrig::PlacementOptions());
    Check(placed.status(), "InstrumentPlan");
    instrumented = std::move(*placed);
    current = instrumented.get();
  }
  rec.End(span);
  if (instrumented == nullptr) Fail("no audited expression to place");
  replay->audit_ops += seltrig::CountAuditOperators(*instrumented);
  ++replay->selects;

  span = rec.Begin("optimizer.post_place", id, root);
  plan = seltrig::OptimizeInstrumentedPlan(std::move(instrumented), opt);
  rec.End(span);
  Check(plan.status(), "OptimizeInstrumentedPlan");
  instrumented = std::move(*plan);

  AccessedStateRegistry registry;
  ExecContext ctx(db->catalog(), session->context());
  ConfigureContext(&ctx, &registry);
  Executor executor(&ctx);
  span = rec.Begin("exec.build", id, root);
  Check(executor.Build(*instrumented, {}).status(), "Executor::Build");
  rec.End(span);
  span = rec.Begin("exec.run", id, root);
  Result<QueryResult> result = executor.ExecuteQuery(*instrumented);
  rec.End(span);
  rec.End(root);
  Check(result.status(), "ExecuteQuery");
  replay->shape_ms[stmt.shape].push_back(Ms(rec.spans()[root].duration_ns()));

  if (seltrig::PlanToString(*instrumented) != through_session->plan_text) {
    errors->push_back("replayed plan differs from the plan Session ran for: " +
                      stmt.sql.substr(0, 80));
  }
  const seltrig::AccessedState* state = registry.Find(kAuditName);
  const size_t replay_accessed = state == nullptr ? 0 : state->SortedIds().size();
  if (result->rows.size() != through_session->result.rows.size() ||
      replay_accessed != AccessedOf(*through_session).size()) {
    errors->push_back("replayed result differs from Session's for: " +
                      stmt.sql.substr(0, 80));
  }
  if (measure_overhead) MeasureAuditOverhead(db, session, *instrumented, *bare, replay);
}

Replay RunReplay(const Args& args, Database* db, std::vector<std::string>* errors) {
  Replay replay;
  std::unique_ptr<Session> session = db->CreateSession();
  // A stream of its own (client index kClients): the same generator and
  // mix, with insert ids disjoint from the measured clients'.
  StatementStream stream(args.workload, args.seed, kClients);
  const int count = args.workload == Workload::kTpch ? 8 : 300;
  std::map<int, int> overhead_samples;
  for (int i = 0; i < count; ++i) {
    Stmt stmt = stream.Next();
    // Audit overhead: the first few statements of each SELECT shape.
    const bool overhead = !stmt.write && overhead_samples[stmt.shape]++ < 3;
    ReplayStatement(db, session.get(), stmt, next_stmt_id++, overhead, &replay, errors);
  }
  if (args.workload == Workload::kTpch) {
    // tpch_audit runs no writes; a no-op UPDATE of the sensitive table gives
    // the secondary-index pair a freshly invalidated index to rebuild.
    WriteThenLookup(db, session.get(),
                    "UPDATE customer SET c_comment = c_comment WHERE c_custkey = 1",
                    "customer", "c_mktsegment", Value::String("BUILDING"),
                    next_stmt_id++, &replay.rec, errors);
  }
  return replay;
}

// --- Reporting -------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics,
                        std::vector<std::string>* errors) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = metrics[i].value;
    if (!std::isfinite(value)) {  // JSON has no NaN; fail the run instead
      errors->push_back("metric " + metrics[i].name + " is not finite");
      value = 0;
    }
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + FormatDouble(value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string ShapeName(Workload w, int shape) {
  return w == Workload::kTpch ? TpchShapeName(shape) : kOltpShapeNames[shape];
}

std::vector<Metric> EndToEnd(const Args& args, const Phase& phase, double setup_s) {
  std::vector<double> reads, writes, all;
  std::map<int, std::vector<double>> by_shape;
  size_t completed = 0;
  for (const StmtRecord& r : phase.records) {
    if (!r.ok) continue;
    ++completed;
    all.push_back(r.latency_ms);
    by_shape[r.shape].push_back(r.latency_ms);
    if (!r.write) reads.push_back(r.latency_ms);
    if (r.journaled()) writes.push_back(r.latency_ms);
  }
  std::vector<double> shape_medians;
  for (auto& [shape, v] : by_shape) shape_medians.push_back(Median(v));
  const double attempted = static_cast<double>(phase.records.size());
  // Human-readable context for the metrics: error rate, sample counts, and
  // each statement shape's latency.
  std::string shapes;
  for (auto& [shape, v] : by_shape) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"n\": %zu, \"p50_ms\": %.3f, \"p99_ms\": %.3f}",
                  shapes.empty() ? "" : ", ", ShapeName(args.workload, shape).c_str(),
                  v.size(), Median(v), Percentile(v, 0.99));
    shapes += buf;
  }
  std::printf(
      "{\"report\": {\"error_rate\": %.6f, \"attempted\": %zu, \"failed\": %zu, "
      "\"degraded_acks\": %zu, \"reconnects\": %llu, \"reads\": %zu, \"journaled\": %zu, "
      "\"shapes\": {%s}}}\n",
      phase.failed / attempted, phase.records.size(), phase.failed, phase.degraded,
      static_cast<unsigned long long>(phase.reconnects), reads.size(), writes.size(),
      shapes.c_str());
  return {
      {"setup_s", setup_s, "s"},
      {"stmt_per_s", completed / phase.elapsed_s, "1/s"},
      {"read_p50_ms", Median(reads), "ms"},
      {"read_p99_ms", Percentile(reads, 0.99), "ms"},
      {"write_p50_ms", Median(writes), "ms"},
      {"write_p99_ms", Percentile(writes, 0.99), "ms"},
      {"query_geomean_ms", Geomean(shape_medians), "ms"},
      {"query_p90_ms", Percentile(all, 0.90), "ms"},
      {"journal_bytes_per_stmt", phase.journal_bytes / attempted, "bytes"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / v.size();
}

std::vector<Metric> PerLayer(const Phase& untraced, const Phase& traced,
                             const Replay& replay, const std::vector<SetupTimes>& setups) {
  std::vector<Metric> m;
  // Replayed layer spans: mean microseconds per replayed statement that has
  // the layer.
  std::map<std::string, std::vector<double>> layer_us;
  for (const Span& s : replay.rec.spans()) layer_us[s.name].push_back(s.duration_ns() / 1e3);
  for (const char* name : {"sql.parse", "binder.bind", "optimizer.optimize", "audit.place",
                           "optimizer.post_place", "exec.build", "exec.run",
                           "storage.secondary_lookup_cold",
                           "storage.secondary_lookup_warm"}) {
    m.push_back({std::string(name) + "_us", MeanOf(layer_us[name]), "us"});
  }
  // Concurrent-phase spans and counters (traced phase).
  std::set<uint64_t> acked_stmts;
  std::vector<double> stmt_ms, stmt_self_ms;
  const std::vector<int64_t> self = SelfTimesNs(traced.spans);
  double ack_total_ms = 0;
  for (size_t i = 0; i < traced.spans.size(); ++i) {
    const Span& s = traced.spans[i];
    if (s.name == "engine.stmt") {
      stmt_ms.push_back(Ms(s.duration_ns()));
      stmt_self_ms.push_back(Ms(self[i]));
    } else if (s.name == "replication.ack_wait") {
      acked_stmts.insert(s.stmt_id);
      ack_total_ms += Ms(s.duration_ns());
    }
  }
  double acked_stmt_ms = 0;
  for (const Span& s : traced.spans) {
    if (s.name == "engine.stmt" && acked_stmts.count(s.stmt_id)) {
      acked_stmt_ms += Ms(s.duration_ns());
    }
  }
  m.push_back({"engine.stmt_ms", MeanOf(stmt_ms), "ms"});
  m.push_back({"engine.stmt_self_ms", MeanOf(stmt_self_ms), "ms"});

  // engine.write_phase_ms: per shape, the concurrent statement's median
  // latency minus the replayed parse-through-run median, weighted by the
  // shape's share of the traced phase.
  std::map<int, std::vector<double>> traced_by_shape;
  size_t selects = 0, completed = 0, journaled = 0;
  double rows_probed = 0, probe_hits = 0, prescreened = 0, accessed = 0, scanned = 0,
         result_rows = 0, subqueries = 0;
  for (const StmtRecord& r : traced.records) {
    if (!r.ok) continue;
    ++completed;
    traced_by_shape[r.shape].push_back(r.latency_ms);
    if (r.journaled()) ++journaled;
    if (r.write) continue;
    ++selects;
    rows_probed += r.stats.rows_through_audit_ops;
    probe_hits += r.stats.audit_probe_hits;
    prescreened += r.stats.audit_batches_prescreened;
    accessed += r.accessed;
    scanned += r.stats.rows_scanned;
    result_rows += r.rows;
    subqueries += r.stats.subquery_executions;
  }
  double write_phase = 0;
  size_t weighted = 0;
  for (auto& [shape, v] : traced_by_shape) {
    auto it = replay.shape_ms.find(shape);
    if (it == replay.shape_ms.end()) continue;
    write_phase += v.size() * (Median(v) - Median(it->second));
    weighted += v.size();
  }
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  m.push_back({"engine.write_phase_ms", ratio(write_phase, weighted), "ms"});
  m.push_back({"audit.ops_per_plan", ratio(replay.audit_ops, replay.selects), "count"});
  m.push_back({"audit.rows_probed_per_stmt", ratio(rows_probed, selects), "count"});
  m.push_back({"audit.probe_hit_ratio", ratio(probe_hits, rows_probed), "ratio"});
  m.push_back({"audit.prescreened_batches_per_stmt", ratio(prescreened, selects), "count"});
  m.push_back({"audit.accessed_ids_per_stmt", ratio(accessed, selects), "count"});
  m.push_back({"audit.log_rows_per_stmt", ratio(traced.log_rows, completed), "count"});
  m.push_back({"audit.overhead_pct",
               100.0 * (ratio(replay.instrumented_ms, replay.bare_ms) - 1.0), "%"});
  m.push_back({"exec.rows_scanned_per_row", ratio(scanned, result_rows), "ratio"});
  m.push_back({"exec.subqueries_per_stmt", ratio(subqueries, selects), "count"});
  m.push_back({"storage.wal_bytes_per_stmt", ratio(traced.journal_bytes, journaled),
               "bytes"});
  m.push_back({"replication.ack_wait_us",
               ratio(ack_total_ms * 1e3, acked_stmts.size()), "us"});
  m.push_back({"replication.ack_share", ratio(ack_total_ms, acked_stmt_ms), "ratio"});
  m.push_back({"replication.catchup_ms", traced.catchup_ms, "ms"});
  m.push_back({"replication.degraded_events", static_cast<double>(traced.degraded),
               "count"});
  m.push_back({"replication.records_applied", static_cast<double>(traced.records_applied),
               "count"});
  m.push_back({"replication.reconnects", static_cast<double>(traced.reconnects), "count"});

  std::vector<double> load, view, checkpoint;
  for (const SetupTimes& t : setups) {
    load.push_back(t.load_ms);
    view.push_back(t.view_build_ms);
    checkpoint.push_back(t.checkpoint_ms);
  }
  m.push_back({"setup.load_ms", Median(load), "ms"});
  m.push_back({"audit.view_build_ms", Median(view), "ms"});
  m.push_back({"engine.checkpoint_ms", Median(checkpoint), "ms"});

  auto rate = [](const Phase& p) {
    size_t ok = 0;
    for (const StmtRecord& r : p.records) ok += r.ok ? 1 : 0;
    return ok / p.elapsed_s;
  };
  const double untraced_rate = rate(untraced);
  const double traced_rate = rate(traced);
  m.push_back({"trace.stmt_per_s_delta", untraced_rate - traced_rate, "1/s"});
  m.push_back({"trace.overhead_pct",
               100.0 * ratio(untraced_rate - traced_rate, untraced_rate), "%"});

  std::vector<std::string> exact, normalized;
  for (const StmtRecord& r : untraced.records) {
    exact.push_back(r.sql);
    normalized.push_back(NormalizeLiterals(r.sql));
  }
  m.push_back({"workload.exact_repeat_share", RepeatShare(exact), "ratio"});
  m.push_back({"workload.normalized_repeat_share", RepeatShare(normalized), "ratio"});
  return m;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Fail("unexpected argument " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) Fail("arguments come in --key value pairs");
  args.workload_name = kv["workload"];
  if (args.workload_name == "tpch_audit") {
    args.workload = Workload::kTpch;
  } else if (args.workload_name == "oltp_audit") {
    args.workload = Workload::kOltp;
  } else if (args.workload_name == "oltp_audit_sync") {
    args.workload = Workload::kOltpSync;
  } else {
    Fail("unknown --workload '" + args.workload_name + "'");
  }
  if (kv.count("seed")) args.seed = std::stoull(kv["seed"]);
  if (kv.count("seconds")) args.seconds = std::stod(kv["seconds"]);
  args.trace = kv.count("trace") && kv["trace"] == "1";
  args.work_dir = kv["work-dir"];
  args.trace_out = kv["trace-out"];
  if (kv.count("git-sha")) args.git_sha = kv["git-sha"];
  if (args.work_dir.empty()) Fail("--work-dir is required");
  if (args.seconds <= 0) Fail("--seconds must be positive");
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"clients\": %d}}\n",
      args.workload_name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.git_sha.c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, kClients);
  std::fflush(stdout);
  std::vector<std::string> errors;
  SpanRecorder setup_rec;

  // Set-up runs kSetups times and setup_s is the median. The measured phase
  // runs on the last database; a traced run first runs its untraced phase on
  // the second-to-last.
  constexpr int kSetups = 5;
  const int first_measured = kSetups - (args.trace ? 2 : 1);
  std::vector<SetupTimes> times(kSetups);
  std::vector<Reference> refs;
  std::vector<Phase> phases;
  Replay replay;
  for (int i = 0; i < kSetups; ++i) {
    std::unique_ptr<Bench> bench =
        SetUp(args, args.work_dir + "/db" + std::to_string(i), &times[i], &setup_rec,
              next_stmt_id++);
    if (i < first_measured) continue;
    WarmUp(args, bench->db.get(), &refs, &errors);
    const bool traced = args.trace && i == kSetups - 1;
    phases.push_back(RunPhase(args, bench.get(), traced, refs, &errors));
    if (traced) replay = RunReplay(args, bench->db.get(), &errors);
  }
  const Phase& reported = phases.back();

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(phases[0], reported, replay, times);
    if (!args.trace_out.empty()) {
      std::vector<Span> spans;
      for (const std::vector<Span>* part :
           {&setup_rec.spans(), &reported.spans, &replay.rec.spans()}) {
        AppendSpans(*part, &spans);
      }
      std::ofstream out(args.trace_out);
      out << SpansToJsonLines(spans);
    }
  } else {
    std::vector<double> setup_s;
    for (const SetupTimes& t : times) setup_s.push_back(t.total_s);
    metrics = EndToEnd(args, reported, Median(setup_s));
  }
  const std::string metrics_json = MetricsJson(metrics, &errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "auditbench: CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              errors.empty() ? "true" : "false", reported.records.size(), reported.failed,
              metrics_json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
