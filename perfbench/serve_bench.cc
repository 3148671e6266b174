// Serving-path benchmark: runs serve::EngineHost under one update workload
// and reports update freshness, panel quality and per-stage cost.
//
// One invocation is one phase of one run, in a fresh process (the
// ComputeCache and the MetricsRegistry are process-wide, so a warm process
// would flatter the next measurement):
//
//   serve_bench setup   --workload W --seed S --dir D
//       generate |D|, initialize the engine, start the host; time it.
//   serve_bench run     --workload W --seed S --seconds T --trace 0|1 --dir D
//       setup, then the load phase against the live host, then the
//       correctness gate. Leaves the engine directory in D for `recover`.
//   serve_bench restore --dir D      (traced runs) time RestoreEngine alone
//   serve_bench recover --workload W --dir D [--trace 0|1]
//       time RecoverEngine on D, check it reproduces the last published
//       panel, and run VerifyEngineDeep on the recovered engine.
//
// Each phase prints one JSON object as its last stdout line; perfbench/
// run.py aggregates the phases of a run into the benchmark's result line.
// Threads during the load phase: one generator (submits batches and polls
// snapshot()), one GUI reader (snapshot() + panel walk at 60 Hz) and the
// host's writer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "midas/common/checksum.h"
#include "midas/common/rng.h"
#include "midas/datagen/molecule_gen.h"
#include "midas/graph/compute_cache.h"
#include "midas/maintain/journal.h"
#include "midas/maintain/midas.h"
#include "midas/maintain/snapshot.h"
#include "midas/maintain/verify.h"
#include "midas/obs/json.h"
#include "midas/obs/metrics.h"
#include "midas/select/pattern_io.h"
#include "midas/serve/engine_host.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using midas::BatchUpdate;
using midas::GraphDatabase;
using midas::GraphId;
using midas::MidasConfig;
using midas::MidasEngine;
using midas::MoleculeGenConfig;
using midas::MoleculeGenerator;
using midas::Rng;
using midas::serve::EngineHost;
using midas::serve::PanelSnapshotPtr;
using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  size_t db_size = 300;
  double epsilon = 0.0;      ///< 0 keeps MidasConfig's default ε
  size_t batch_graphs = 3;   ///< insertions (and deletions) per batch
  bool drift = false;        ///< novel-family / existing-family waves
  bool open_loop = false;    ///< follow the arrival schedule below
  /// fresh_ms_tail percentile: the highest one with at least 10 samples
  /// beyond it at the workload's 10-second run length.
  double tail_pct = 95.0;
  /// Upper bound on the batch rate the input pool is sized for.
  double max_rate = 300.0;
};

// The initial database is the same for every run of a workload (a fixed
// dataset, like the paper's corpora); --seed varies the update stream. A
// per-seed database would make panel quality a property of the draw: two
// PubchemLike(300) draws gave scov 1.0 and 0.55 under the same engine.
constexpr uint64_t kWorldSeed = 2021;

// Open-loop schedule of `burst`: 20 batches/s, plus 2 s at 200 batches/s
// starting 3 s into every 10-second period. The burst must overrun the
// writer whatever the host's speed: on a shared 4-core Xeon VM steady-shaped
// rounds took 12-22 ms as co-tenant load changed (45-80 batches/s), and at
// 100 batches/s the queue built during a burst scaled with
// (rate - capacity) / capacity, so the burst's latencies moved three- to
// four-fold with host speed alone.
constexpr double kBaseRate = 20.0;
constexpr double kBurstRate = 200.0;
constexpr double kBurstPeriodS = 10.0;
constexpr double kBurstStartS = 3.0;
constexpr double kBurstLengthS = 2.0;

// Checkpoint cadence the host uses by default (HostConfig::checkpoint_every);
// the bare-engine replay mirrors it.
constexpr uint64_t kCheckpointEvery = 32;
// Generator poll interval for snapshot() (well below a round).
constexpr int kPollMicros = 50;
// GUI reader frame interval (60 Hz).
constexpr double kFrameMs = 1000.0 / 60.0;
// Panel digests are recorded at every multiple of this round seq.
constexpr uint64_t kDigestEvery = 32;
// Closed loops end with this many rounds journaled since the last
// checkpoint (half the cadence: a restart at a random moment replays 16 on
// average). Batches after the measured window top the run up to it, so
// recovery time does not follow a 0..31-round sawtooth of the run's length.
constexpr uint64_t kRecoverReplayRounds = 16;

bool FindWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "steady") {
    w.tail_pct = 97.0;
  } else if (name == "large") {
    w.db_size = 700;
    w.tail_pct = 93.0;
  } else if (name == "drift") {
    w.epsilon = 0.003;
    w.batch_graphs = 15;
    w.drift = true;
    w.tail_pct = 75.0;
    w.max_rate = 100.0;
  } else if (name == "burst") {
    w.open_loop = true;
    w.tail_pct = 94.0;
  } else {
    return false;
  }
  *out = w;
  return true;
}

MidasConfig EngineConfig(const Workload& w) {
  MidasConfig config;
  if (w.epsilon > 0.0) config.epsilon = w.epsilon;
  return config;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload = "steady";
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else {
      return false;
    }
  }
  return !args->dir.empty();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// A uniform draw of k ids (partial Fisher-Yates over `ids`).
std::vector<GraphId> PickUniform(std::vector<GraphId> ids, size_t k, Rng& rng) {
  k = std::min(k, ids.size());
  for (size_t i = 0; i < k; ++i) {
    std::swap(ids[i], ids[static_cast<size_t>(rng.UniformInt(
                          static_cast<int64_t>(i),
                          static_cast<int64_t>(ids.size()) - 1))]);
  }
  ids.resize(k);
  return ids;
}

/// CRC32 of the panel in pattern_io's text form (ids, structure, label
/// names) — equal digests mean the same canned patterns under the same ids.
std::string PanelDigest(const midas::PatternSet& panel,
                        const midas::LabelDictionary& labels) {
  std::ostringstream out;
  midas::WritePatternSet(panel, labels, out);
  return midas::Crc32Hex(midas::Crc32(out.str()));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in /proc/mounts).
std::string FsType(const std::string& path) {
  std::ifstream in("/proc/mounts");
  std::string dev, mnt, type, rest;
  std::string best_type = "unknown";
  size_t best_len = 0;
  while (in >> dev >> mnt >> type) {
    std::getline(in, rest);
    const bool prefix =
        path.rfind(mnt, 0) == 0 &&
        (mnt == "/" || path.size() == mnt.size() || path[mnt.size()] == '/');
    if (prefix && mnt.size() >= best_len) {
      best_len = mnt.size();
      best_type = type;
    }
  }
  return best_type;
}

/// Registry counters the per-layer metrics are derived from (deltas over
/// the load phase, divided by applied rounds).
const char* const kCounters[] = {
    "midas_mining_extensions_tried_total",
    "midas_graph_iso_runs_total",
    "midas_graph_iso_nodes_visited_total",
    "midas_cache_hit_total",
    "midas_cache_miss_total",
    "midas_cache_evict_total",
    "midas_maintain_candidates_total",
    "midas_maintain_swaps_total",
    "midas_graph_ged_exact_calls_total",
    "midas_maintain_major_rounds_total",
    "midas_cluster_splits_total",
    "midas_journal_bytes_written_total",
};

std::map<std::string, uint64_t> ReadCounters() {
  std::map<std::string, uint64_t> out;
  auto& registry = midas::obs::MetricsRegistry::Current();
  for (const char* name : kCounters) {
    out[name] = registry.GetCounter(name)->Value();
  }
  return out;
}

/// Minimal flat JSON object writer for the phase result line.
class Out {
 public:
  Out() { w_.BeginObject(); }
  Out& Num(const std::string& key, double v) {
    w_.Key(key).Value(std::isfinite(v) ? v : 0.0);
    return *this;
  }
  Out& Int(const std::string& key, uint64_t v) {
    w_.Key(key).Value(v);
    return *this;
  }
  Out& Str(const std::string& key, const std::string& v) {
    w_.Key(key).Value(v);
    return *this;
  }
  Out& Strings(const std::string& key, const std::vector<std::string>& v) {
    w_.Key(key).BeginArray();
    for (const std::string& s : v) w_.Value(s);
    w_.EndArray();
    return *this;
  }
  Out& NumMap(const std::string& key, const std::map<std::string, double>& m) {
    w_.Key(key).BeginObject();
    for (const auto& [k, v] : m) w_.Key(k).Value(std::isfinite(v) ? v : 0.0);
    w_.EndObject();
    return *this;
  }
  Out& StrMap(const std::string& key,
              const std::map<std::string, std::string>& m) {
    w_.Key(key).BeginObject();
    for (const auto& [k, v] : m) w_.Key(k).Value(v);
    w_.EndObject();
    return *this;
  }
  void Print() {
    w_.EndObject();
    std::cout << w_.str() << std::endl;
  }

 private:
  midas::obs::JsonWriter w_;
};

// ---------------------------------------------------------------------------
// Setup: initial database, engine, host
// ---------------------------------------------------------------------------

struct World {
  Workload workload;
  MoleculeGenConfig data;
  std::unique_ptr<MoleculeGenerator> gen;  ///< the update stream (--seed)
  GraphDatabase shadow;  ///< copy of the initial database (id prediction)
  std::unique_ptr<EngineHost> host;
  double setup_s = 0.0;
  double initialize_s = 0.0;
  double start_s = 0.0;
};

bool SetUp(const Workload& w, uint64_t seed, const std::string& dir,
           World* world, std::string* error) {
  world->workload = w;
  const auto t0 = Clock::now();
  world->data = MoleculeGenerator::PubchemLike(w.db_size);
  GraphDatabase db = MoleculeGenerator(kWorldSeed).Generate(world->data);
  world->gen = std::make_unique<MoleculeGenerator>(seed);
  world->shadow = db;
  auto engine = std::make_unique<MidasEngine>(std::move(db), EngineConfig(w));
  const auto t1 = Clock::now();
  engine->Initialize();
  const auto t2 = Clock::now();
  world->host = std::make_unique<EngineHost>(std::move(engine), dir,
                                             midas::serve::HostConfig());
  if (!world->host->Start(error)) return false;
  const auto t3 = Clock::now();
  world->initialize_s = Ms(t1, t2) / 1000.0;
  world->start_s = Ms(t2, t3) / 1000.0;
  world->setup_s = Ms(t0, t3) / 1000.0;
  return true;
}

// ---------------------------------------------------------------------------
// Inputs (all generated before the load phase)
// ---------------------------------------------------------------------------

/// Closed-loop batches, generated against the shadow database so that
/// deletion ids name graphs that are live when the batch is applied.
std::vector<BatchUpdate> ClosedLoopBatches(World* world, size_t count,
                                           uint64_t seed) {
  const Workload& w = world->workload;
  MoleculeGenerator& gen = *world->gen;
  GraphDatabase& shadow = world->shadow;
  Rng pick(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<BatchUpdate> out;
  out.reserve(count);

  auto uniform_deletions = [&](size_t k, const std::set<GraphId>& exclude) {
    std::vector<GraphId> ids;
    for (GraphId id : shadow.Ids()) {
      if (exclude.count(id) == 0) ids.push_back(id);
    }
    return PickUniform(std::move(ids), k, pick);
  };

  if (!w.drift) {
    while (out.size() < count) {
      BatchUpdate b =
          gen.GenerateAdditions(shadow, world->data, w.batch_graphs, false);
      b.deletions = uniform_deletions(w.batch_graphs, {});
      shadow.ApplyBatch(b);
      out.push_back(std::move(b));
    }
    return out;
  }

  // drift: four batches of novel-family insertions with uniform deletions,
  // then four batches of existing-family insertions that delete the wave's
  // novel graphs again. |D| and the label mix are stationary per cycle. The
  // 8-round cycle divides the checkpoint cadence, so every checkpoint (and
  // the end of the top-up) falls on a cycle boundary: with 5+5 waves the
  // restored database held 0..75 novel graphs depending on where the run
  // happened to stop, and restore time varied 2x with it.
  constexpr size_t kWave = 4;
  while (out.size() < count) {
    std::vector<std::vector<GraphId>> wave;
    std::set<GraphId> wave_ids;
    for (size_t j = 0; j < kWave && out.size() < count; ++j) {
      BatchUpdate b =
          gen.GenerateAdditions(shadow, world->data, w.batch_graphs, true);
      b.deletions = uniform_deletions(w.batch_graphs, wave_ids);
      std::vector<GraphId> inserted = shadow.ApplyBatch(b);
      wave_ids.insert(inserted.begin(), inserted.end());
      wave.push_back(std::move(inserted));
      out.push_back(std::move(b));
    }
    for (size_t j = 0; j < wave.size() && out.size() < count; ++j) {
      BatchUpdate b =
          gen.GenerateAdditions(shadow, world->data, w.batch_graphs, false);
      b.deletions = wave[j];
      shadow.ApplyBatch(b);
      out.push_back(std::move(b));
    }
  }
  return out;
}

/// One scheduled open-loop batch: insertions are pre-generated; deletions
/// are drawn at submit time from the latest snapshot (see OpenLoop).
struct Scheduled {
  double due_ms = 0.0;
  BatchUpdate insertions;
  uint64_t pick_seed = 0;
};

/// Insertions for the open loop's post-window top-up (see RestartTopUp).
std::vector<BatchUpdate> TopUpInsertions(World* world) {
  std::vector<BatchUpdate> out;
  for (uint64_t i = 0; i < kRecoverReplayRounds; ++i) {
    out.push_back(world->gen->GenerateAdditions(
        world->shadow, world->data, world->workload.batch_graphs, false));
  }
  return out;
}

std::vector<Scheduled> OpenLoopSchedule(World* world, double seconds,
                                        uint64_t seed) {
  std::vector<Scheduled> out;
  Rng seeds(seed * 0xD1B54A32D192ED03ull + 5);
  double t = 0.0;
  while (t < seconds) {
    Scheduled s;
    s.due_ms = t * 1000.0;
    s.insertions = world->gen->GenerateAdditions(
        world->shadow, world->data, world->workload.batch_graphs, false);
    s.pick_seed = static_cast<uint64_t>(seeds.UniformInt(1, INT64_MAX));
    out.push_back(std::move(s));
    const double phase = std::fmod(t, kBurstPeriodS);
    const bool in_burst =
        phase >= kBurstStartS && phase < kBurstStartS + kBurstLengthS;
    t += 1.0 / (in_burst ? kBurstRate : kBaseRate);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Load phase
// ---------------------------------------------------------------------------

/// The expected live-id set, advanced by every accepted batch in order —
/// the engine assigns insertion ids sequentially from next_id().
struct Expected {
  std::set<GraphId> live;
  GraphId next_id = 0;
  void Apply(const std::vector<GraphId>& deletions, size_t insertions) {
    for (GraphId id : deletions) live.erase(id);
    for (size_t i = 0; i < insertions; ++i) live.insert(next_id++);
  }
};

struct LoadResult {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t shed = 0;
  uint64_t other_rejects = 0;  ///< validation / overflow / timeout / stopped
  uint64_t visible = 0;
  // The measured window (closed loops run top-up batches after it).
  uint64_t measured_submitted = 0;
  uint64_t measured_visible = 0;
  uint64_t graphs_applied = 0;
  double load_s = 0.0;
  std::vector<double> fresh_ms;      ///< per applied batch
  std::vector<double> submit_us;     ///< traced runs only
  std::vector<double> lateness_ms;   ///< open loop: Submit start - due
  std::vector<double> read_us;       ///< GUI reader snapshot() (traced)
  double poll_period_us = 0.0;       ///< measured mean poll period
  uint64_t reader_frames = 0;
  // Quality over distinct published snapshots of the load phase.
  uint64_t snapshots = 0;
  double scov = 0.0, lcov = 0.0, div = 0.0, cog = 0.0;
  std::map<uint64_t, std::string> digests;  ///< seq -> panel digest
  // Per applied batch, in seq order (traced runs).
  std::vector<std::string> trace_ids;
  std::vector<std::shared_ptr<const midas::obs::FlightRecord>> flights;
  std::vector<double> submit_ms_of;  ///< Submit call duration per batch
  std::vector<double> late_ms_of;    ///< generator lateness per batch
  std::vector<BatchUpdate> applied;  ///< copies for the bare replay
  std::vector<std::string> errors;
};

class Poller {
 public:
  Poller(const EngineHost& host, LoadResult* r, uint64_t base_seq)
      : host_(host), r_(r), last_seq_(base_seq) {}

  /// Snapshots revealed after this call no longer count toward the panel
  /// quality means (top-up rounds after the measured window).
  void EndWindow() { measuring_ = false; }

  /// Reads the current snapshot; accounts quality/digests for every new
  /// round it reveals. Returns the visible round seq.
  uint64_t Poll() {
    PanelSnapshotPtr snap = host_.snapshot();
    ++polls_;
    if (snap->round_seq > last_seq_) {
      last_seq_ = snap->round_seq;
      if (measuring_) {
        ++r_->snapshots;
        r_->scov += snap->quality.scov;
        r_->lcov += snap->quality.lcov;
        r_->div += snap->quality.div;
        r_->cog += snap->quality.cog_avg;
      }
      if (snap->round_seq % kDigestEvery == 0) {
        r_->digests[snap->round_seq] =
            PanelDigest(snap->patterns, *snap->labels);
      }
    }
    return last_seq_;
  }
  uint64_t polls() const { return polls_; }

 private:
  const EngineHost& host_;
  LoadResult* r_;
  uint64_t last_seq_;
  uint64_t polls_ = 0;
  bool measuring_ = true;
};

/// GUI reader: snapshot() and a walk of the panel at 60 Hz.
class GuiReader {
 public:
  GuiReader(const EngineHost& host, bool timed)
      : host_(host), timed_(timed), thread_([this] { Loop(); }) {}
  ~GuiReader() { Stop(); }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& read_us() const { return read_us_; }
  uint64_t frames() const { return frames_; }

 private:
  void Loop() {
    auto next = Clock::now();
    while (!stop_.load(std::memory_order_acquire)) {
      const auto t0 = Clock::now();
      PanelSnapshotPtr snap = host_.snapshot();
      if (timed_) {
        read_us_.push_back(Ms(t0, Clock::now()) * 1000.0);
      }
      // Render: touch every pattern's structure and quality columns.
      for (const auto& [id, p] : snap->patterns.patterns()) {
        checksum_ += id + p.graph.NumVertices() + p.graph.NumEdges() +
                     static_cast<uint64_t>(p.scov * 1000.0);
      }
      ++frames_;
      next += std::chrono::microseconds(
          static_cast<int64_t>(kFrameMs * 1000.0));
      std::this_thread::sleep_until(next);
    }
  }

  const EngineHost& host_;
  const bool timed_;
  std::atomic<bool> stop_{false};
  std::vector<double> read_us_;
  uint64_t frames_ = 0;
  uint64_t checksum_ = 0;
  std::thread thread_;
};

/// Fetches the flight records of applied batches whose round is older than
/// `visible_seq`: a round's record is finished only after its snapshot is
/// published, so it is complete once a later round is visible (or once the
/// writer has stopped). Fetching promptly keeps records ahead of eviction
/// from the host's flight ring.
void CollectFlights(const EngineHost& host, uint64_t base, uint64_t visible_seq,
                    LoadResult* r) {
  while (r->flights.size() < r->trace_ids.size() &&
         base + r->flights.size() + 1 < visible_seq) {
    r->flights.push_back(host.flights().Find(r->trace_ids[r->flights.size()]));
  }
}

void SleepPoll() {
  std::this_thread::sleep_for(std::chrono::microseconds(kPollMicros));
}

/// Closed loop, one client: Submit, poll until visible, repeat. After the
/// measured window, top-up batches run until kRecoverReplayRounds rounds are
/// journaled since the last checkpoint.
void ClosedLoop(EngineHost& host, std::vector<BatchUpdate>& batches,
                double seconds, bool trace, Expected* expected,
                LoadResult* r) {
  const uint64_t base = host.snapshot()->round_seq;
  Poller poller(host, r, base);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto window_end = start;
  bool measuring = true;
  for (size_t i = 0; i < batches.size(); ++i) {
    if (measuring && Clock::now() >= end) {
      measuring = false;
      poller.EndWindow();
    }
    if (!measuring &&
        (base + r->accepted) % kCheckpointEvery == kRecoverReplayRounds) {
      break;
    }
    BatchUpdate copy;
    if (trace) copy = batches[i];
    const std::vector<GraphId> deletions = batches[i].deletions;
    const size_t insertions = batches[i].insertions.size();
    const auto t0 = Clock::now();
    midas::serve::SubmitResult res = host.Submit(std::move(batches[i]));
    const auto t1 = Clock::now();
    ++r->submitted;
    if (measuring) ++r->measured_submitted;
    if (!res.accepted()) {
      ++r->other_rejects;
      r->errors.push_back("closed-loop batch " + std::to_string(i) +
                          " not accepted (status " +
                          std::to_string(static_cast<int>(res.status)) + ")");
      break;  // later batches assume this one applied
    }
    ++r->accepted;
    const uint64_t want = base + r->accepted;
    uint64_t seen = 0;
    while ((seen = poller.Poll()) < want) SleepPoll();
    const auto t2 = Clock::now();
    ++r->visible;
    expected->Apply(deletions, insertions);
    if (trace) {
      CollectFlights(host, base, seen, r);
      r->applied.push_back(std::move(copy));
    }
    if (!measuring) continue;
    window_end = t2;
    ++r->measured_visible;
    r->graphs_applied += insertions + deletions.size();
    r->fresh_ms.push_back(Ms(t0, t2));
    if (trace) {
      r->submit_us.push_back(Ms(t0, t1) * 1000.0);
      r->submit_ms_of.push_back(Ms(t0, t1));
      r->late_ms_of.push_back(0.0);
      r->trace_ids.push_back(res.trace_id);
    }
  }
  r->load_s = Ms(start, window_end) / 1000.0;
  r->poll_period_us =
      poller.polls() > 0 ? Ms(start, Clock::now()) * 1000.0 / poller.polls()
                         : 0.0;
  if ((base + r->accepted) % kCheckpointEvery != kRecoverReplayRounds &&
      r->other_rejects == 0) {
    r->errors.push_back("input pool exhausted before the top-up finished");
  }
}

/// Open loop: follow the precomputed schedule regardless of completions.
void OpenLoop(EngineHost& host, std::vector<Scheduled>& schedule, bool trace,
              Expected* expected, LoadResult* r) {
  const uint64_t base = host.snapshot()->round_seq;
  Poller poller(host, r, base);
  struct Pending {
    uint64_t seq;
    Clock::time_point due;
    size_t graphs;
    std::vector<GraphId> deletions;
  };
  std::vector<Pending> pending;  // accepted, not yet visible (FIFO)
  size_t pending_head = 0;
  std::set<GraphId> scheduled_deletions;
  const auto start = Clock::now();
  size_t next = 0;

  auto drain_visible = [&](uint64_t seq, Clock::time_point now) {
    while (pending_head < pending.size() &&
           pending[pending_head].seq <= seq) {
      Pending& p = pending[pending_head++];
      ++r->visible;
      ++r->measured_visible;
      r->graphs_applied += p.graphs;
      r->fresh_ms.push_back(Ms(p.due, now));
      for (GraphId id : p.deletions) scheduled_deletions.erase(id);
    }
  };

  while (next < schedule.size() || pending_head < pending.size()) {
    const auto now = Clock::now();
    const uint64_t seen = poller.Poll();
    drain_visible(seen, now);
    if (trace) CollectFlights(host, base, seen, r);
    if (next < schedule.size()) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          schedule[next].due_ms));
      if (now >= due) {
        Scheduled& s = schedule[next++];
        // Deletions: uniform over the latest snapshot's live ids, minus ids
        // already promised to an accepted batch that is not yet visible.
        PanelSnapshotPtr snap = host.snapshot();
        std::vector<GraphId> ids;
        ids.reserve(snap->live_ids->size());
        for (GraphId id : *snap->live_ids) {
          if (scheduled_deletions.count(id) == 0) ids.push_back(id);
        }
        Rng pick(s.pick_seed);
        ids = PickUniform(std::move(ids), s.insertions.insertions.size(), pick);
        BatchUpdate batch = std::move(s.insertions);
        batch.deletions = ids;
        for (GraphId id : ids) scheduled_deletions.insert(id);
        BatchUpdate copy;
        if (trace) copy = batch;
        const size_t insertions = batch.insertions.size();
        const auto t0 = Clock::now();
        r->lateness_ms.push_back(Ms(due, t0));
        midas::serve::SubmitResult res = host.Submit(std::move(batch));
        const auto t1 = Clock::now();
        ++r->submitted;
        ++r->measured_submitted;
        if (trace) r->submit_us.push_back(Ms(t0, t1) * 1000.0);
        if (res.accepted()) {
          ++r->accepted;
          pending.push_back(
              Pending{base + r->accepted, due, insertions + ids.size(), ids});
          expected->Apply(ids, insertions);
          if (trace) {
            r->submit_ms_of.push_back(Ms(t0, t1));
            r->late_ms_of.push_back(Ms(due, t0));
            r->trace_ids.push_back(res.trace_id);
            r->applied.push_back(std::move(copy));
          }
        } else {
          // Shed or rejected: release its ids for later batches.
          for (GraphId id : ids) scheduled_deletions.erase(id);
          if (res.status == midas::serve::SubmitStatus::kShedOverload) {
            ++r->shed;
          } else {
            ++r->other_rejects;
            r->errors.push_back(
                "open-loop batch rejected (status " +
                std::to_string(static_cast<int>(res.status)) + ")");
          }
        }
        continue;  // re-poll before sleeping
      }
    }
    SleepPoll();
  }
  r->load_s = Ms(start, Clock::now()) / 1000.0;
  r->poll_period_us =
      poller.polls() > 0 ? r->load_s * 1e6 / poller.polls() : 0.0;
}

/// The open loop cannot top up through its own host: once CoDel starts
/// shedding, only an under-target queue wait seen at Pop clears it, and with
/// every Submit shed the queue stays empty. So the run restarts the way an
/// operator would (RecoverEngine on the engine directory, a fresh host), and
/// applies kRecoverReplayRounds closed-loop batches: the journal then ends
/// exactly like a closed loop's. Returns the restarted host (nullptr with
/// failures recorded).
std::unique_ptr<EngineHost> RestartTopUp(const Args& args,
                                         const PanelSnapshotPtr& published,
                                         std::vector<BatchUpdate> insertions,
                                         Expected* expected,
                                         std::vector<std::string>* failures) {
  midas::RecoverInfo info;
  std::unique_ptr<MidasEngine> engine = midas::RecoverEngine(args.dir, &info);
  if (engine == nullptr) {
    failures->push_back("RecoverEngine before the top-up: " + info.error);
    return nullptr;
  }
  if (engine->round_seq() != published->round_seq ||
      PanelDigest(engine->patterns(), engine->db().labels()) !=
          PanelDigest(published->patterns, *published->labels)) {
    failures->push_back("RecoverEngine did not reproduce the last panel");
  }
  auto host = std::make_unique<EngineHost>(std::move(engine), args.dir,
                                           midas::serve::HostConfig());
  std::string err;
  if (!host->Start(&err)) {
    failures->push_back("restarted host: " + err);
    return nullptr;
  }
  Rng pick(args.seed * 0xA24BAED4963EE407ull + 3);
  for (BatchUpdate& batch : insertions) {
    PanelSnapshotPtr snap = host->snapshot();
    const std::vector<GraphId> ids =
        PickUniform(*snap->live_ids, batch.insertions.size(), pick);
    batch.deletions = ids;
    const size_t added = batch.insertions.size();
    if (!host->Submit(std::move(batch)).accepted()) {
      failures->push_back("top-up batch not accepted");
      break;
    }
    expected->Apply(ids, added);
    while (host->snapshot()->round_seq == snap->round_seq) SleepPoll();
  }
  host->WaitIdle(std::chrono::milliseconds(60000));
  host->Stop();
  const midas::serve::HostStats hs = host->stats();
  if (hs.rounds_ok != kRecoverReplayRounds || hs.writer_rejected != 0 ||
      hs.quarantined != 0 || hs.recoveries != 0) {
    failures->push_back("restarted host did not apply the top-up cleanly");
  }
  return host;
}

// ---------------------------------------------------------------------------
// Traced-run helpers: flight records and the bare-engine replay
// ---------------------------------------------------------------------------

struct RoundCost {
  double queue_wait_ms = 0.0;
  double total_ms = 0.0;
  std::map<std::string, double> phase_ms;
  int64_t delta_rows = 0;
  int64_t rescan_rows = 0;
  uint64_t seq = 0;
};

struct ReplayCost {
  double journal_ms = 0.0;     ///< mean ApplyUpdate wall - total_ms
  double checkpoint_ms = 0.0;  ///< SaveCheckpoint time per round (amortized)
  double publish_ms = 0.0;     ///< mean cost of the host's publish steps
  std::string digest;          ///< panel digest after the last batch
};

/// Replays the applied batches through a bare engine with a journal and the
/// host's checkpoint cadence, timing what the host does around each round.
bool BareReplay(const Workload& w, const std::string& dir,
                const std::vector<BatchUpdate>& batches, ReplayCost* cost,
                std::string* error) {
  MoleculeGenerator gen(kWorldSeed);
  auto engine = std::make_unique<MidasEngine>(
      gen.Generate(MoleculeGenerator::PubchemLike(w.db_size)),
      EngineConfig(w));
  engine->Initialize();
  midas::UpdateJournal journal;
  if (!midas::SaveCheckpoint(*engine, dir, error)) return false;
  if (!journal.Open(dir + "/journal.log", error)) return false;
  if (!journal.Reset(error)) return false;
  engine->SetJournal(&journal);
  double journal_sum = 0.0, checkpoint_sum = 0.0, publish_sum = 0.0;
  uint64_t rounds = 0;
  for (const BatchUpdate& b : batches) {
    const auto t0 = Clock::now();
    midas::MaintenanceStats s = engine->ApplyUpdate(b);
    const auto t1 = Clock::now();
    journal_sum += std::max(0.0, Ms(t0, t1) - s.total_ms);
    ++rounds;
    if (rounds % kCheckpointEvery == 0) {
      const auto c0 = Clock::now();
      if (!midas::SaveCheckpoint(*engine, dir, error)) return false;
      checkpoint_sum += Ms(c0, Clock::now());
    }
    // The steps EngineHost::PublishSnapshot performs after a round.
    const auto p0 = Clock::now();
    auto snap = std::make_shared<midas::serve::PanelSnapshot>();
    snap->round_seq = engine->round_seq();
    snap->db_size = engine->db().size();
    snap->patterns = engine->patterns();
    snap->small_panel = engine->small_panel();
    snap->quality = engine->CurrentQuality();
    snap->live_ids = std::make_shared<const std::vector<GraphId>>(
        engine->db().Ids());
    snap->labels = std::make_shared<const midas::LabelDictionary>(
        engine->db().labels());
    snap->lineage =
        std::make_shared<const midas::obs::PatternLedger>(engine->lineage());
    snap->created_at = Clock::now();
    publish_sum += Ms(p0, snap->created_at);
  }
  engine->SetJournal(nullptr);
  const double n = std::max<uint64_t>(1, rounds);
  cost->journal_ms = journal_sum / n;
  cost->checkpoint_ms = checkpoint_sum / n;
  cost->publish_ms = publish_sum / n;
  cost->digest = PanelDigest(engine->patterns(), engine->db().labels());
  return true;
}

/// Per-layer metrics and the stage table of a traced run: round costs from
/// the host's flight records, work counts from registry counter deltas over
/// the load phase, and journal / checkpoint / publish costs from the
/// bare-engine replay. The stage table goes to stderr as well.
void ReportTraced(const Workload& w, const World& world, const LoadResult& r,
                  const std::vector<RoundCost>& rounds,
                  const ReplayCost& replay,
                  const std::map<std::string, uint64_t>& before,
                  const std::map<std::string, uint64_t>& after, Out* out) {
  std::map<std::string, double> layer;
  const double n = std::max<size_t>(1, rounds.size());
  auto delta = [&](const char* name) {
    return static_cast<double>(after.at(name) - before.at(name));
  };
  const double applied = std::max<uint64_t>(1, r.accepted);
  std::map<std::string, double> phase_mean;
  std::vector<double> totals, unattributed, queue_waits, residual;
  double delta_rows = 0.0, all_rows = 0.0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundCost& c = rounds[i];
    double sum = 0.0;
    for (const auto& [phase, ms] : c.phase_ms) {
      phase_mean[phase] += ms / n;
      sum += ms;
    }
    totals.push_back(c.total_ms);
    unattributed.push_back(c.total_ms - sum);
    queue_waits.push_back(c.queue_wait_ms);
    // Everything between Submit and visibility that is neither the
    // Submit call, the queue, nor the round itself.
    residual.push_back(r.fresh_ms[i] - r.late_ms_of[i] - r.submit_ms_of[i] -
                       c.queue_wait_ms - c.total_ms);
    delta_rows += c.delta_rows;
    all_rows += c.delta_rows + c.rescan_rows;
  }
  layer["mining.fct_ms_mean"] = phase_mean["fct_ms"];
  layer["mining.extensions_per_round"] =
      delta("midas_mining_extensions_tried_total") / applied;
  layer["view.refresh_ms_mean"] = phase_mean["refresh_ms"];
  layer["view.delta_row_share"] = all_rows > 0 ? delta_rows / all_rows : 0;
  layer["graph.iso_runs_per_round"] =
      delta("midas_graph_iso_runs_total") / applied;
  layer["graph.iso_nodes_per_round"] =
      delta("midas_graph_iso_nodes_visited_total") / applied;
  const double hits = delta("midas_cache_hit_total");
  const double misses = delta("midas_cache_miss_total");
  layer["graph.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  layer["graph.cache_evictions_per_round"] =
      delta("midas_cache_evict_total") / applied;
  layer["select.candidate_ms_mean"] = phase_mean["candidate_ms"];
  layer["select.candidates_per_round"] =
      delta("midas_maintain_candidates_total") / applied;
  layer["maintain.swap_ms_mean"] = phase_mean["swap_ms"];
  layer["maintain.swaps_per_round"] =
      delta("midas_maintain_swaps_total") / applied;
  layer["graph.ged_exact_per_round"] =
      delta("midas_graph_ged_exact_calls_total") / applied;
  layer["maintain.major_frac"] =
      delta("midas_maintain_major_rounds_total") / applied;
  layer["graph.apply_ms_mean"] = phase_mean["apply_ms"];
  layer["cluster.cluster_ms_mean"] = phase_mean["cluster_ms"];
  layer["cluster.csg_ms_mean"] = phase_mean["csg_ms"];
  layer["cluster.splits_per_round"] =
      delta("midas_cluster_splits_total") / applied;
  layer["index.index_ms_mean"] = phase_mean["index_ms"];
  layer["serve.submit_us_p50"] = Percentile(r.submit_us, 50.0);
  layer["serve.submit_us_p99"] = Percentile(r.submit_us, 99.0);
  layer["serve.queue_wait_ms_p50"] = Percentile(queue_waits, 50.0);
  layer["serve.queue_wait_ms_p99"] = Percentile(queue_waits, 99.0);
  layer["serve.shed_frac"] =
      r.measured_submitted > 0
          ? static_cast<double>(r.shed) / r.measured_submitted
          : 0.0;
  layer["serve.gen_lateness_ms_p99"] = Percentile(r.lateness_ms, 99.0);
  layer["serve.gen_lateness_ms_max"] = Percentile(r.lateness_ms, 100.0);
  layer["serve.residual_ms_mean"] = Mean(residual);
  layer["serve.residual_ms_p99"] = Percentile(residual, 99.0);
  layer["maintain.journal_ms_mean"] = replay.journal_ms;
  layer["maintain.checkpoint_ms_mean"] = replay.checkpoint_ms;
  layer["serve.publish_ms_mean"] = replay.publish_ms;
  layer["maintain.journal_bytes_per_round"] =
      delta("midas_journal_bytes_written_total") / applied;
  layer["select.initialize_s"] = world.initialize_s;
  layer["serve.start_s"] = world.start_s;
  layer["maintain.round_ms_p50"] = Percentile(totals, 50.0);
  layer["maintain.round_ms_p99"] = Percentile(totals, 99.0);
  layer["maintain.unattributed_ms_mean"] = Mean(unattributed);
  layer["serve.read_us_p99"] = Percentile(r.read_us, 99.0);
  layer["serve.fresh_ms_p50_traced"] = Percentile(r.fresh_ms, 50.0);
  out->NumMap("per_layer", layer);

  // Stage table: means per applied batch; the rows add up to the
  // fresh_ms mean, with what no row explains as its own row.
  std::map<std::string, double> stages;
  std::vector<std::pair<std::string, double>> rows;
  rows.emplace_back("generator lateness", Mean(r.late_ms_of));
  rows.emplace_back("submit call", Mean(r.submit_ms_of));
  rows.emplace_back("queue wait", Mean(queue_waits));
  for (const char* phase : {"apply_ms", "fct_ms", "cluster_ms", "csg_ms",
                            "index_ms", "refresh_ms", "candidate_ms",
                            "swap_ms"}) {
    rows.emplace_back(std::string("round ") + phase, phase_mean[phase]);
  }
  rows.emplace_back("round unattributed", Mean(unattributed));
  rows.emplace_back("journal (replay)", replay.journal_ms);
  rows.emplace_back("checkpoint (replay)", replay.checkpoint_ms);
  rows.emplace_back("publish (replay)", replay.publish_ms);
  double explained = 0.0;
  for (const auto& [name, ms] : rows) explained += ms;
  const double fresh_mean = Mean(r.fresh_ms);
  rows.emplace_back("unexplained remainder", fresh_mean - explained);
  std::cerr << "stage table (" << w.name << ", mean ms per applied batch, "
            << rounds.size() << " rounds)\n";
  int order = 0;
  for (const auto& [name, ms] : rows) {
    char key[16];
    std::snprintf(key, sizeof(key), "%02d ", order++);
    stages[key + name] = ms;
    std::fprintf(stderr, "  %-28s %10.3f\n", name.c_str(), ms);
  }
  std::fprintf(stderr, "  %-28s %10.3f\n", "= fresh_ms mean", fresh_mean);
  out->NumMap("stages", stages);
}

std::string Hostname() {
  std::ifstream in("/proc/sys/kernel/hostname");
  std::string h;
  std::getline(in, h);
  return h;
}

std::map<std::string, std::string> Environment(const Args& args,
                                               const Workload& w) {
  std::map<std::string, std::string> env;
  env["seed"] = std::to_string(args.seed);
  env["world_seed"] = std::to_string(kWorldSeed);
  env["workload"] = w.name;
  env["host_cores"] = std::to_string(std::thread::hardware_concurrency());
  env["cpu_model"] = CpuModel();
  env["fs_type"] = FsType(args.dir);
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  env["hostname"] = Hostname();
  env["poll_interval_us"] = std::to_string(kPollMicros);
  // Non-default configuration: everything else is MidasConfig{} and
  // HostConfig{} (num_threads stays at the serial default of 1).
  env["config.db_size"] = std::to_string(w.db_size);
  env["config.generator"] = "PubchemLike";
  env["config.batch"] = std::to_string(w.batch_graphs) + "+" +
                        std::to_string(w.batch_graphs);
  if (w.epsilon > 0.0) {
    std::ostringstream eps;
    eps << w.epsilon;
    env["config.epsilon"] = eps.str();
  }
  env["config.load"] = w.open_loop ? "open-loop 20/s, 100/s for 2 s every 10 s"
                                   : "closed-loop, 1 client";
  return env;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

int RunSetup(const Args& args, const Workload& w) {
  World world;
  std::string err;
  if (!SetUp(w, args.seed, args.dir, &world, &err)) {
    std::cerr << "setup failed: " << err << "\n";
    return 1;
  }
  world.host->Stop();
  Out().Num("setup_s", world.setup_s)
      .Num("initialize_s", world.initialize_s)
      .Num("start_s", world.start_s)
      .Print();
  return 0;
}

int RunLoad(const Args& args, const Workload& w) {
  World world;
  std::string err;
  if (!SetUp(w, args.seed, args.dir, &world, &err)) {
    std::cerr << "setup failed: " << err << "\n";
    return 1;
  }
  EngineHost& host = *world.host;
  Expected expected;
  for (GraphId id : world.shadow.Ids()) expected.live.insert(id);
  expected.next_id = world.shadow.next_id();

  // Inputs, generated before the load phase starts.
  std::vector<BatchUpdate> batches;
  std::vector<Scheduled> schedule;
  std::vector<BatchUpdate> top_up;
  if (w.open_loop) {
    schedule = OpenLoopSchedule(&world, args.seconds, args.seed);
    top_up = TopUpInsertions(&world);
  } else {
    batches = ClosedLoopBatches(
        &world,
        static_cast<size_t>(std::ceil(args.seconds * w.max_rate)) +
            kCheckpointEvery,
        args.seed);
  }
  const uint64_t base_seq = host.snapshot()->round_seq;
  const std::map<std::string, uint64_t> counters_before = ReadCounters();

  LoadResult r;
  GuiReader reader(host, args.trace);
  if (w.open_loop) {
    OpenLoop(host, schedule, args.trace, &expected, &r);
  } else {
    ClosedLoop(host, batches, args.seconds, args.trace, &expected, &r);
  }
  reader.Stop();
  r.read_us = reader.read_us();
  r.reader_frames = reader.frames();
  host.WaitIdle(std::chrono::milliseconds(60000));
  const std::map<std::string, uint64_t> counters_after = ReadCounters();
  host.Stop();
  // The serving process's peak, before the top-up restart or the bare
  // replay build a second engine in this process.
  const double peak_rss_mb = PeakRssMb();

  // Round costs from the host's own flight records (finished once the
  // writer has moved past the round; the writer is joined now).
  std::vector<RoundCost> rounds;
  uint64_t missing_flights = 0;
  if (args.trace) {
    CollectFlights(host, base_seq, UINT64_MAX, &r);
    for (const auto& rec : r.flights) {
      if (rec == nullptr || rec->outcome != "ok") {
        ++missing_flights;
        rounds.emplace_back();
        continue;
      }
      RoundCost c;
      c.queue_wait_ms = rec->queue_wait_ms;
      c.total_ms = rec->total_ms;
      for (const auto& [phase, ms] : rec->phase_ms) c.phase_ms[phase] = ms;
      c.delta_rows = rec->view_delta_rows;
      c.rescan_rows = rec->view_rescan_rows;
      c.seq = rec->seq;
      rounds.push_back(std::move(c));
    }
  }

  // ---- Correctness gate --------------------------------------------------
  std::vector<std::string> failures = r.errors;
  const midas::serve::HostStats hs = host.stats();
  PanelSnapshotPtr final_snap = host.snapshot();
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  check(r.visible == r.accepted, "accepted batches never became visible");
  check(final_snap->round_seq == base_seq + r.accepted,
        "final round_seq " + std::to_string(final_snap->round_seq) +
            " != base + accepted " + std::to_string(base_seq + r.accepted));
  check(hs.rounds_ok == r.accepted, "rounds_ok != accepted batches");
  check(hs.writer_rejected == 0, "writer_rejected > 0");
  check(hs.quarantined == 0, "quarantined > 0");
  check(hs.recoveries == 0, "in-process recoveries > 0");
  if (!w.open_loop) {
    check(r.accepted == r.submitted, "closed-loop batch not accepted");
  }
  {
    std::vector<GraphId> want(expected.live.begin(), expected.live.end());
    check(*final_snap->live_ids == want,
          "final live ids differ from the applied batches");
    check(final_snap->db_size == want.size(), "final db_size mismatch");
  }
  if (args.trace) {
    check(missing_flights == 0,
          std::to_string(missing_flights) + " flight records missing");
    for (size_t i = 0; i < rounds.size(); ++i) {
      if (rounds[i].seq != base_seq + 1 + i) {
        failures.push_back("flight record seq out of order");
        break;
      }
    }
  }
  const std::string final_digest =
      PanelDigest(final_snap->patterns, *final_snap->labels);

  PanelSnapshotPtr last_snap = final_snap;
  if (w.open_loop) {
    std::unique_ptr<EngineHost> restarted =
        RestartTopUp(args, final_snap, std::move(top_up), &expected, &failures);
    if (restarted != nullptr) {
      last_snap = restarted->snapshot();
      std::vector<GraphId> want(expected.live.begin(), expected.live.end());
      check(*last_snap->live_ids == want,
            "live ids after the top-up differ from the applied batches");
      check(last_snap->round_seq == final_snap->round_seq + kRecoverReplayRounds,
            "top-up round_seq mismatch");
    }
  }

  // State for the recover phase: the last panel any host published.
  {
    std::ofstream state(args.dir + "/perfbench_state.txt");
    state << last_snap->round_seq << " "
          << PanelDigest(last_snap->patterns, *last_snap->labels) << "\n";
  }

  Out out;
  out.Str("phase", "run")
      .StrMap("env", Environment(args, w))
      .Num("setup_s", world.setup_s)
      .Int("submitted", r.submitted)
      .Int("accepted", r.accepted)
      .Int("shed", r.shed)
      .Int("visible", r.visible)
      .Int("measured_submitted", r.measured_submitted)
      .Int("measured_visible", r.measured_visible)
      .Int("other_rejects", r.other_rejects)
      .Num("load_s", r.load_s)
      .Num("fresh_ms_p50", Percentile(r.fresh_ms, 50.0))
      .Num("fresh_ms_tail", Percentile(r.fresh_ms, w.tail_pct))
      .Num("fresh_ms_mean", Mean(r.fresh_ms))
      .Num("tail_pct", w.tail_pct)
      .Num("goodput_graphs_per_s",
           r.load_s > 0 ? r.graphs_applied / r.load_s : 0.0)
      .Num("batches_applied_frac",
           r.measured_submitted > 0
               ? static_cast<double>(r.measured_visible) / r.measured_submitted
               : 0.0)
      .Int("snapshots", r.snapshots)
      .Num("panel_scov", r.snapshots ? r.scov / r.snapshots : 0.0)
      .Num("panel_lcov", r.snapshots ? r.lcov / r.snapshots : 0.0)
      .Num("panel_div", r.snapshots ? r.div / r.snapshots : 0.0)
      .Num("panel_cog", r.snapshots ? r.cog / r.snapshots : 0.0)
      .Num("peak_rss_mb", peak_rss_mb)
      .Num("poll_period_us", r.poll_period_us)
      .Int("reader_frames", r.reader_frames)
      .Int("final_seq", final_snap->round_seq)
      .Str("final_digest", final_digest);
  if (!r.lateness_ms.empty()) {
    out.Num("gen_lateness_ms_p99", Percentile(r.lateness_ms, 99.0))
        .Num("gen_lateness_ms_max", Percentile(r.lateness_ms, 100.0));
  }
  std::map<std::string, std::string> digests;
  for (const auto& [seq, d] : r.digests) digests[std::to_string(seq)] = d;
  out.StrMap("digests", digests);

  if (args.trace) {
    ReplayCost replay;
    midas::ComputeCache::Global().Clear();
    if (!BareReplay(w, args.dir + "/bare_replay", r.applied, &replay, &err)) {
      failures.push_back("bare replay failed: " + err);
    } else {
      check(replay.digest == final_digest,
            "bare-engine replay panel differs from the host's final panel");
    }
    ReportTraced(w, world, r, rounds, replay, counters_before, counters_after,
                 &out);
  }
  out.Strings("failures", failures).Print();
  return 0;
}

/// Reads the run phase's last published round and panel digest.
bool ReadState(const std::string& dir, uint64_t* seq, std::string* digest) {
  std::ifstream in(dir + "/perfbench_state.txt");
  return static_cast<bool>(in >> *seq >> *digest);
}

int RunRestore(const Args& args) {
  std::string err;
  const auto t0 = Clock::now();
  std::unique_ptr<MidasEngine> engine =
      midas::RestoreEngine(args.dir + "/snapshot", &err);
  const double restore_s = Ms(t0, Clock::now()) / 1000.0;
  if (engine == nullptr) {
    std::cerr << "RestoreEngine failed: " << err << "\n";
    return 1;
  }
  Out().Str("phase", "restore").Num("restore_s", restore_s).Print();
  return 0;
}

int RunRecover(const Args& args) {
  std::vector<std::string> failures;
  midas::RecoverInfo info;
  const auto t0 = Clock::now();
  std::unique_ptr<MidasEngine> engine = midas::RecoverEngine(args.dir, &info);
  const double recover_s = Ms(t0, Clock::now()) / 1000.0;
  if (engine == nullptr) {
    std::cerr << "RecoverEngine failed: " << info.error << "\n";
    return 1;
  }
  uint64_t want_seq = 0;
  std::string want_digest;
  if (!ReadState(args.dir, &want_seq, &want_digest)) {
    failures.push_back("run state missing");
  } else {
    if (engine->round_seq() != want_seq) {
      failures.push_back("recovered round_seq " +
                         std::to_string(engine->round_seq()) +
                         " != published " + std::to_string(want_seq));
    }
    if (PanelDigest(engine->patterns(), engine->db().labels()) !=
        want_digest) {
      failures.push_back("recovered panel differs from the last published");
    }
  }
  midas::IntegrityReport report;
  midas::VerifyEngineDeep(*engine, midas::VerifyOptions(), &report);
  if (!report.clean()) {
    failures.push_back("VerifyEngineDeep: " + report.Describe());
  }
  Out().Str("phase", "recover")
      .Num("recover_s", recover_s)
      .Int("replayed_rounds", info.replayed)
      .Int("dropped_inflight", info.dropped_inflight)
      .Strings("failures", failures)
      .Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: serve_bench setup|run|restore|recover "
                 "--workload W --seed S --seconds T --trace 0|1 --dir D\n";
    return 2;
  }
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  try {
    if (args.mode == "setup") return RunSetup(args, w);
    if (args.mode == "run") return RunLoad(args, w);
    if (args.mode == "restore") return RunRestore(args);
    if (args.mode == "recover") return RunRecover(args);
  } catch (const std::exception& e) {
    std::cerr << "serve_bench " << args.mode << ": " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown mode: " << args.mode << "\n";
  return 2;
}
