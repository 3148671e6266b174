#ifndef MIDAS_MAINTAIN_MIDAS_H_
#define MIDAS_MAINTAIN_MIDAS_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "midas/cluster/clustering.h"
#include "midas/cluster/csg.h"
#include "midas/common/budget.h"
#include "midas/graph/graphlet.h"
#include "midas/index/fct_index.h"
#include "midas/index/ife_index.h"
#include "midas/maintain/modification.h"
#include "midas/maintain/small_patterns.h"
#include "midas/maintain/swap.h"
#include "midas/obs/event_log.h"
#include "midas/obs/lineage.h"
#include "midas/select/candidate_gen.h"
#include "midas/select/catapult.h"
#include "midas/view/view_catalog.h"

namespace midas {

class UpdateJournal;

namespace obs {
class QualityDriftDetector;
}  // namespace obs

/// End-to-end configuration of the MIDAS framework.
struct MidasConfig {
  FctSet::Config fct;                    ///< sup_min, max tree size
  ClusterSet::Config cluster;            ///< k, max cluster size N
  PatternBudget budget;                  ///< (η_min, η_max, γ)
  WalkConfig walk;
  double epsilon = 0.1;                  ///< evolution ratio threshold ε
  /// Distribution distance used by the major/minor classifier. The paper
  /// (and our ablation bench) find the choice immaterial; ε's scale depends
  /// on the measure.
  DistributionDistance distance_measure = DistributionDistance::kEuclidean;
  double kappa = 0.1;                    ///< swapping threshold κ
  double lambda = 0.1;                   ///< swapping threshold λ
  SwapConfig swap;                       ///< multi-scan parameters
  size_t sample_cap = 400;               ///< lazy sampling for scov
  size_t pcp_starts = 2;
  size_t max_candidates = 256;
  uint64_t seed = 42;
  /// Small-pattern panel (η <= 2) maintained alongside the main set; set
  /// both slot counts to 0 to disable.
  SmallPatternPanel::Config small_panel;

  /// Retained MaintenanceHistory rounds (0 = unbounded). The history is a
  /// ring buffer: older rounds are evicted once the cap is reached, but
  /// Summarize() keeps counting them — a long-lived serving deployment gets
  /// bounded memory without losing its lifetime aggregates.
  size_t history_capacity = 4096;

  /// Per-round execution budget (0 = unlimited). When either limit is set,
  /// every search kernel of the round (FCT maintenance probes + delta
  /// mining, exact-GED refinement, multi-scan swap) shares one ExecBudget
  /// and degrades gracefully on exhaustion: mining returns the trees found
  /// so far, GED falls back to its anytime upper bound, the swap keeps the
  /// swaps already applied. The panel always remains valid (swap is
  /// one-for-one), truncation is reported in MaintenanceStats::truncated,
  /// the `midas_budget_exhausted_*` metrics and the event log.
  double round_deadline_ms = 0.0;   ///< wall-clock cap per ApplyUpdate
  uint64_t round_step_limit = 0;    ///< search-step cap per ApplyUpdate

  /// Shed mode (the serving host's overload ladder flips these; both
  /// default off so standalone rounds are bit-identical to historical
  /// output). `shed_diversity_refresh` skips the two
  /// RefreshDiversityAndScores passes of a round — diversity/score columns
  /// go stale but the panel stays valid. `shed_candidate_cap` (when > 0)
  /// caps candidate generation below max_candidates.
  bool shed_diversity_refresh = false;
  size_t shed_candidate_cap = 0;

  /// Worker threads for the maintenance hot loops (VF2 coverage, pairwise
  /// GED, MCCS splits, graphlet census, mining support counts, candidate
  /// scoring). 1 = the serial reference path (no threads spawned);
  /// 0 = std::thread::hardware_concurrency(). The parallel schedules are
  /// thread-count-invariant: identical config + seed produce identical
  /// pattern sets at any setting (see docs/performance.md).
  int num_threads = 1;

  /// Incrementally-maintained materialized views (view/view_catalog.h):
  /// the refresh phase delta-applies per-pattern coverage, lcov
  /// accumulators and the pairwise-distance memo from the round's Δ⁺/Δ⁻
  /// instead of rescanning |D|, falling back to the full-recompute oracle
  /// when the cost model says the churn is too large. Both paths are
  /// bit-identical, so this is purely a performance knob. The MIDAS_VIEWS
  /// environment variable ("off"/"0") force-disables it process-wide — the
  /// views-off ctest configuration uses that to keep the oracle exercised.
  bool incremental_views = true;
};

/// Sanity-checks a configuration before an engine is built. Returns
/// human-readable problems; empty means valid. Violations of the paper's
/// constraints (η_min > 2, Definition 3.1) are errors; dubious-but-legal
/// settings come back prefixed "warning:".
std::vector<std::string> ValidateConfig(const MidasConfig& config);

/// X-macro over the per-phase wall-time fields of MaintenanceStats, in
/// report order. Anything phase-shaped added to the struct must be added
/// here too — ToJson/FromJson, PhaseSumMs, the maintenance event log, and
/// the per-phase metric histograms are all generated from this list, and a
/// static_assert in midas.cc trips when the struct grows without it.
#define MIDAS_MAINTENANCE_PHASES(X) \
  X(apply_ms)                       \
  X(fct_ms)                         \
  X(cluster_ms)                     \
  X(csg_ms)                         \
  X(index_ms)                       \
  X(refresh_ms)                     \
  X(candidate_ms)                   \
  X(swap_ms)

/// Timing and outcome report of one maintenance round (the PMT breakdown of
/// Section 7). All phase timings are measured by obs::TraceSpan, which also
/// feeds the `midas_maintain_<phase>_ms` histograms of the current
/// obs::MetricsRegistry; the phases partition the round, so they sum to
/// total_ms up to span overhead.
struct MaintenanceStats {
  double total_ms = 0.0;      ///< PMT: full Algorithm 1 wall time
  double apply_ms = 0.0;      ///< ΔD application + graphlet census upkeep
  double fct_ms = 0.0;        ///< FCT maintenance (line 5)
  double cluster_ms = 0.0;    ///< cluster assignment/removal/fine split
  double csg_ms = 0.0;        ///< CSG maintenance (line 7)
  double index_ms = 0.0;      ///< index maintenance (line 12)
  double refresh_ms = 0.0;    ///< metric refresh + classification + panel
  double candidate_ms = 0.0;  ///< candidate generation (Section 5)
  double swap_ms = 0.0;       ///< multi-scan swap (Section 6)
  double graphlet_distance = 0.0;
  bool major = false;
  /// True when the round's execution budget ran out and some phase was cut
  /// short (see MidasConfig::round_deadline_ms). The round still completed
  /// and the panel is valid — quality is degraded, not correctness.
  bool truncated = false;
  /// Incremental-view outcome of the refresh phase (view/view_catalog.h):
  /// `view_delta` when the delta-apply path ran; `view_fallback` when the
  /// views were usable but the cost model (or the |Δ|/|D| guard) chose the
  /// full-recompute oracle instead. Both false = views disabled or not yet
  /// seeded. The row counts split the round's pattern refreshes by path.
  bool view_delta = false;
  bool view_fallback = false;
  int candidates = 0;
  int swaps = 0;
  int view_delta_rows = 0;
  int view_rescan_rows = 0;

  /// "delta", "rescan" or "off" — the /statusz and event-log spelling of
  /// the refresh strategy this round.
  const char* ViewStrategy() const {
    if (view_delta) return "delta";
    return view_rescan_rows > 0 ? "rescan" : "off";
  }

  /// Sum of every phase field (excluding total_ms); the phases cover the
  /// whole round, so this tracks total_ms to within span overhead.
  double PhaseSumMs() const;

  /// Round-trippable single-line JSON (all fields). FromJson(ToJson(s))
  /// reproduces s exactly.
  std::string ToJson() const;
  /// Parses ToJson output. On malformed input returns a default-constructed
  /// stats and sets *ok=false (when provided).
  static MaintenanceStats FromJson(std::string_view json, bool* ok = nullptr);
};

/// Rolling record of maintenance rounds — operational telemetry a
/// deployment would chart (PMT over time, major/minor mix, swap volume).
///
/// Bounded: at most `capacity` recent rounds are retained (ring buffer;
/// capacity 0 = unbounded). Eviction never distorts the aggregates —
/// Summarize() runs on lifetime accumulators updated at Record time, so
/// `rounds`, totals, means and maxima keep counting evicted rounds.
class MaintenanceHistory {
 public:
  struct Summary {
    size_t rounds = 0;
    size_t major_rounds = 0;
    int total_swaps = 0;
    double total_pmt_ms = 0.0;
    double mean_pmt_ms = 0.0;
    double max_pmt_ms = 0.0;
  };

  explicit MaintenanceHistory(size_t capacity = 4096)
      : capacity_(capacity) {}

  void Record(const MaintenanceStats& stats);
  /// Rounds recorded over the object's lifetime, including evicted ones.
  size_t rounds() const { return recorded_; }
  /// Rounds currently retained (<= capacity when capped).
  size_t retained() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }
  /// Rounds dropped by the ring buffer so far.
  size_t evicted() const { return recorded_ - entries_.size(); }
  /// The retained window, oldest first (the last element is the most recent
  /// round; with a cap, the first is round `evicted() + 1`).
  const std::deque<MaintenanceStats>& entries() const { return entries_; }
  Summary Summarize() const;

 private:
  size_t capacity_ = 4096;
  std::deque<MaintenanceStats> entries_;
  // Lifetime accumulators (survive eviction).
  size_t recorded_ = 0;
  size_t major_rounds_ = 0;
  int total_swaps_ = 0;
  double total_pmt_ms_ = 0.0;
  double max_pmt_ms_ = 0.0;
};

/// Maintenance strategy selector for the Section 7 baselines.
enum class MaintenanceMode {
  kMidas,       ///< full Algorithm 1 (multi-scan swap on major updates)
  kRandomSwap,  ///< structures maintained, random swapping instead
  kNoMaintain,  ///< structures maintained, pattern set left untouched
};

/// Aggregate pattern-set quality (the scov/lcov/div/cog panels of Figs 13-16).
struct PatternQuality {
  double scov = 0.0;
  double lcov = 0.0;
  double div = 0.0;
  double cog_avg = 0.0;
  double cog_max = 0.0;
};

/// The MIDAS framework (Algorithm 1): owns the evolving database and every
/// derived structure — FCT pool, clusters, CSGs, FCT-/IFE-indices, and the
/// canned pattern set — and maintains all of them under batch updates.
class MidasEngine {
 public:
  MidasEngine(GraphDatabase db, const MidasConfig& config);
  ~MidasEngine();

  MidasEngine(const MidasEngine&) = delete;
  MidasEngine& operator=(const MidasEngine&) = delete;

  /// Mines FCTs, builds clusters/CSGs/indices and selects the initial canned
  /// pattern set (CATAPULT++ selection). Must be called once before
  /// ApplyUpdate.
  void Initialize();
  /// Same derivation as Initialize(), but installs `panel` (via
  /// LoadPatterns) instead of selecting one: snapshot restore, the CLI's
  /// saved-panel commands and RebuildDerivedState. The ledger is kept and
  /// reconciled with `panel` at round_seq(), so a restore deserializes its
  /// ledger and sets the round counter before calling this.
  void Initialize(PatternSet panel);

  /// Applies a batch update ΔD and maintains everything per Algorithm 1.
  MaintenanceStats ApplyUpdate(const BatchUpdate& delta,
                               MaintenanceMode mode = MaintenanceMode::kMidas);

  /// Attaches a query log (Section 3.5 extension): subsequent swaps boost
  /// pattern scores by log frequency. Non-owning; pass nullptr to detach.
  void SetQueryLog(const QueryLog* log) { config_.swap.query_log = log; }

  /// Attaches a maintenance event log: every subsequent ApplyUpdate appends
  /// one structured JSONL record (Δ sizes, classification, per-phase
  /// timings, resulting quality). Non-owning; pass nullptr to detach.
  void SetEventLog(obs::MaintenanceEventLog* log) { event_log_ = log; }

  /// Attaches a write-ahead journal (journal.h): every subsequent
  /// ApplyUpdate appends a fsync'd batch record *before* touching any
  /// state and a commit record (with the post-round panel) after the round.
  /// A failed batch append throws std::runtime_error with the engine
  /// untouched; a crash mid-round is recovered by RecoverEngine, losing at
  /// most the in-flight round. Non-owning; pass nullptr to detach.
  void SetJournal(UpdateJournal* journal) { journal_ = journal; }
  UpdateJournal* journal() const { return journal_; }

  /// Attaches a pattern-quality drift detector (obs/sli.h): after every
  /// committed round the engine feeds it the Definition 2.1 quality
  /// components; a healthy->drifted transition is recorded as a
  /// `quality_drift` line in the attached event log (and the detector
  /// itself exports the `midas_quality_drift_*` metrics). Non-owning;
  /// pass nullptr to detach.
  void SetDriftDetector(obs::QualityDriftDetector* detector) {
    drift_ = detector;
  }
  obs::QualityDriftDetector* drift_detector() const { return drift_; }

  /// Per-pattern provenance ledger (obs/lineage.h): birth, every re-score,
  /// and death of every pattern that ever entered the panel, with the
  /// swap-decision rationale captured at the decision site. Journaled as
  /// `@L` deltas and persisted by snapshots, so it survives recovery
  /// bit-identically.
  const obs::PatternLedger& lineage() const { return ledger_; }
  obs::PatternLedger* lineage_mutable() { return &ledger_; }

  /// Suppresses live lineage recording while recovery replays journaled
  /// rounds (the journaled `@L` deltas are applied verbatim instead, so
  /// replay cannot double-count).
  void SetLineageReplay(bool on) { lineage_replay_ = on; }
  bool lineage_replay() const { return lineage_replay_; }

  /// Fast-forwards the pattern-id allocator (snapshot/journal restore
  /// only; never lowers it). Keeps post-recovery births from reusing ids
  /// of dead patterns already in the ledger.
  void RestorePatternIds(PatternId next_id) {
    patterns_.RestoreNextId(next_id);
  }

  /// Whether Initialize() has completed (ApplyUpdate and LoadPatterns
  /// require it; serving hosts use this to initialize lazily in Start).
  bool initialized() const { return initialized_; }

  /// Overrides the per-round execution budget for subsequent ApplyUpdate
  /// calls (same semantics as MidasConfig::round_deadline_ms /
  /// round_step_limit; 0 = unlimited). EngineHost uses this to tighten the
  /// budget on each retry of a failing batch.
  void SetRoundLimits(double deadline_ms, uint64_t step_limit) {
    config_.round_deadline_ms = deadline_ms;
    config_.round_step_limit = step_limit;
  }

  /// Toggles shed mode for subsequent rounds (same semantics as
  /// MidasConfig::shed_diversity_refresh / shed_candidate_cap). The
  /// serving host's degradation ladder engages this on the shed-work rung
  /// and reverts it on recovery; both off = historical full-quality rounds.
  void SetShedMode(bool shed_diversity_refresh, size_t candidate_cap) {
    config_.shed_diversity_refresh = shed_diversity_refresh;
    config_.shed_candidate_cap = candidate_cap;
  }
  bool shed_mode() const { return config_.shed_diversity_refresh; }

  /// Replaces the task pool with one of `num_threads` executors (same
  /// semantics as MidasConfig::num_threads; joins the old workers). Only
  /// safe between rounds — the serving host applies
  /// HostConfig::num_threads before Initialize/ApplyUpdate.
  void SetNumThreads(int num_threads);

  /// Number of completed maintenance rounds. Persisted by snapshots as
  /// snapshot_seq so recovery knows which journaled rounds are already
  /// reflected in the restored state.
  uint64_t round_seq() const { return round_seq_; }
  /// Fast-forwards the round counter to `seq` (snapshot restore only;
  /// never lowers it).
  void RestoreRoundSeq(uint64_t seq);

  /// Replaces the canned pattern set on the current derived state (recovery
  /// installs a journaled round's panel this way). Metrics are recomputed
  /// against the current database and the pattern columns of both indices
  /// are re-registered. Requires the derived state of an Initialize call.
  void LoadPatterns(PatternSet set);

  /// Initialize(patterns()): re-derives every derived structure (graphlet
  /// census, FCT pool, clusters, CSGs, FCT-/IFE-indices, coverage
  /// evaluator) from the current base database and reinstalls the existing
  /// panel with fresh metrics. The panel itself is kept — this is the
  /// integrity scrubber's cheapest repair rung for derived-state
  /// corruption, not a reselection. Falls back to Initialize() when the
  /// engine was never initialized.
  void RebuildDerivedState();

  const GraphDatabase& db() const { return db_; }
  /// Mutable access to the label dictionary only: interning is append-only
  /// (existing ids never change), so external tools may intern new labels
  /// when staging batch updates or restoring pattern panels.
  LabelDictionary& labels() { return db_.labels(); }
  const PatternSet& patterns() const { return patterns_; }
  const FctSet& fcts() const { return fcts_; }
  const ClusterSet& clusters() const { return clusters_; }
  const std::map<ClusterId, Csg>& csgs() const { return csgs_; }
  const FctIndex& fct_index() const { return fct_index_; }
  const IfeIndex& ife_index() const { return ife_index_; }
  const CoverageEvaluator& evaluator() const { return *eval_; }
  const MidasConfig& config() const { return config_; }
  /// The η <= 2 companion panel (frequent edges/wedges; see
  /// small_patterns.h), refreshed on every update.
  const SmallPatternPanel& small_panel() const { return small_panel_; }

  /// Telemetry of every ApplyUpdate round since Initialize().
  const MaintenanceHistory& history() const { return history_; }

  /// The incremental-view catalog (cost model + pairwise-distance view).
  /// Read-only: tests and the serving host inspect strategy state here.
  const view::ViewCatalog& views() const { return views_; }

  /// The engine-owned task pool (never null; serial when num_threads <= 1).
  TaskPool* pool() const { return pool_.get(); }

  PatternQuality CurrentQuality() const;

 private:
  /// Everything Initialize derives from the database and config before a
  /// panel exists: census, FCT pool, clusters (rng_), CSGs, indices without
  /// pattern columns, GED estimator, coverage evaluator (rng_ above
  /// sample_cap) and the small panel.
  void DeriveState();
  /// Rebuilds CSGs whose member set diverged from their cluster (splits) and
  /// drops CSGs of deleted clusters; incremental Add/Remove handles the rest.
  void ReconcileCsgs();
  /// Drops and rebuilds every CSG from the current clusters (parallel,
  /// inserted in ascending cluster-id order).
  void RebuildCsgsFromClusters();
  /// Recomputes scov/lcov/cog of every pattern (one pool task per pattern).
  void RefreshAllPatternMetrics();
  /// Delta-applies the round's Δ⁺/Δ⁻ to every pattern's coverage/lcov view:
  /// removed universe ids are cleared from coverage bitsets without any VF2
  /// work, added ids are probed via CoverageOver (FCT/IFE candidate filter
  /// first), and lcov numerators are re-unioned only for patterns whose
  /// edge labels intersect `changed_pairs`. Produces byte-identical state
  /// to RefreshAllPatternMetrics by construction.
  void DeltaRefreshPatternMetrics(const view::ViewCatalog::Plan& plan,
                                  const std::set<EdgeLabelPair>& changed_pairs);
  /// Registers/unregisters pattern columns in both indices to match P.
  void SyncPatternColumns();
  /// Affected csgs (C⁺ ∪ C⁻ ∪ newly created) as a csg map view.
  std::map<ClusterId, Csg> AffectedCsgView(
      const std::vector<ClusterId>& affected) const;

  MidasConfig config_;
  Rng rng_;
  /// Work-stealing pool shared by every phase of the engine (common/parallel).
  /// Owned here so one set of threads serves the engine's whole lifetime.
  std::unique_ptr<TaskPool> pool_;
  GraphDatabase db_;
  GraphletCensus census_;
  FctSet fcts_;
  ClusterSet clusters_;
  std::map<ClusterId, Csg> csgs_;
  FctIndex fct_index_;
  IfeIndex ife_index_;
  std::unique_ptr<CoverageEvaluator> eval_;
  PatternSet patterns_;
  std::set<PatternId> indexed_patterns_;
  /// The one diversity measure used for swapping and reporting; rebuilt
  /// whenever the FCT universe changes (HybridGed over the feature trees).
  GedEstimator ged_;
  SmallPatternPanel small_panel_;
  MaintenanceHistory history_;
  obs::MaintenanceEventLog* event_log_ = nullptr;  ///< non-owning
  UpdateJournal* journal_ = nullptr;               ///< non-owning
  obs::QualityDriftDetector* drift_ = nullptr;     ///< non-owning
  /// The one budget every kernel of the current round shares. A stable
  /// member (not a stack object) because the HybridGed closure captures its
  /// address; reset per round, returned to unlimited between rounds so
  /// out-of-round calls (LoadPatterns, CurrentQuality) never degrade.
  ExecBudget round_budget_;
  /// Materialized-view catalog: committed evaluation universe, per-row cost
  /// EWMAs and the pairwise-distance memo. Invalid until the first full
  /// rescan commits it (Initialize's selection uses its own evaluator, so
  /// its coverage is not guaranteed against eval_'s universe).
  view::ViewCatalog views_;
  /// Digest of the feature trees behind ged_ — the pair-distance view's
  /// validity key (view entries estimated under another FCT generation can
  /// never be read back).
  uint64_t ged_digest_ = 0;
  obs::PatternLedger ledger_;
  bool lineage_replay_ = false;
  uint64_t round_seq_ = 0;
  bool initialized_ = false;
};

/// From-scratch regeneration baselines (Section 7.1): rebuilds everything on
/// the current database and reselects patterns. `plus_plus` switches between
/// plain CATAPULT (frequent-subtree features, no indices) and CATAPULT++
/// (FCT features + FCT-/IFE-indices).
struct FromScratchResult {
  PatternSet patterns;
  double mine_ms = 0.0;
  double cluster_ms = 0.0;
  double index_ms = 0.0;
  double select_ms = 0.0;
  double total_ms = 0.0;
};

FromScratchResult RunFromScratch(const GraphDatabase& db,
                                 const MidasConfig& config, bool plus_plus,
                                 uint64_t seed);

/// Aggregate quality of an arbitrary pattern set against a database.
PatternQuality EvaluateQuality(const PatternSet& set, size_t universe_size);

}  // namespace midas

#endif  // MIDAS_MAINTAIN_MIDAS_H_
