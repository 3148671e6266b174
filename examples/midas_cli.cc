// midas_cli — a file-based command-line driver around the library, the way
// a deployment would wire MIDAS into an existing GUI backend.
//
//   midas_cli generate <out.db> <count> [aids|pubchem|emol] [seed]
//   midas_cli select   <db> <patterns.out> [gamma]
//   midas_cli maintain <db> <delta.db> <patterns.in> <patterns.out>
//   midas_cli report   <db> <patterns>
//   midas_cli stats    <db>
//   midas_cli snapshot <db> <patterns> <dir>   (persist engine state)
//   midas_cli restore  <dir> <patterns.out>    (resume from a snapshot)
//
// Databases and pattern sets are plain gSpan-format text files, so real
// datasets (AIDS, PubChem exports) drop in without code changes.

#include <fstream>
#include <iostream>
#include <string>

#include "midas/datagen/molecule_gen.h"
#include "midas/datagen/workload.h"
#include "midas/graph/graph_io.h"
#include "midas/graph/graph_statistics.h"
#include "midas/maintain/midas.h"
#include "midas/queryform/formulation.h"
#include "midas/maintain/snapshot.h"
#include "midas/select/pattern_io.h"

namespace {

using namespace midas;

int Usage() {
  std::cerr
      << "usage:\n"
      << "  midas_cli generate <out.db> <count> [aids|pubchem|emol] [seed]\n"
      << "  midas_cli select   <db> <patterns.out> [gamma]\n"
      << "  midas_cli maintain <db> <delta.db> <patterns.in> <patterns.out>\n"
      << "  midas_cli report   <db> <patterns>\n"
      << "  midas_cli stats    <db>\n"
      << "  midas_cli snapshot <db> <patterns> <dir>\n"
      << "  midas_cli restore  <dir> <patterns.out>\n";
  return 2;
}

bool LoadDb(const std::string& path, GraphDatabase* db) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return false;
  }
  if (!ReadDatabase(in, db)) {
    std::cerr << "malformed database file " << path << "\n";
    return false;
  }
  return true;
}

MidasConfig CliConfig(size_t gamma) {
  MidasConfig cfg;
  cfg.budget.eta_min = 3;
  cfg.budget.eta_max = 10;
  cfg.budget.gamma = gamma;
  cfg.fct.sup_min = 0.5;
  cfg.epsilon = 0.005;
  cfg.sample_cap = 300;
  cfg.seed = 12345;
  return cfg;
}

int Generate(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string out_path = argv[2];
  size_t count = static_cast<size_t>(std::stoul(argv[3]));
  std::string preset = argc > 4 ? argv[4] : "pubchem";
  uint64_t seed = argc > 5 ? std::stoull(argv[5]) : 1;

  MoleculeGenerator gen(seed);
  MoleculeGenConfig cfg = preset == "aids" ? MoleculeGenerator::AidsLike(count)
                          : preset == "emol"
                              ? MoleculeGenerator::EmolLike(count)
                              : MoleculeGenerator::PubchemLike(count);
  GraphDatabase db = gen.Generate(cfg);
  std::ofstream out(out_path);
  WriteDatabase(db, out);
  std::cout << "wrote " << db.size() << " graphs to " << out_path << "\n";
  return 0;
}

int Select(int argc, char** argv) {
  if (argc < 4) return Usage();
  GraphDatabase db;
  if (!LoadDb(argv[2], &db)) return 1;
  size_t gamma = argc > 4 ? std::stoul(argv[4]) : 16;

  MidasEngine engine(std::move(db), CliConfig(gamma));
  engine.Initialize();
  std::ofstream out(argv[3]);
  WritePatternSet(engine.patterns(), engine.db().labels(), out);
  std::cout << "selected " << engine.patterns().size() << " patterns -> "
            << argv[3] << "\n";
  return 0;
}

int Maintain(int argc, char** argv) {
  if (argc < 6) return Usage();
  GraphDatabase db;
  if (!LoadDb(argv[2], &db)) return 1;
  GraphDatabase delta_db;
  if (!LoadDb(argv[3], &delta_db)) return 1;

  MidasEngine engine(std::move(db), CliConfig(16));

  // Derive the engine's structures and install the panel from disk.
  {
    std::ifstream in(argv[4]);
    if (!in) {
      std::cerr << "cannot open " << argv[4] << "\n";
      return 1;
    }
    PatternSet panel;
    if (!ReadPatternSet(in, engine.labels(), &panel)) {
      std::cerr << "malformed pattern file " << argv[4] << "\n";
      return 1;
    }
    engine.Initialize(std::move(panel));
  }

  // The delta file's graphs are the batch insertions (labels re-mapped by
  // name into the engine's dictionary).
  BatchUpdate delta;
  for (const auto& [id, g] : delta_db.graphs()) {
    delta.insertions.push_back(
        RemapLabels(g, delta_db.labels(), engine.labels()));
  }

  MaintenanceStats stats = engine.ApplyUpdate(delta);
  std::cout << "applied +" << delta.insertions.size() << " graphs: "
            << (stats.major ? "major" : "minor") << " modification, "
            << stats.swaps << " swaps, PMT " << stats.total_ms << " ms\n";

  std::ofstream out(argv[5]);
  WritePatternSet(engine.patterns(), engine.db().labels(), out);
  std::cout << "maintained panel -> " << argv[5] << "\n";
  return 0;
}

int Stats(int argc, char** argv) {
  if (argc < 3) return Usage();
  GraphDatabase db;
  if (!LoadDb(argv[2], &db)) return 1;
  PrintStatistics(ComputeStatistics(db), std::cout);
  return 0;
}

int Report(int argc, char** argv) {
  if (argc < 4) return Usage();
  GraphDatabase db;
  if (!LoadDb(argv[2], &db)) return 1;

  PatternSet panel;
  {
    std::ifstream in(argv[3]);
    if (!in) {
      std::cerr << "cannot open " << argv[3] << "\n";
      return 1;
    }
    if (!ReadPatternSet(in, db.labels(), &panel)) {
      std::cerr << "malformed pattern file " << argv[3] << "\n";
      return 1;
    }
  }

  FctSet fcts = FctSet::Mine(db, {0.5, 3, 20000});
  Rng rng(9);
  CoverageEvaluator eval(db, 300, rng);
  for (auto& [pid, p] : panel.patterns()) {
    RefreshPatternMetrics(p, eval, fcts);
  }
  RefreshDiversityAndScores(panel, GedFeatureTrees(fcts));

  QueryGenConfig qcfg;
  qcfg.count = 100;
  qcfg.min_edges = 4;
  qcfg.max_edges = 16;
  std::vector<Graph> queries = GenerateQueries(db, qcfg, rng);

  PatternQuality q = EvaluateQuality(panel, eval.universe().size());
  std::cout << "patterns: " << panel.size() << "\n"
            << "f_scov: " << q.scov << "\nf_lcov: " << q.lcov
            << "\nf_div: " << q.div << "\ncog(avg/max): " << q.cog_avg << "/"
            << q.cog_max << "\n"
            << "missed %: " << MissedPercentage(queries, panel) << "\n"
            << "mean steps: " << MeanSteps(queries, panel) << "\n";
  return 0;
}

int Snapshot(int argc, char** argv) {
  if (argc < 5) return Usage();
  GraphDatabase db;
  if (!LoadDb(argv[2], &db)) return 1;
  MidasEngine engine(std::move(db), CliConfig(16));
  std::ifstream in(argv[3]);
  if (!in) {
    std::cerr << "cannot open " << argv[3] << "\n";
    return 1;
  }
  PatternSet panel;
  if (!ReadPatternSet(in, engine.labels(), &panel)) {
    std::cerr << "malformed pattern file " << argv[3] << "\n";
    return 1;
  }
  engine.Initialize(std::move(panel));
  if (!SaveSnapshot(engine, argv[4])) {
    std::cerr << "cannot write snapshot to " << argv[4] << "\n";
    return 1;
  }
  std::cout << "snapshot -> " << argv[4] << "\n";
  return 0;
}

int Restore(int argc, char** argv) {
  if (argc < 4) return Usage();
  std::string error;
  std::unique_ptr<MidasEngine> engine = RestoreEngine(argv[2], &error);
  if (engine == nullptr) {
    std::cerr << "cannot restore from " << argv[2] << ": " << error << "\n";
    return 1;
  }
  std::ofstream out(argv[3]);
  WritePatternSet(engine->patterns(), engine->db().labels(), out);
  std::cout << "restored engine with " << engine->db().size()
            << " graphs; panel -> " << argv[3] << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "generate") return Generate(argc, argv);
  if (cmd == "select") return Select(argc, argv);
  if (cmd == "maintain") return Maintain(argc, argv);
  if (cmd == "report") return Report(argc, argv);
  if (cmd == "stats") return Stats(argc, argv);
  if (cmd == "snapshot") return Snapshot(argc, argv);
  if (cmd == "restore") return Restore(argc, argv);
  return Usage();
}
