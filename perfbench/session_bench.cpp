// Caller-session benchmark for the basker solver (perfbench/README.md).
//
// A caller session is what a circuit simulator pays: construct a solver
// (2 threads, otherwise default options), symbolic(A), numeric(A), then S
// transient steps of refactor(A') + solve(x) on a fixed pattern with new
// values. Three modes, each printing one JSON object on stdout:
//
//   --mode e2e     untraced sessions for --seconds; medians of setup,
//                  factor and step time, and the process's peak RSS.
//   --mode layers  the traced layer pass: times calls into each module's
//                  public functions (graph replay of symbolic(), Basker at
//                  p = 1 / p = 2, traced and untraced, and the KLU
//                  baseline) on the workload's first matrix and value walk,
//                  and reads BaskerStats::trace. Writes its spans and the
//                  library's own trace timeline to --trace-dir.
//   --mode suite   self-test helper: checks that each workload's generator
//                  parameters reproduce its gen::suite entry.
//
// Every session's matrix values, value walk and right-hand sides are
// derived from --seed; the pattern is the workload's suite matrix. The
// solver under test sees only the generated inputs.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "basker/bench_support/report.hpp"
#include "basker/common/prng.hpp"
#include "basker/common/timer.hpp"
#include "basker/core/basker.hpp"
#include "basker/gen/generators.hpp"
#include "basker/gen/suite.hpp"
#include "basker/graph/btf.hpp"
#include "basker/graph/etree.hpp"
#include "basker/graph/matching.hpp"
#include "basker/graph/nd.hpp"
#include "basker/klu/klu.hpp"
#include "basker/obs/trace.hpp"
#include "basker/sparse/ops.hpp"

namespace {

using basker::Csc;
using basker::Int;
using basker::Scalar;
using basker::Status;
using basker::bench::JsonValue;

constexpr Int kThreads = 2;
/// A solve whose relative residual exceeds this counts as failed.
constexpr double kResidualBound = 1e-10;
/// Value walk jitter per step, in decades (the gen::revalue default).
constexpr double kJitter = 0.3;

// ---------------------------------------------------------------------------
// Workloads. Each copies the generator parameters and seed of one
// gen::suite entry (the --mode suite self-test proves they match); --seed
// then drives every session's values, value walk and right-hand sides.

struct Workload {
  const char* name;
  const char* suite_name;
  double paper_n;  ///< the suite entry's paper dimension
  double scale;    ///< bench scale (as BASKER_BENCH_SCALE)
  std::uint64_t suite_seed;
  double btf_frac;
  Int avg_block;
  basker::gen::CoreTopology core;
  Int core_degree;
  Int rails;
  double vsource_frac;
  int steps;  ///< S: transient steps per session
};

const Workload kWorkloads[] = {
    // Xyce1 at 2x bench scale: the paper's §V-F transient sequence.
    {"transient", "Xyce1", 4.3e5, 2.0, 111, 0.21, 1,
     basker::gen::CoreTopology::kLadder, 4, 2, 0.02, 20},
    // Xyce3: the high-fill matrix of Fig. 5.
    {"highfill", "Xyce3", 1.9e6, 1.0, 118, 0.20, 1,
     basker::gen::CoreTopology::kRandom, 2, 0, 0.02, 1},
    // Freescale1 at 2x bench scale: one ladder block, no fine BTF.
    {"lowfill", "Freescale1", 3.4e6, 2.0, 116, 0.0, 1,
     basker::gen::CoreTopology::kLadder, 8, 2, 0.0, 5},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// gen/suite.cpp's paper-n -> generated-n rule.
Int scaled_n(double paper_n, double scale) {
  const double base = std::max(1200.0, std::min(paper_n / 64.0, 16000.0));
  return static_cast<Int>(std::lround(base * scale));
}

basker::gen::CircuitParams circuit_params(const Workload& w, double size_scale,
                                          std::uint64_t seed) {
  basker::gen::CircuitParams p;
  p.n = scaled_n(w.paper_n, w.scale * size_scale);
  p.btf_frac = w.btf_frac;
  p.avg_block = w.avg_block;
  p.core = w.core;
  p.core_degree = w.core_degree;
  p.rails = w.rails;
  p.vsource_frac = w.vsource_frac;
  p.seed = seed;
  return p;
}

/// SplitMix64 finalizer over a combination of (seed, a, b): independent
/// streams for matrices, walks and right-hand sides.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + a * 0xBF58476D1CE4E5B9ULL +
                    b * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

enum Stream : std::uint64_t { kMatrix = 1, kWalk = 2, kRhs = 3 };

/// The workload's circuit: its gen::suite entry, pattern and values.
Csc base_matrix(const Workload& w, double size_scale) {
  return basker::gen::circuit(circuit_params(w, size_scale, w.suite_seed));
}

/// Session i's matrix: the workload's circuit at a new operating point,
/// its values redrawn from (seed, session). The pattern stays the suite
/// entry's: across generator seeds the high-fill class moves by up to 20%
/// in flops, which would swamp the run-to-run comparison.
Csc session_matrix(const Csc& base, std::uint64_t seed, std::uint64_t session) {
  Csc a = base;
  basker::Prng rng(mix(seed, kMatrix, session));
  basker::gen::revalue(a, rng, kJitter);
  return a;
}

std::vector<Scalar> step_rhs(Int n, std::uint64_t seed, std::uint64_t session,
                             std::uint64_t step) {
  return basker::gen::random_rhs(n, mix(seed, kRhs, session * 100003 + step));
}

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Failure accounting: an operation fails on a status other than kOk /
// kPivotGrowth, a non-finite solution entry, or a residual above the bound.

struct Accounting {
  long long attempted = 0;
  long long failed = 0;
  /// Self-test: damage every solution before checking it, alternately with
  /// a NaN entry and by zeroing it (relative residual 1).
  bool corrupt = false;
  long long solves = 0;  ///< solves whose status passed
  std::string first_error;
  double max_residual = 0.0;  ///< over the solves that passed

  /// Counts one operation that succeeded when `ok` holds.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
    return ok;
  }

  bool status(Status s, const char* what) {
    return check(s == Status::kOk || s == Status::kPivotGrowth,
                 std::string(what) + ": " + basker::to_string(s));
  }

  /// Counts one solve: `st` is its status, x its output for A x = b.
  bool solution(Status st, const Csc& a, std::vector<Scalar>& x,
                const std::vector<Scalar>& b, const char* what) {
    if (!status(st, what)) return false;
    ++solves;
    if (corrupt && !x.empty()) {
      if (solves % 2 == 0) {
        x[x.size() / 2] = std::nan("");
      } else {
        std::fill(x.begin(), x.end(), 0.0);
      }
    }
    for (Scalar v : x) {
      if (!std::isfinite(v)) {
        fail(std::string(what) + ": non-finite solution entry");
        return false;
      }
    }
    const double r = basker::relative_residual(a, x, b);
    if (!(r <= kResidualBound)) {
      fail(std::string(what) + ": residual " + std::to_string(r));
      return false;
    }
    max_residual = std::max(max_residual, r);
    return true;
  }

 private:
  void fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

JsonValue metric(double value, const char* unit) {
  JsonValue m = JsonValue::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

JsonValue report_header(const Workload& w, const char* mode,
                        std::uint64_t seed, const Csc& a,
                        const Accounting& acc) {
  JsonValue doc = JsonValue::object();
  doc.set("mode", mode);
  doc.set("workload", w.name);
  doc.set("suite", w.suite_name);
  doc.set("seed", static_cast<double>(seed));
  doc.set("n", a.ncols);
  doc.set("nnz", a.nnz());
  doc.set("p", kThreads);
  doc.set("steps_per_session", w.steps);
  doc.set("attempted", static_cast<double>(acc.attempted));
  doc.set("failed", static_cast<double>(acc.failed));
  doc.set("first_error", acc.first_error);
  doc.set("max_residual", acc.max_residual);
  return doc;
}

basker::BaskerOptions solver_options(Int nthreads, bool trace) {
  basker::BaskerOptions opt;
  opt.nthreads = nthreads;
  opt.trace = trace;
  return opt;
}

// ---------------------------------------------------------------------------
// --mode e2e: untraced caller sessions, interleaved for the whole run so
// every metric samples the whole run's host conditions.

/// Wall times of one session's successful operations.
struct SessionTimes {
  std::vector<double> setup, factor, step;
};

/// One caller session on `a`: construct + symbolic, cold numeric, then the
/// workload's steps. Appends the times of operations that succeeded.
void run_session(const Workload& w, std::uint64_t seed, std::uint64_t session,
                 const Csc& a, Accounting& acc, SessionTimes& out) {
  basker::WallTimer t;
  basker::Basker solver(solver_options(kThreads, false));
  const Status sym = solver.symbolic(a);
  const double t_setup = t.seconds();
  if (!acc.status(sym, "symbolic")) return;
  t.reset();
  const Status num = solver.numeric(a);
  const double t_factor = t.seconds();
  if (!acc.status(num, "numeric")) return;
  out.setup.push_back(t_setup);
  out.factor.push_back(t_factor);

  Csc ak = a;
  basker::Prng walk(mix(seed, kWalk, session));
  for (int k = 0; k < w.steps; ++k) {
    basker::gen::revalue(ak, walk, kJitter);
    const std::vector<Scalar> b = step_rhs(a.ncols, seed, session, k);
    std::vector<Scalar> x = b;
    t.reset();
    const Status rs = solver.refactor(ak);
    const Status ss = rs == Status::kOk || rs == Status::kPivotGrowth
                          ? solver.solve(x)
                          : rs;
    const double t_step = t.seconds();
    if (!acc.status(rs, "refactor")) continue;
    if (acc.solution(ss, ak, x, b, "solve")) out.step.push_back(t_step);
  }
}

int run_e2e(const Workload& w, std::uint64_t seed, double seconds,
            double size_scale, bool corrupt) {
  Accounting acc;
  acc.corrupt = corrupt;
  const Csc base = base_matrix(w, size_scale);

  // Warm-up: one untimed session faults in the heap and the code, so the
  // first timed session is not the process's first.
  SessionTimes warm, times;
  run_session(w, seed, 0, session_matrix(base, seed, 0), acc, warm);

  const basker::WallTimer run;
  std::uint64_t session = 1;
  // Sessions run until the next one would end past the budget (at least 3).
  for (double last = 0.0; session <= 3 || run.seconds() + last < seconds;
       ++session) {
    const double started = run.seconds();
    run_session(w, seed, session, session_matrix(base, seed, session), acc, times);
    last = run.seconds() - started;
  }

  JsonValue doc = report_header(w, "e2e", seed, base, acc);
  doc.set("sessions", static_cast<double>(session - 1));
  doc.set("warmup_sessions", 1.0);
  doc.set("step_samples", static_cast<double>(times.step.size()));
  doc.set("run_seconds", run.seconds());
  // The spread of each time over the run's sessions, with its sample count.
  JsonValue spread = JsonValue::object();
  for (const auto& [name, v] : {std::pair{"setup_s", &times.setup},
                                std::pair{"factor_s", &times.factor},
                                std::pair{"step_s", &times.step}}) {
    JsonValue q = JsonValue::object();
    for (const auto& [label, at] : {std::pair{"p25", 0.25}, std::pair{"p50", 0.5},
                                    std::pair{"p75", 0.75}, std::pair{"p95", 0.95}}) {
      q.set(label, quantile(*v, at));
    }
    q.set("samples", static_cast<double>(v->size()));
    spread.set(name, std::move(q));
  }
  doc.set("quantiles", std::move(spread));
  JsonValue m = JsonValue::object();
  m.set("setup_s", metric(median(times.setup), "s"));
  m.set("factor_s", metric(median(times.factor), "s"));
  m.set("step_s", metric(median(times.step), "s"));
  // Every session allocates the same sizes, so the process peak levels off
  // after a few sessions and does not depend on how many ran.
  m.set("peak_rss_mb", metric(peak_rss_mb(), "MB"));
  doc.set("metrics", std::move(m));
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --mode layers: the traced layer pass.

/// In-memory span log of the benchmark's own calls into the library:
/// (name, start, end, parent), written out once the pass ends.
class SpanLog {
 public:
  /// Runs f() as a span named `name`, nested in the innermost open span;
  /// returns its wall time in seconds.
  template <class F>
  double time(const char* name, F&& f) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, 0, 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    const std::int64_t t0 = basker::monotonic_ns();
    f();
    const std::int64_t t1 = basker::monotonic_ns();
    open_.pop_back();
    spans_[static_cast<size_t>(id)].t0_ns = t0;
    spans_[static_cast<size_t>(id)].t1_ns = t1;
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  /// Chrome trace-event JSON (loadable in Perfetto); each event's args
  /// carry its span id and parent id.
  bool write(const std::string& path) const {
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0_ns;
    JsonValue events = JsonValue::array();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonValue e = JsonValue::object();
      e.set("name", s.name);
      e.set("ph", "X");
      e.set("pid", 1.0);
      e.set("tid", 1.0);
      e.set("ts", static_cast<double>(s.t0_ns - base) * 1e-3);
      e.set("dur", static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3);
      JsonValue args = JsonValue::object();
      args.set("id", static_cast<double>(i));
      args.set("parent", static_cast<double>(s.parent));
      e.set("args", std::move(args));
      events.push(std::move(e));
    }
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::int64_t t0_ns;
    std::int64_t t1_ns;
    int parent;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The largest BTF block of A after symbolic()'s global matching and BTF,
/// locally matched and symmetrized: the graph the ND step orders.
Csc largest_block_graph(const Csc& a, const basker::Matching& match,
                        const basker::BtfResult& btf) {
  const Int n = a.ncols;
  std::vector<Int> row_map(static_cast<size_t>(n));
  for (Int i = 0; i < n; ++i) row_map[i] = match.row_of_col[btf.perm[i]];
  const Csc pre = basker::permute(a, row_map, btf.perm);
  Int lo = 0, hi = 0;
  for (Int b = 0; b < btf.num_blocks(); ++b) {
    if (btf.block_size(b) > hi - lo) {
      lo = btf.block_offsets[b];
      hi = btf.block_offsets[b + 1];
    }
  }
  const Csc block = basker::extract_block(pre, lo, hi, lo, hi);
  const basker::Matching local = basker::bottleneck_matching(block);
  return basker::symmetrize_pattern(basker::permute(block, local.row_of_col, {}));
}

/// symbolic()'s static-schedule ND of one block at team size kThreads:
/// dissect at depth log2(p), back off on fat separators, order the leaves.
basker::NdTree order_block(const Csc& sym) {
  const Int m = sym.ncols;
  Int nlevels = 0;
  while ((Int{1} << (nlevels + 1)) <= kThreads && (m >> (nlevels + 1)) >= 8) {
    ++nlevels;
  }
  basker::NdTree tree = basker::nested_dissect(sym, nlevels, false);
  while (nlevels > 0 && tree.separator_mass() * 8 > m) {
    --nlevels;
    tree = basker::merge_bottom_level(tree);
  }
  basker::order_tree_leaves(sym, tree);
  return tree;
}

double trace_kind_s(const basker::obs::TraceSummary& t,
                    basker::obs::SpanKind kind) {
  if (!t.enabled) return 0.0;
  return t.kind_total_ns[static_cast<size_t>(kind)] * 1e-9;
}

int run_layers(const Workload& w, std::uint64_t seed, double seconds,
               double size_scale, const std::string& trace_dir) {
  using basker::obs::SpanKind;
  Accounting acc;
  SpanLog log;
  const Csc a = session_matrix(base_matrix(w, size_scale), seed, 0);

  // Per-round samples.
  std::vector<double> matching, btf_t, order, colcount;
  std::vector<double> construct, symbolic, cold, warm2, warm1, traced;
  std::vector<double> wait_frac, refactor, solve, step;
  std::vector<double> leaf, sep, fine, panel;
  std::vector<double> klu_factor, klu_step;
  long long replay_ok = 0, refactor_calls = 0;
  Int blocks = 0;
  basker::BaskerStats stats2;

  // Long-lived solvers: p = 1 and traced p = 2, analyzed once and warmed.
  basker::Basker p1(solver_options(1, false));
  basker::Basker tr(solver_options(kThreads, true));
  acc.status(p1.symbolic(a), "symbolic p=1");
  acc.status(p1.numeric(a), "numeric p=1");
  acc.status(tr.symbolic(a), "symbolic traced");
  acc.status(tr.numeric(a), "numeric traced");

  // Graph inputs that are deterministic functions of A: computed once so
  // each timed call below sees exactly what symbolic() hands it.
  const basker::Matching match0 = basker::bottleneck_matching(a);
  const Csc matched = basker::permute(a, match0.row_of_col, {});
  const Csc sym = largest_block_graph(a, match0, basker::btf_order(matched));
  const basker::NdTree tree0 = order_block(sym);
  const Csc ordered = basker::permute(sym, tree0.perm, tree0.perm);

  const basker::WallTimer run;
  int round = 0;
  for (; round < 3 || run.seconds() < seconds; ++round) {
    log.time("round", [&] {
      // graph: replay of symbolic() steps 1-3 from outside.
      log.time("graph", [&] {
        basker::Matching m;
        matching.push_back(log.time("graph.bottleneck_matching",
                                    [&] { m = basker::bottleneck_matching(a); }));
        acc.check(m.is_perfect(a.ncols), "bottleneck_matching: not perfect");
        basker::BtfResult btf;
        btf_t.push_back(log.time("graph.btf_order",
                                 [&] { btf = basker::btf_order(matched); }));
        blocks = btf.num_blocks();
        acc.check(blocks >= 1 && btf.block_offsets.back() == a.ncols,
                  "btf_order: blocks do not cover the matrix");
        basker::NdTree tree;
        order.push_back(log.time("graph.nested_dissect+order_tree_leaves",
                                 [&] { tree = order_block(sym); }));
        acc.check(tree.perm == tree0.perm, "nested_dissect: ordering changed");
        std::vector<Int> counts;
        colcount.push_back(log.time("graph.etree+chol_col_counts", [&] {
          counts = basker::chol_col_counts(ordered, basker::etree(ordered));
        }));
        acc.check(counts.size() == static_cast<size_t>(sym.ncols),
                  "chol_col_counts: wrong length");
      });

      // core: one untraced p = 2 caller session.
      log.time("session", [&] {
        std::unique_ptr<basker::Basker<>> s2;
        construct.push_back(log.time("core.construct", [&] {
          s2 = std::make_unique<basker::Basker<>>(solver_options(kThreads, false));
        }));
        symbolic.push_back(log.time("core.symbolic", [&] {
          acc.status(s2->symbolic(a), "symbolic");
        }));
        cold.push_back(log.time("core.numeric", [&] {
          acc.status(s2->numeric(a), "numeric");
        }));
        // Warm numerics at p = 2, traced p = 2 and p = 1, back to back so
        // the ratios between them see the same host conditions.
        const double t2 = log.time("core.numeric_warm", [&] {
          acc.status(s2->numeric(a), "numeric warm");
        });
        warm2.push_back(t2);
        stats2 = s2->stats();
        wait_frac.push_back(stats2.sync_seconds / (t2 * s2->nthreads()));
        traced.push_back(log.time("core.numeric_traced", [&] {
          acc.status(tr.numeric(a), "numeric traced");
        }));
        const basker::obs::TraceSummary& ts = tr.stats().trace;
        leaf.push_back(trace_kind_s(ts, SpanKind::kLeafFactor));
        sep.push_back(trace_kind_s(ts, SpanKind::kStaticSepColumn));
        fine.push_back(trace_kind_s(ts, SpanKind::kFineBlock));
        panel.push_back(trace_kind_s(ts, SpanKind::kDenseGetrf) +
                        trace_kind_s(ts, SpanKind::kDenseTrsm));
        warm1.push_back(log.time("core.numeric_p1", [&] {
          acc.status(p1.numeric(a), "numeric p=1");
        }));

        Csc ak = a;
        basker::Prng walk(mix(seed, kWalk, 0));
        for (int k = 0; k < w.steps; ++k) {
          basker::gen::revalue(ak, walk, kJitter);
          const std::vector<Scalar> b = step_rhs(a.ncols, seed, 0, k);
          std::vector<Scalar> x = b;
          Status rs = Status::kOk, ss = Status::kOk;
          const double tr_s = log.time("core.refactor", [&] { rs = s2->refactor(ak); });
          const double ts_s = log.time("core.solve", [&] { ss = s2->solve(x); });
          ++refactor_calls;
          if (rs == Status::kOk) ++replay_ok;
          if (!acc.status(rs, "refactor")) continue;
          if (!acc.solution(ss, ak, x, b, "solve")) continue;
          refactor.push_back(tr_s);
          solve.push_back(ts_s);
          step.push_back(tr_s + ts_s);
        }
      });

      // klu: the paper's baseline on the same matrix and value walk.
      log.time("klu", [&] {
        basker::KluSolver klu;
        klu_factor.push_back(log.time("klu.factor", [&] {
          acc.status(klu.factor(a), "klu factor");
        }));
        Csc ak = a;
        basker::Prng walk(mix(seed, kWalk, 0));
        for (int k = 0; k < w.steps; ++k) {
          basker::gen::revalue(ak, walk, kJitter);
          const std::vector<Scalar> b = step_rhs(a.ncols, seed, 0, k);
          std::vector<Scalar> x = b;
          Status rs = Status::kOk, ss = Status::kOk;
          const double t = log.time("klu.refactor+solve", [&] {
            rs = klu.refactor(ak);
            if (rs == Status::kOk) ss = klu.solve(x);
          });
          if (!acc.status(rs, "klu refactor")) continue;
          if (acc.solution(ss, ak, x, b, "klu solve")) klu_step.push_back(t);
        }
      });
    });
  }

  const double graph_s =
      median(matching) + median(btf_t) + median(order) + median(colcount);
  const double basker_factor = median(construct) + median(symbolic) + median(cold);
  const double klu_f = median(klu_factor), klu_s = median(klu_step);
  JsonValue m = JsonValue::object();
  m.set("graph.matching_s", metric(median(matching), "s"));
  m.set("graph.btf_s", metric(median(btf_t), "s"));
  m.set("graph.blocks", metric(blocks, "count"));
  m.set("graph.order_s", metric(median(order), "s"));
  m.set("graph.colcount_s", metric(median(colcount), "s"));
  m.set("core.symbolic_self_s", metric(median(symbolic) - graph_s, "s"));
  m.set("core.refactor_s", metric(median(refactor), "s"));
  m.set("core.solve_s", metric(median(solve), "s"));
  m.set("core.step_p95_s", metric(quantile(step, 0.95), "s"));
  m.set("core.step_samples", metric(static_cast<double>(step.size()), "count"));
  m.set("core.replay_ratio",
        metric(refactor_calls > 0 ? static_cast<double>(replay_ok) /
                                        static_cast<double>(refactor_calls)
                                  : 0.0,
               "ratio"));
  m.set("core.numeric_p1_s", metric(median(warm1), "s"));
  m.set("core.speedup", metric(median(warm1) / median(warm2), "x"));
  m.set("thread.wait_frac", metric(median(wait_frac), "ratio"));
  m.set("core.nnz_lu", metric(static_cast<double>(stats2.nnz_lu), "count"));
  m.set("core.flops", metric(stats2.factor_flops, "flop"));
  m.set("core.factor_mb",
        metric(static_cast<double>(stats2.nnz_lu) * (8 + 4) / (1024.0 * 1024.0),
               "MB"));
  m.set("lu.leaf_s", metric(median(leaf), "s"));
  m.set("lu.sep_s", metric(median(sep), "s"));
  m.set("lu.fine_s", metric(median(fine), "s"));
  m.set("dense.panel_s", metric(median(panel), "s"));
  m.set("dense.blocks", metric(static_cast<double>(stats2.dense_blocks), "count"));
  m.set("obs.trace_overhead", metric(median(traced) / median(warm2), "x"));
  m.set("klu.factor_s", metric(klu_f, "s"));
  m.set("klu.step_s", metric(klu_s, "s"));
  m.set("klu.factor_ratio", metric(klu_f / basker_factor, "x"));
  m.set("klu.step_ratio", metric(klu_s / median(step), "x"));

  // The pass's spans, and the library's timeline of the traced solver's
  // last numeric(), written once the pass has ended.
  const std::string stem =
      trace_dir + "/" + w.name + "-seed" + std::to_string(seed);
  if (!trace_dir.empty()) {
    acc.check(log.write(stem + "-spans.json"), "cannot write " + stem + "-spans.json");
    acc.status(tr.dump_trace(stem + "-numeric.json"), "dump_trace");
  }

  JsonValue doc = report_header(w, "layers", seed, a, acc);
  doc.set("rounds", static_cast<double>(round));
  doc.set("run_seconds", run.seconds());
  doc.set("ratio_bases",
          std::string("core.speedup = p1/p2 warm numeric; "
                      "obs.trace_overhead = traced/untraced warm numeric; "
                      "klu.factor_ratio = KLU factor/(Basker construct+"
                      "symbolic+numeric); klu.step_ratio = KLU/Basker "
                      "refactor+solve"));
  doc.set("metrics", std::move(m));
  if (!trace_dir.empty()) {
    doc.set("spans_file", stem + "-spans.json");
    doc.set("numeric_trace_file", stem + "-numeric.json");
  }
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// --mode suite: each workload's generator reproduces its suite entry when
// given the entry's own seed.

int run_suite_check(double size_scale) {
  int mismatches = 0;
  for (const Workload& w : kWorkloads) {
    const Csc ours = basker::gen::circuit(circuit_params(w, size_scale, w.suite_seed));
    const Csc ref = basker::gen::make_by_name(w.suite_name, w.scale * size_scale);
    const bool same = ours.nrows == ref.nrows && ours.col_ptr == ref.col_ptr &&
                      ours.row_idx == ref.row_idx && ours.values == ref.values;
    std::printf("%s vs %s: n=%d nnz=%lld %s\n", w.name, w.suite_name,
                static_cast<int>(ours.ncols), static_cast<long long>(ours.nnz()),
                same ? "match" : "MISMATCH");
    mismatches += same ? 0 : 1;
  }
  return mismatches == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: session_bench --mode e2e|layers|suite [--workload "
               "transient|highfill|lowfill] [--seed N] [--seconds S] "
               "[--size-scale F] [--trace-dir DIR] [--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, workload, trace_dir;
  std::uint64_t seed = 1;
  double seconds = 10.0, size_scale = 1.0;
  bool corrupt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt") {
      corrupt = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--mode") {
      mode = argv[++i];
    } else if (arg == "--workload") {
      workload = argv[++i];
    } else if (arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--size-scale") {
      size_scale = std::atof(argv[++i]);
    } else if (arg == "--trace-dir") {
      trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (!(size_scale > 0.0)) return usage();
  try {
    if (mode == "suite") return run_suite_check(size_scale);
    const Workload* w = find_workload(workload);
    if (w == nullptr) return usage();
    if (mode == "e2e") return run_e2e(*w, seed, seconds, size_scale, corrupt);
    if (mode == "layers") return run_layers(*w, seed, seconds, size_scale, trace_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "session_bench: %s\n", e.what());
    return 1;
  }
  return usage();
}
