#ifndef EXO2_PERFBENCH_BENCH_H_
#define EXO2_PERFBENCH_BENCH_H_

/**
 * @file
 * Shared pieces of the repository benchmark's driver (perfbench/):
 * run options, the result record each workload fills, the kernel
 * cases with their plain C++ references, and the correctness checks.
 *
 * The checks never compare against a stored copy of earlier output:
 * natively compiled kernels are compared with the C++ references
 * below, scheduled procs with their unscheduled originals under the
 * interpreter, replayed scripts with a fresh in-process replay.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/proc.h"
#include "src/serve/protocol.h"
#include "src/tune/tune.h"
#include "src/verify/cjit.h"
#include "src/verify/oracle.h"

namespace perfbench {

using exo2::ProcPtr;
using exo2::RunArg;
using exo2::verify::SizeEnv;

/** Command-line options shared by every workload. */
struct RunOpts
{
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** steady-clock seconds at which the driver's main() began;
     *  setup_s counts from here. */
    double t0 = 0;
    /** Self path, used to start the daemon process. */
    std::string self;
};

/** What a workload reports. Metric values are raw measurements; the
 *  runner picks the end-to-end or per-layer set from them. */
struct Result
{
    bool correct = true;
    long attempted = 0;
    long failed = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Trace files (Chrome trace-event JSON) and spans dropped. */
    std::vector<std::string> trace_files;
    uint64_t dropped_spans = 0;
    /** The benchmark's own clock around each traced root call, in
     *  call order: (root span name, seconds, request id or ""). */
    struct RootCall
    {
        std::string span;
        double seconds;
        std::string rid;
    };
    std::vector<RootCall> root_calls;
    /** Number of work units (passes, tune rounds, requests) in the
     *  traced window; span totals are reported per unit. */
    long trace_units = 0;

    void put(const std::string& name, double v, const std::string& unit)
    {
        metrics[name] = {v, unit};
    }
    /** Record a failed correctness check (reported on stderr). */
    void fail_check(const std::string& what);
};

// ---------------------------------------------------------------------------
// Timing and statistics
// ---------------------------------------------------------------------------

/** steady_clock seconds. */
double now_s();

/** Nearest-rank percentile, p in (0, 1]; 0 for an empty sample. */
double percentile(std::vector<double> v, double p);
inline double median(const std::vector<double>& v)
{
    return percentile(v, 0.5);
}
double geomean(const std::vector<double>& v);

/** Peak resident set size of this process, MB. */
double peak_rss_mb();

/** Clear every process-global memo cache of the engine: the analysis
 *  memo, the cost-simulation memo and the cursor-acceleration caches.
 *  Every timed pass and tune starts from here, so a warm memo never
 *  stands in for the engine. */
void clear_engine_memos();

/** Deterministic 64-bit mixer for seeded choices. */
uint64_t mix64(uint64_t x);

// ---------------------------------------------------------------------------
// The five reference kernels (saxpy, sdot, sgemv_n, sgemm, blur)
// ---------------------------------------------------------------------------

/** Expected value of one output element and the sum of the absolute
 *  values of the terms that produced it (the tolerance scale). */
struct RefOut
{
    std::vector<double> value;
    std::vector<double> magnitude;
};

/** Plain C++ reference: computes the output buffer from the inputs
 *  (read before the kernel under test runs). */
using RefFn = std::function<RefOut(const std::vector<RunArg>&)>;

struct KernelCase
{
    std::string name;
    ProcPtr naive;
    SizeEnv tune_sizes;   ///< where the tuner scores schedules
    SizeEnv bench_sizes;  ///< where the native code is timed/checked
    double flops = 0;     ///< useful floating-point ops per call
    int out_arg = 0;      ///< positional index of the output buffer
    RefFn ref;
    int max_rounds = 8;   ///< tuner rounds (sgemm uses fewer)
};

/** The five kernels of the tune and serve workloads (and of the
 *  library workload's GFLOP/s measurement), in a fixed order. */
const std::vector<KernelCase>& kernel_cases();

/** One kernel of the library workload and how the paper's
 *  scheduling libraries schedule it (all on the AVX2 machine). */
struct LibKernel
{
    std::string name;
    std::string group;  ///< "level1", "level2", "gemm" or "halide"
    ProcPtr original;
    double rel_tol = 5e-4;  ///< interpreter-equivalence tolerance
    std::function<ProcPtr()> schedule;
};

/** The 77 kernels: 24 level-1, 50 level-2, sgemm, blur, unsharp. */
const std::vector<LibKernel>& library_kernels();

/** Tuner options of the benchmark: cost model only (jit_topk 0, so
 *  winners are deterministic), validation on, persistent cache off. */
exo2::tune::TuneOpts tune_opts(const KernelCase& c);

// ---------------------------------------------------------------------------
// Checks (each returns "" when it holds, else what went wrong)
// ---------------------------------------------------------------------------

/** Compare `got` (the output buffer after the kernel ran) with the
 *  reference: |got - ref| <= 1e-5 * magnitude + 1e-6 per element. */
std::string check_against_ref(const RefOut& ref, const double* got,
                              int64_t n);

/** Compile `p` natively, run it once on seeded inputs at the case's
 *  bench sizes, and compare with the C++ reference. `perturb` adds a
 *  value to output element 0 before the comparison (self-test). */
std::string check_native(const KernelCase& c, const ProcPtr& p,
                         uint64_t seed, double perturb = 0);

/** check_native on an already compiled `p`. */
std::string check_compiled(const KernelCase& c,
                           const exo2::verify::CompiledProc& cp,
                           const ProcPtr& p, uint64_t seed,
                           double perturb = 0);

/** interp(scheduled) == interp(original) on the same seeded inputs,
 *  within `rel_tol` relative to max(1, |value|). `seconds`, when
 *  given, accumulates the time spent in interp_run; `perturb` adds a
 *  value to element 0 of the scheduled run's last buffer (self-test). */
std::string check_interp_equal(const ProcPtr& original,
                               const ProcPtr& scheduled,
                               const SizeEnv& sizes, uint64_t seed,
                               double rel_tol, double* seconds = nullptr,
                               double perturb = 0);

/** The script replays on `naive` to a proc whose digest is `digest`. */
std::string check_replay_digest(const ProcPtr& naive,
                                const std::vector<exo2::tune::FuzzStep>&
                                    script,
                                uint64_t digest);

/** Simulated cycles of the case's naive kernel at its tune sizes. */
double naive_cycles(const KernelCase& c);

/** `p` simulates to no more cycles than `naive` at the tune sizes. */
std::string check_cost_not_worse(const KernelCase& c, double naive,
                                 const ProcPtr& p);

/** The tri-oracle validated the answer `what` names. */
std::string check_validated(const std::string& what, bool validated);

/** Repeating the same work gave the same proc (digests equal), or
 *  there is no earlier result (`before` null). */
std::string check_same_proc(const std::string& what, const ProcPtr& before,
                            const ProcPtr& now);

/** A warm op=tune reply: served from the cache, validated, with the
 *  script its set-up cold tune returned. */
std::string check_warm_tune(const exo2::serve::ServeResponse& r,
                            const std::string& setup_script);

/** An op=schedule reply: validated, digest equal to `want_hex`. */
std::string check_schedule_reply(const exo2::serve::ServeResponse& r,
                                 const std::string& want_hex);

/** Sum of the engine phases <= elapsed_ms <= client latency. */
std::string check_reply_timing(const exo2::serve::ServeResponse& r,
                               double latency_ms);

/** Sum of a reply's engine phases (every phase_*_ms but queue, which
 *  the daemon measures before its elapsed_ms clock starts). */
double engine_phase_ms(const exo2::serve::ServeResponse& r);

/**
 * Times natively compiled kernels at their cases' bench sizes. Each
 * sample() takes one timed repetition of every kernel in turn, so a
 * slow spell of the machine touches a few samples of every kernel
 * rather than all samples of one; gflops() is each kernel's median.
 */
class NativeTimer
{
  public:
    /** Compile `p` and fix a repetition count of about 20 ms. */
    void add(const KernelCase& c, const ProcPtr& p);
    void sample();
    /** check_native on the compiled kernel `i`. */
    std::string check(size_t i, uint64_t seed) const;
    size_t size() const { return slots_.size(); }
    const std::string& name(size_t i) const { return slots_[i].c->name; }
    /** Median GFLOP/s per kernel, in add() order. */
    std::vector<double> gflops() const;

  private:
    struct Slot
    {
        const KernelCase* c = nullptr;
        ProcPtr p;
        std::unique_ptr<exo2::verify::CompiledProc> cp;
        exo2::verify::OracleInputs in;
        int iters = 0;
        std::vector<double> g;
    };
    std::vector<Slot> slots_;
};

/** The checks every tune winner and every served schedule must pass:
 *  the script replays to `best`'s digest, `best` simulates to no more
 *  cycles than `naive` (the naive kernel's cycles at the tune sizes),
 *  and natively (compiled into `timer`, which then times it) it matches
 *  the C++ reference at bench sizes. Failures are recorded in `res`. */
void check_winner(Result* res, const KernelCase& c, double naive,
                  const ProcPtr& best,
                  const std::vector<exo2::tune::FuzzStep>& script,
                  NativeTimer* timer, uint64_t seed);

/** Take `samples` rounds of `t`, print each kernel's GFLOP/s on stderr
 *  under `label`, and return them; a failure counts every kernel as a
 *  failed operation. */
std::vector<double> timed_gflops(Result* res, NativeTimer& t, int samples,
                                 const std::string& label);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Result run_library(const RunOpts& o);
Result run_tune(const RunOpts& o);
Result run_serve(const RunOpts& o);

/** The daemon process of the serve workload (see serve.cc). */
int daemon_main(int argc, char** argv);

/** Plant a wrong answer for each check and require it to fail. */
int selftest_main();

}  // namespace perfbench

#endif  // EXO2_PERFBENCH_BENCH_H_
