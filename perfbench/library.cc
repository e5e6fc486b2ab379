/**
 * @file
 * The `library` workload: the paper's scheduling libraries applied to
 * all 77 kernels (24 level-1 and 50 level-2 BLAS kernels, SGEMM, blur
 * and unsharp), each result linted and emitted as C. Never calls the
 * tuner or the cost simulator.
 */

#include <iostream>

#include "bench.h"
#include "src/analysis/memo.h"
#include "src/codegen/c_codegen.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/lint/lint.h"
#include "src/obs/trace.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"

namespace perfbench {

using namespace exo2;

namespace {

std::vector<LibKernel>
build_library_kernels()
{
    const Machine& m = machine_avx2();
    std::vector<LibKernel> ks;
    auto f64_tol = [](const kernels::KernelDef& k, double f32_tol) {
        return k.prec == ScalarType::F64 ? 1e-9 : f32_tol;
    };
    for (const kernels::KernelDef& k : kernels::blas_level1()) {
        ks.push_back({k.name, "level1", k.proc, f64_tol(k, 5e-4), [&k, &m] {
                          return sched::optimize_level_1(
                              k.proc, k.proc->find_loop(k.main_loop),
                              k.prec, m, 4, true);
                      }});
    }
    for (const kernels::KernelDef& k : kernels::blas_level2()) {
        // Triangular solves amplify rounding (as in the unit tests).
        bool trsv = k.name.find("trsv") != std::string::npos;
        double tol = trsv ? (k.prec == ScalarType::F64 ? 1e-6 : 2e-2)
                          : f64_tol(k, 5e-4);
        ks.push_back({k.name, "level2", k.proc, tol, [&k, &m] {
                          return sched::optimize_level_2_general(
                              k.proc, k.proc->find_loop(k.main_loop),
                              k.prec, m, 2, 2, true);
                      }});
    }
    ks.push_back({"sgemm", "gemm", kernels::sgemm(), 3e-3, [&m] {
                      return sched::schedule_sgemm(
                          sched::sgemm_with_asserts(kernels::sgemm(), m),
                          m);
                  }});
    ks.push_back({"blur", "halide", kernels::blur(), 2e-4, [&m] {
                      return sched::schedule_blur_like_halide(
                          kernels::blur(), m);
                  }});
    ks.push_back({"unsharp", "halide", kernels::unsharp(), 2e-4, [&m] {
                      return sched::schedule_unsharp_like_halide(
                          kernels::unsharp(), m);
                  }});
    return ks;
}

/** Seeded ragged sizes for the interpreter check: lengths that are not
 *  multiples of the vector width, so tails and guards run. SGEMM and
 *  the image kernels carry divisibility assertions, so they draw
 *  admissible multiples instead. Redraws until both procs' assertions
 *  hold. */
SizeEnv
ragged_sizes(const LibKernel& k, const ProcPtr& scheduled, uint64_t seed)
{
    for (uint64_t attempt = 0; attempt < 64; attempt++) {
        uint64_t r = mix64(seed * 1000003 + attempt);
        SizeEnv env;
        for (const ProcArg& a : k.original->args()) {
            if (!a.is_size)
                continue;
            r = mix64(r);
            int64_t v = 0;
            if (k.group == "level1") {
                v = 1 + static_cast<int64_t>(r % 97);
            } else if (k.group == "level2") {
                v = 1 + static_cast<int64_t>(r % 37);
            } else if (k.group == "gemm") {
                v = a.name == "M"   ? 4 * (1 + static_cast<int64_t>(r % 4))
                    : a.name == "N" ? 16 * (1 + static_cast<int64_t>(r % 2))
                                    : 1 + static_cast<int64_t>(r % 20);
            } else {
                v = a.name == "H" ? 32 * (1 + static_cast<int64_t>(r % 2))
                                  : 256;
            }
            env[a.name] = v;
        }
        if (verify::preds_hold(k.original, env) &&
            verify::preds_hold(scheduled, env))
            return env;
    }
    return {};
}

/** Set-up: compile the library schedules of the five native kernels
 *  (from the set-up pass) and check each against its C++ reference. */
void
compile_hand_kernels(Result* res, const std::vector<LibKernel>& ks,
                     const std::vector<ProcPtr>& first, NativeTimer* timer,
                     uint64_t seed)
{
    for (const KernelCase& c : kernel_cases()) {
        for (size_t i = 0; i < ks.size(); i++) {
            if (ks[i].name != c.name || !first[i])
                continue;
            res->attempted++;
            try {
                timer->add(c, first[i]);
                std::string err = timer->check(timer->size() - 1, seed);
                if (!err.empty())
                    res->fail_check(err);
            } catch (const std::exception& e) {
                res->failed++;
                std::cerr << "perfbench: native " << c.name << ": "
                          << e.what() << "\n";
            }
        }
    }
}

}  // namespace

const std::vector<LibKernel>&
library_kernels()
{
    static const std::vector<LibKernel> ks = build_library_kernels();
    return ks;
}

Result
run_library(const RunOpts& o)
{
    Result res;
    const std::vector<LibKernel>& ks = library_kernels();

    // Pass 0 is set-up: a cold pass that lets lazily built engine state
    // (interned expressions, allocator arenas) come into being before
    // timing. Every pass after it is timed. Peak RSS
    // is read after a fixed number of passes, so that it does not
    // depend on how many passes fit in the run.
    constexpr int kMinPasses = 3;
    std::vector<double> item_ms, pass_s;
    std::map<std::string, std::vector<double>> layer_ms;
    std::vector<double> memo_ratio;
    std::vector<ProcPtr> first;  // the set-up pass's schedules
    double t_start = 0, rss_mb = 0;
    NativeTimer timer;
    for (int pass = 0;; pass++) {
        bool timed = pass > 0;
        if (pass == 1) {
            compile_hand_kernels(&res, ks, first, &timer, o.seed);
            res.put("setup_s", now_s() - o.t0, "s");
            if (o.trace)
                obs::trace_start();
            t_start = now_s();
        }
        if (timed && pass > kMinPasses && now_s() - t_start >= o.seconds)
            break;
        clear_engine_memos();
        reset_analysis_memo_stats();
        std::map<std::string, double> acc = {
            {"sched.level1_ms", 0}, {"sched.level2_ms", 0},
            {"sched.gemm_ms", 0},   {"sched.halide_ms", 0},
            {"lint.proc_ms", 0},    {"codegen.emit_ms", 0}};
        double p0 = now_s();
        for (size_t i = 0; i < ks.size(); i++) {
            const LibKernel& k = ks[i];
            res.attempted++;
            try {
                double t0 = now_s();
                ProcPtr s = k.schedule();
                double t1 = now_s();
                lint::LintReport rep = lint::lint_proc(s);
                double t2 = now_s();
                std::string c = codegen_c(s);
                double t3 = now_s();
                acc["sched." + k.group + "_ms"] += (t1 - t0) * 1e3;
                acc["lint.proc_ms"] += (t2 - t1) * 1e3;
                acc["codegen.emit_ms"] += (t3 - t2) * 1e3;
                if (timed)
                    item_ms.push_back((t3 - t0) * 1e3);
                if (rep.has_errors())
                    res.fail_check(k.name + ": Error-level lint "
                                   "finding on the library "
                                   "schedule:\n" + rep.to_text());
                if (timed)
                    res.root_calls.push_back({"lint.proc", t2 - t1, ""});
                if (c.empty())
                    res.fail_check(k.name + ": empty C emitted");
                if (first.size() < ks.size()) {
                    first.push_back(s);
                } else {
                    std::string err =
                        check_same_proc(k.name + ": schedule", first[i], s);
                    if (!err.empty())
                        res.fail_check(err);
                }
            } catch (const std::exception& e) {
                res.failed++;
                std::cerr << "perfbench: " << k.name << ": " << e.what()
                          << "\n";
                if (first.size() < ks.size())
                    first.push_back(nullptr);
            }
        }
        double p1 = now_s();
        if (pass == kMinPasses)
            rss_mb = peak_rss_mb();
        if (!timed)
            continue;
        // Native timing samples interleave with the passes, so both
        // spread over the whole run.
        try {
            timer.sample();
            timer.sample();
        } catch (const std::exception& e) {
            res.failed++;
            std::cerr << "perfbench: native timing: " << e.what() << "\n";
        }
        pass_s.push_back(p1 - p0);
        for (const auto& [name, ms] : acc)
            layer_ms[name].push_back(ms);
        AnalysisMemoStats ms = analysis_memo_stats();
        double hits = static_cast<double>(ms.affine_hits + ms.linear_hits +
                                          ms.effects_hits);
        double misses = static_cast<double>(
            ms.affine_misses + ms.linear_misses + ms.effects_misses);
        memo_ratio.push_back(hits / std::max(1.0, hits + misses));
    }
    res.trace_units = static_cast<long>(pass_s.size());
    if (o.trace) {
        obs::trace_stop();
        res.dropped_spans = obs::trace_dropped();
        if (!obs::trace_flush("trace.json"))
            res.fail_check("could not write trace.json");
        res.trace_files.push_back("trace.json");
    }

    // -- interp(scheduled) == interp(original) on ragged sizes ---------
    double interp_s = 0;
    for (size_t i = 0; i < ks.size(); i++) {
        if (!first[i])
            continue;
        res.attempted++;
        try {
            SizeEnv env = ragged_sizes(ks[i], first[i], o.seed + i);
            if (env.empty()) {
                res.fail_check(ks[i].name + ": no admissible sizes");
                continue;
            }
            std::string err =
                check_interp_equal(ks[i].original, first[i], env,
                                   o.seed * 31 + i, ks[i].rel_tol,
                                   &interp_s);
            if (!err.empty())
                res.fail_check(err);
        } catch (const std::exception& e) {
            res.failed++;
            std::cerr << "perfbench: interp " << ks[i].name << ": "
                      << e.what() << "\n";
        }
    }

    std::vector<double> gflops = timer.gflops();
    for (size_t i = 0; i < gflops.size(); i++)
        std::cerr << "perfbench: library " << timer.name(i) << " "
                  << gflops[i] << " GFLOP/s\n";

    double total_s = 0;
    for (double s : pass_s)
        total_s += s;
    res.put("peak_rss_mb", rss_mb, "MB");
    res.put("p50_ms", median(item_ms), "ms");
    res.put("p95_ms", percentile(item_ms, 0.95), "ms");
    res.put("ops_per_s", static_cast<double>(item_ms.size()) / total_s,
            "1/s");
    res.put("gflops", geomean(gflops), "GFLOP/s");
    for (const auto& [name, v] : layer_ms)
        res.put(name, median(v), "ms");
    res.put("compile_ms", median(pass_s) * 1e3, "ms");
    res.put("analysis.memo_hit_ratio", median(memo_ratio), "ratio");
    res.put("interp.run_ms", interp_s * 1e3, "ms");
    return res;
}

}  // namespace perfbench
