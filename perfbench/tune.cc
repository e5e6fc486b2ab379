/**
 * @file
 * The `tune` workload: cold `tune::autotune` from the naive kernel of
 * saxpy, sdot, sgemv_n, sgemm and blur at small tune sizes, ranked by
 * the cost model alone, validated, persistent cache off. Then the
 * winners are compiled natively and timed at bench sizes.
 */

#include <iostream>

#include "bench.h"
#include "src/obs/trace.h"

namespace perfbench {

using namespace exo2;

void
check_winner(Result* res, const KernelCase& c, double naive,
             const ProcPtr& best, const std::vector<tune::FuzzStep>& script,
             NativeTimer* timer, uint64_t seed)
{
    for (const std::string& err :
         {check_replay_digest(c.naive, script, proc_digest(best)),
          check_cost_not_worse(c, naive,
                               tune::replay_script(c.naive, script))}) {
        if (!err.empty())
            res->fail_check(err);
    }
    timer->add(c, best);
    std::string err = timer->check(timer->size() - 1, seed);
    if (!err.empty())
        res->fail_check(err);
}

Result
run_tune(const RunOpts& o)
{
    Result res;
    // Set-up: build the kernel cases and simulate each naive kernel at
    // its tune sizes, cold (the baseline check_winner compares with).
    const std::vector<KernelCase>& cs = kernel_cases();
    const Machine& m = machine_avx2();
    std::vector<double> naive(cs.size());
    for (size_t i = 0; i < cs.size(); i++)
        naive[i] = naive_cycles(cs[i]);
    res.put("setup_s", now_s() - o.t0, "s");
    if (o.trace)
        obs::trace_start();

    std::map<std::string, std::vector<double>> kernel_s;
    std::vector<double> round_s;
    std::vector<tune::TuneResult> winners(cs.size());
    long scored = 0;
    uint64_t hits = 0, misses = 0;
    double rss_mb = 0;  // after the first round, a fixed amount of work
    double t_start = now_s();
    do {
        double r0 = now_s();
        for (size_t i = 0; i < cs.size(); i++) {
            const KernelCase& c = cs[i];
            clear_engine_memos();
            res.attempted++;
            try {
                double t0 = now_s();
                tune::TuneResult r = tune::autotune(c.naive, m, tune_opts(c));
                double t1 = now_s();
                res.root_calls.push_back({"tune.autotune", t1 - t0, ""});
                kernel_s[c.name].push_back(t1 - t0);
                scored += r.stats.states_scored;
                hits += r.stats.cost_cache_hits;
                misses += r.stats.cost_cache_misses;
                for (const std::string& err :
                     {check_validated(c.name + ": winner", r.validated),
                      check_same_proc(c.name + ": winner", winners[i].best,
                                      r.best)}) {
                    if (!err.empty())
                        res.fail_check(err);
                }
                winners[i] = std::move(r);
            } catch (const std::exception& e) {
                res.failed++;
                std::cerr << "perfbench: tune " << c.name << ": " << e.what()
                          << "\n";
            }
        }
        round_s.push_back(now_s() - r0);
        if (round_s.size() == 1)
            rss_mb = peak_rss_mb();
    } while (now_s() - t_start < o.seconds);
    res.trace_units = static_cast<long>(round_s.size());
    if (o.trace) {
        obs::trace_stop();
        res.dropped_spans = obs::trace_dropped();
        if (!obs::trace_flush("trace.json"))
            res.fail_check("could not write trace.json");
        res.trace_files.push_back("trace.json");
    }

    // -- Winners: replay, cost, C++ reference, GFLOP/s ------------------
    NativeTimer timer;
    for (size_t i = 0; i < cs.size(); i++) {
        const KernelCase& c = cs[i];
        if (!winners[i].best)
            continue;
        res.attempted++;
        try {
            check_winner(&res, c, naive[i], winners[i].best,
                         winners[i].script, &timer, o.seed);
            std::cerr << "perfbench: tuned " << c.name << ": "
                      << verify::script_to_string(winners[i].script)
                      << "\n";
        } catch (const std::exception& e) {
            res.failed++;
            std::cerr << "perfbench: winner " << c.name << ": " << e.what()
                      << "\n";
        }
    }

    std::vector<double> gflops = timed_gflops(&res, timer, 40, "tuned");
    for (size_t i = 0; i < gflops.size(); i++)
        res.put("tune." + timer.name(i) + "_gflops", gflops[i], "GFLOP/s");

    double total_s = 0;
    for (double s : round_s)
        total_s += s;
    double tune_s = median(round_s);
    double per_round = static_cast<double>(scored) /
                       static_cast<double>(round_s.size());
    res.put("peak_rss_mb", rss_mb, "MB");
    // One op is the tune of the whole five-kernel set (the per-kernel
    // times are per-layer metrics): a run holds one or a few, so p50
    // and p95 coincide until a round takes well under --seconds.
    res.put("p50_ms", tune_s * 1e3, "ms");
    res.put("p95_ms", percentile(round_s, 0.95) * 1e3, "ms");
    res.put("ops_per_s", static_cast<double>(round_s.size()) / total_s,
            "1/s");
    res.put("gflops", geomean(gflops), "GFLOP/s");
    res.put("tune_s", tune_s, "s");
    for (const auto& [name, v] : kernel_s)
        res.put("tune." + name + "_s", median(v), "s");
    res.put("tune.states_scored", per_round, "count");
    res.put("tune.states_per_s", per_round / tune_s, "1/s");
    res.put("tune.cost_memo_hit_ratio",
            static_cast<double>(hits) /
                std::max(1.0, static_cast<double>(hits + misses)),
            "ratio");
    return res;
}

}  // namespace perfbench
