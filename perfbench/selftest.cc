/**
 * @file
 * `exo2bench selftest`: the benchmark's own tests. For each
 * correctness check, the unmodified answer must pass and a planted
 * wrong answer (a perturbed output element, a dropped script step, a
 * wrong digest, a costlier schedule, an unvalidated reply, an
 * inconsistent timing) must fail. A check that
 * cannot fail shows nothing.
 */

#include <iostream>

#include "bench.h"
#include "src/cache/cache.h"
#include "src/frontend/parser.h"
#include "src/lint/lint.h"
#include "src/machine/cost_sim.h"
#include "src/verify/fuzz.h"

namespace perfbench {

using namespace exo2;

namespace {

int g_bad = 0;

/** `clean` must be "" and `planted` must not be. */
void
expect(const std::string& what, const std::string& clean,
       const std::string& planted)
{
    bool ok = clean.empty() && !planted.empty();
    std::cout << (ok ? "ok      " : "FAILED  ") << what << "\n";
    if (!clean.empty())
        std::cout << "        clean answer rejected: " << clean << "\n";
    if (planted.empty())
        std::cout << "        planted wrong answer accepted\n";
    if (!ok)
        g_bad++;
}

ProcPtr
library_schedule(const std::string& name)
{
    for (const LibKernel& k : library_kernels()) {
        if (k.name == name)
            return k.schedule();
    }
    return nullptr;
}

}  // namespace

int
selftest_main()
{
    // Native code against the C++ references: one element off by 1.0.
    for (const KernelCase& c : kernel_cases()) {
        ProcPtr p = library_schedule(c.name);
        expect("native " + c.name + " vs C++ reference, perturbed element",
               check_native(c, p, 7), check_native(c, p, 7, 1.0));
    }

    // interp(scheduled) vs interp(original).
    for (const LibKernel& k : library_kernels()) {
        if (k.name != "saxpy" && k.name != "dgemv_t" && k.name != "sgemm" &&
            k.name != "blur")
            continue;
        ProcPtr s = k.schedule();
        SizeEnv env;
        for (const ProcArg& a : k.original->args()) {
            if (a.is_size)
                env[a.name] = k.group == "halide"
                                  ? (a.name == "H" ? 32 : 256)
                                  : (a.name == "N" ? 16 : 4);
        }
        expect("interp " + k.name + ", perturbed element",
               check_interp_equal(k.original, s, env, 3, k.rel_tol),
               check_interp_equal(k.original, s, env, 3, k.rel_tol,
                                  nullptr, 1.0));
    }

    // The lint gate: a library schedule is clean; a proven
    // out-of-bounds fencepost store is an Error-level finding.
    {
        ProcPtr oob = parse_proc(R"(
def saxpy_fencepost(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = y[i] + a * x[i]
    y[n] = 0.0
)");
        auto lint_check = [](const ProcPtr& p) -> std::string {
            lint::LintReport rep = lint::lint_proc(p);
            return rep.has_errors() ? rep.to_text() : "";
        };
        expect("lint: Error-level finding on a planted out-of-bounds store",
               lint_check(library_schedule("saxpy")), lint_check(oob));
    }

    // Replay of a tune winner: a dropped step, a wrong digest.
    const KernelCase& c = kernel_cases()[0];
    tune::TuneResult r = tune::autotune(c.naive, machine_avx2(), tune_opts(c));
    std::vector<tune::FuzzStep> dropped(r.script.begin(),
                                        r.script.end() - 1);
    uint64_t d = proc_digest(r.best);
    expect("replay: dropped script step",
           check_replay_digest(c.naive, r.script, d),
           check_replay_digest(c.naive, dropped, d));
    expect("replay: wrong digest", check_replay_digest(c.naive, r.script, d),
           check_replay_digest(c.naive, r.script, d + 1));

    // The winner's cost: the naive kernel is costlier than the winner,
    // so it fails when the winner's cost is taken as the baseline.
    double naive = naive_cycles(c);
    double best = simulate_cost_named(r.best, c.tune_sizes).cycles;
    expect("cost: schedule costlier than naive",
           check_cost_not_worse(c, naive, r.best),
           check_cost_not_worse(c, best, c.naive));
    expect("tune: winner not validated",
           check_validated("winner", r.validated),
           check_validated("winner", false));
    expect("determinism: a different proc on repeating the same work",
           check_same_proc("winner", r.best, r.best),
           check_same_proc("winner", r.best, c.naive));

    // Daemon replies.
    serve::ServeResponse warm;
    warm.status = "ok";
    warm.from_cache = true;
    warm.validated = true;
    warm.script = verify::script_to_string(r.script);
    warm.elapsed_ms = 10.0;
    warm.extra["phase_cache_ms"] = "2.000";
    warm.extra["phase_validate_ms"] = "7.000";
    warm.extra["phase_queue_ms"] = "5.000";
    std::string setup_script = warm.script;
    serve::ServeResponse bad = warm;
    bad.script = verify::script_to_string(dropped);
    expect("serve: warm tune with a dropped script step",
           check_warm_tune(warm, setup_script),
           check_warm_tune(bad, setup_script));
    bad = warm;
    bad.from_cache = false;
    expect("serve: warm tune not from the cache",
           check_warm_tune(warm, setup_script),
           check_warm_tune(bad, setup_script));
    bad = warm;
    bad.validated = false;
    expect("serve: warm tune not validated",
           check_warm_tune(warm, setup_script),
           check_warm_tune(bad, setup_script));

    serve::ServeResponse sched = warm;
    std::string hex = cache::hex64(d);
    sched.extra["digest"] = hex;
    expect("serve: schedule reply with a wrong digest",
           check_schedule_reply(sched, hex),
           check_schedule_reply(sched, cache::hex64(d + 1)));
    bad = sched;
    bad.validated = false;
    expect("serve: schedule reply not validated",
           check_schedule_reply(sched, hex), check_schedule_reply(bad, hex));

    bad = warm;
    bad.extra["phase_validate_ms"] = "9.000";
    expect("serve: phases exceed elapsed_ms", check_reply_timing(warm, 10.5),
           check_reply_timing(bad, 10.5));
    expect("serve: elapsed_ms exceeds the client latency",
           check_reply_timing(warm, 10.5), check_reply_timing(warm, 9.5));

    std::cout << (g_bad ? "selftest FAILED: " : "selftest passed: ")
              << g_bad << " check(s) did not behave\n";
    return g_bad ? 1 : 0;
}

}  // namespace perfbench
